"""algbilliards benchmark: README commands through ``algbilliards.cli.main``, timed and checked.

    python3 bench/run.py --workload spectral-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, each in its own interpreter
    python3 bench/run.py --workload all --smoke    # reduced setting, a few seconds

One client, closed loop, no threads: the workload's job list (bench_jobs.py)
runs job after job, and the whole list repeats until ``--seconds`` is used
up (at least once).  Every ``--out`` goes to ``.bench_out/<workload>/``.
After the loop the last pass's outputs are checked (bench_checks.py) and
one job is run again to check its output is byte-identical.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
fresh-interpreter set-ups, bench/setup_probe.py), ``wall_s`` (the job
list's time, see ``wall_seconds``) and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
bench_trace.py plus ``trace.overhead_s``, the traced minus the untraced
median pass time.  Lines before the last describe the run; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status is 0 only when every job succeeded and every check held.
"""

from __future__ import annotations

import os

# Before numpy is imported: power_iteration_radius uses BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from bench_checks import check_job, load_reference  # noqa: E402
from bench_jobs import (  # noqa: E402
    CURVES,
    DETERMINISM_JOB,
    SPECTRAL_DEGREES,
    WORKLOADS,
    build_jobs,
    curve_path,
)
from bench_trace import Tracer, layer_metrics, median_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


class CheckoutError(RuntimeError):
    """The benchmark is not inside a checkout that holds the library."""


def check_checkout():
    needed = [SRC / "algbilliards" / "cli.py"] + [ROOT / curve_path(c) for c in CURVES]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise CheckoutError("not an algbilliards checkout; missing " + ", ".join(missing))


def import_cli():
    sys.path.insert(0, str(SRC))
    import algbilliards.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "algbilliards":
        raise CheckoutError(f"imported algbilliards from {cli.__file__}, not {SRC}")
    return cli


def git_sha() -> str:
    """HEAD's commit from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(workload: str) -> float:
    """Fresh interpreter to ready, measured on CLOCK_MONOTONIC across the process boundary."""
    started = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise CheckoutError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    ready, module = proc.stdout.split()
    if Path(module).resolve().parent != SRC / "algbilliards":
        raise CheckoutError(f"set-up imported algbilliards from {module}")
    return (int(ready) - started) / 1e9


class Runner:
    """Runs job lists through ``cli.main`` and keeps what the checks need."""

    def __init__(self, cli, jobs, out_dir: Path):
        self.cli = cli
        self.jobs = jobs
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.last_stderr: dict[str, str] = {}
        self.last_codes: dict[str, int] = {}

    def path(self, job) -> Path:
        return self.out_dir / f"{job.name}.{job.suffix}"

    def run_job(self, job, path: Path) -> tuple[int, float, str]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = self.cli.main([*job.argv, "--out", str(path)])
            except Exception:  # a job that raises counts as failed; the run goes on
                traceback.print_exc()
                code = -1
            elapsed = (time.perf_counter_ns() - start) / 1e9
        self.attempted += 1
        return code, elapsed, err.getvalue()

    def run_pass(self, tracer: Tracer | None = None) -> dict[str, float]:
        """One pass over the job list; returns seconds per job name."""
        times = {}
        for jid, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = jid
            code, elapsed, err = self.run_job(job, self.path(job))
            times[job.name] = elapsed
            self.last_codes[job.name] = code
            self.last_stderr[job.name] = err
            if code != 0:
                self.failed += 1
        return times

    def determinism(self, name: str) -> list[str]:
        """Runs the job again with the same --out (which the output records)
        and compares the bytes."""
        job = next(j for j in self.jobs if j.name == name)
        path = self.path(job)
        first = path.read_bytes() if path.is_file() else None
        code, _elapsed, err = self.run_job(job, path)
        if code != 0:
            problem = f"rerun exit code {code}: {err.strip()[-300:]}"
        elif path.read_bytes() != first:
            problem = "rerun --out differs from the first run"
        else:
            return []
        self.failed += 1
        return [f"{name}: {problem}"]

    def check_last_pass(self, reference) -> tuple[list[str], dict]:
        """Checks the last pass's outputs."""
        problems, stats = [], {}
        for job in self.jobs:
            code = self.last_codes[job.name]
            outcome = check_job(job, code, self.path(job), self.last_stderr[job.name],
                                ROOT, reference)
            stats[job.name] = outcome.stats
            if outcome.problems:
                problems += [f"{job.name}: {p}" for p in outcome.problems]
                if code == 0:  # a non-zero exit was counted when it happened
                    self.failed += 1
        return problems, stats


def repeat(step, seconds: float | None = None, times: int | None = None) -> list:
    """Calls ``step`` ``times`` times, or until the next call would overrun
    ``seconds`` (at least once).

    Successive calls are pinned to successive CPUs of the process's affinity
    set (child processes inherit it).  On a shared VM one vCPU can run 20-30%
    slower than another for minutes, and the scheduler tends to keep a
    single-threaded process on one of them for a whole run; alternating
    spreads the samples over every CPU.  The affinity set is restored
    afterwards.
    """
    cpus = sorted(os.sched_getaffinity(0))
    results = []
    start = time.perf_counter()
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(results) % len(cpus)]})
            results.append(step())
            if times is not None:
                if len(results) == times:
                    return results
                continue
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(results) > seconds:
                return results
    finally:
        os.sched_setaffinity(0, cpus)


def wall_seconds(workload: str, jobs, passes: list[dict]) -> float:
    """The job list's time from the run's passes.

    On a shared VM other tenants slow a job down by up to 2x for a second or
    two at a time, and contention only ever adds time.  The near-scratch
    jobs take 0.02-0.2 s and each runs about 20 times in a run, so each
    job's fastest run is a steady floor and ``wall_s`` is their sum.  The
    orbit-trees and spectral-sweep jobs take 0.15-9 s and run 4-12 times,
    too few for the fastest run to be a floor; ``wall_s`` is the mean pass.
    bench/NOTES.md has the measurements behind this choice.
    """
    if workload == "near-scratch":
        return sum(min(t[job.name] for t in passes) for job in jobs)
    return statistics.fmean(sum(t.values()) for t in passes)


def report_metrics(jobs, passes: list[dict], stats: dict) -> dict:
    """Workload-specific figures printed beside the end-to-end metrics."""
    n = len(passes)
    out = {}

    def median_of(names):
        return statistics.median(sum(t[name] for name in names) for t in passes)

    if "spectral-d12" in passes[0]:
        out["spectral_d12_s"] = (median_of(["spectral-d12"]), "s", n)
    trees = [j.name for j in jobs if j.command == "orbit" and not j.params.get("real")]
    if trees:
        nodes = sum(stats[name].get("nodes", 0) for name in trees)
        out["orbit_nodes_per_s"] = (nodes / median_of(trees), "nodes/s", n)
        worst = max(s.get("worst_residual", 0.0) for s in stats.values())
        if worst > 0:
            out["worst_residual_log10"] = (math.log10(worst), "log10", 1)
    confines = [j.name for j in jobs if j.command == "confine"]
    if confines:
        out["confine_s"] = (median_of(confines), "s", n)
    return out


def confine_counts(runner: Runner) -> tuple[int, int]:
    reports = passed = 0
    for job in runner.jobs:
        if job.command == "confine" and runner.last_codes[job.name] == 0:
            payload = json.loads(runner.path(job).read_text())
            reports += len(payload["reports"])
            passed += sum(bool(r["passed"]) for r in payload["reports"])
    return reports, passed


def run_workload(args) -> int:
    check_checkout()
    jobs = build_jobs(args.workload, args.seed, args.smoke)
    probes = 1 if args.smoke else SETUP_PROBES
    setups = [] if args.trace else repeat(lambda: setup_seconds(args.workload), times=probes)
    cli = import_cli()

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = load_reference()
    runner = Runner(cli, jobs, out_dir)
    tracers: list[Tracer] = []
    layers: list[dict] = []

    if args.trace:
        def untraced_then_traced():
            plain = runner.run_pass()
            tracer = Tracer()
            tracers[:] = [tracer]  # only the last traced pass's spans are kept
            with tracer.installed():
                traced = runner.run_pass(tracer)
            sample = layer_metrics(tracer.spans, dict(enumerate(jobs)), SPECTRAL_DEGREES,
                                   confine_counts(runner))
            sample["cli.output_bytes"] = (
                sum(runner.path(j).stat().st_size for j in jobs), "bytes")
            layers.append(sample)
            return plain, traced

        pairs = repeat(untraced_then_traced, args.seconds)
        passes = [plain for plain, _ in pairs]
        traced_wall = statistics.median(sum(t.values()) for _, t in pairs)
    else:
        passes = repeat(runner.run_pass, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_times = [sum(t.values()) for t in passes]
    wall = wall_seconds(args.workload, jobs, passes)

    problems = runner.determinism(DETERMINISM_JOB[args.workload])
    check_problems, stats = runner.check_last_pass(reference)
    problems += check_problems

    if args.trace:
        metrics = median_metrics(layers)
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(pass_times), "s")
        tracers[0].write(out_dir / "trace.jsonl", {i: j.name for i, j in enumerate(jobs)})
        shown = {k: (v, u, len(layers)) for k, (v, u) in metrics.items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        shown = {
            "setup_s": (metrics["setup_s"][0], "s", len(setups)),
            "wall_s": (wall, "s", len(passes)),
            "wall_median_s": (statistics.median(pass_times), "s", len(passes)),
            "peak_rss_mb": (peak_rss_mb, "MiB", 1),
            **report_metrics(jobs, passes, stats),
        }
    shown["failed_ratio"] = (runner.failed / runner.attempted, "ratio", runner.attempted)

    env = {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    print(f"# {args.workload}: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, count) in shown.items():
        print(f"{name:40s} {value:16.6g} {unit:8s} (n={count})")
    for problem in problems:
        print(f"FAILED {problem}")
    record = {
        "env": env,
        "jobs": [{"name": j.name, "argv": list(j.argv), **j.params} for j in jobs],
        "setup_s": setups,
        "pass_s": pass_times,
        "job_median_s": {j.name: statistics.median(t[j.name] for t in passes) for j in jobs},
        "job_s": {j.name: [t[j.name] for t in passes] for j in jobs},
        "metrics": {k: {"value": v, "unit": u, "n": c} for k, (v, u, c) in shown.items()},
        "problems": problems,
    }
    suffix = "trace" if args.trace else "result"
    (out_dir / f"{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": not problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so set-up and memory are its alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise CheckoutError(f"{workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced job lists and one set-up probe")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except (CheckoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
