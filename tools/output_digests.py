"""Print ``name exit sha256`` for a fixed set of CLI runs, one line each.

    python3 tools/output_digests.py > new.txt
    python3 tools/output_digests.py --root ../parent > old.txt
    diff old.txt new.txt                     # byte identity across two checkouts
    python3 tools/output_digests.py --seeds --scale 3/7 > scaled.txt
    diff <(python3 tools/output_digests.py --seeds) scaled.txt   # F -> cF, fixtures only
    python3 tools/output_digests.py --root ../parent --keep old-out > old.txt
    python3 tools/output_digests.py --compare old-out      # how far each changed output moved

Three sets of runs, each through ``algbilliards.cli.main`` in-process with
the library imported from ``<root>/src``:

* ``bench/<seed>/<job>``: the benchmark's job lists at every ``--seeds``
  value (none with a bare ``--seeds``), built by ``bench/bench_jobs.py``
  (imported read-only);
* ``fixture/<curve>/<command>``: nine commands on each curve of
  ``tests/data``, and ``confine --samples 3`` at seeds 1..30 on the
  ellipse, cubic, quartic and sextic.  With ``--scale c`` every coefficient of the
  curve is first multiplied exactly by the rational c;
* ``spectral/d<N>/m<M>``: ``spectral --d N --m-max M`` for every accepted
  degree N = 2..22 and M = 0, 60 and 200.

Every run writes its ``--out`` to the same path under ``--work`` and every
fixture curve is written to the same path there, so the outputs' ``meta``
blocks agree across checkouts and scales.  So one run holds ``--work`` at a
time: a second run on a work dir in use exits 1 before running anything.  A missing output digests as
``-``; a run that raised prints the exception's type as its exit; a run
that issued a RuntimeWarning gets a fourth field, ``RuntimeWarning``.

``--keep DIR`` also copies every output to ``DIR/<name>``.  ``--compare DIR``
reads those copies back: a line whose output differs from its copy ends in
``changed=<lines> max_diff=<d>@<leaf>``, the number of changed lines and the
largest absolute difference of a numeric leaf (a JSON value, a JSON-lines
value or a CSV cell, named by its path), or ``max_diff=structure@<leaf>`` where
a non-numeric leaf or the shape differs; ``changed=new`` marks an output
without a copy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fcntl
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import traceback
import warnings
from fractions import Fraction
from itertools import chain
from pathlib import Path

FIXTURES = ("circle", "ellipse", "cubic", "quartic", "sextic")
FIXTURE_COMMANDS = {
    "genericity": ("genericity",),
    "scratch-json": ("scratch",),
    "scratch-csv": ("scratch", "--format", "csv"),
    "orbit": ("orbit", "--depth", "3"),
    "orbit-real": ("orbit", "--real", "--depth", "20"),
    "confine": ("confine", "--samples", "2"),
    "form-check": ("form-check", "--samples", "3"),
    "form-check-h0.05": ("form-check", "--samples", "15", "--h", "0.05"),  # the skip paths
    "spectral": ("spectral",),
}
CONFINE_CURVES = ("ellipse", "cubic", "quartic", "sextic")
CONFINE_SEEDS = range(1, 31)
SPECTRAL_DEGREES = range(2, 23)
SPECTRAL_M_MAX = (0, 60, 200)


def scaled_curve_text(path: Path, c: Fraction) -> str:
    data = json.loads(path.read_text())
    for entry in data["coeffs"]:
        for part in ("re", "im"):
            if part in entry:
                entry[part] = str(Fraction(entry[part]) * c)
    return json.dumps(data)


def leaves(text: str) -> dict:
    """Path -> value of every leaf of a JSON, JSON-lines or CSV output."""
    try:
        tree = json.loads(text)
    except ValueError:
        try:
            tree = [json.loads(line) for line in text.splitlines()]
        except ValueError:
            tree = list(csv.reader(io.StringIO(text)))
    out = {}

    def walk(node, path):
        if isinstance(node, (dict, list)):
            for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(child, f"{path}/{key}" if path else str(key))
        else:
            out[path] = node
    walk(tree, "")
    return out


def numeric(value):
    """A leaf as a float (numbers and numeric strings), else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def compare(old: bytes, new: bytes) -> str:
    """`` changed=<lines> max_diff=<d>@<leaf>`` for two differing outputs."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    la, lb = leaves(old.decode()), leaves(new.decode())
    worst, where = 0.0, "-"
    for path in sorted(la.keys() | lb.keys()):
        x, y = la.get(path), lb.get(path)
        if x == y:
            continue
        fx, fy = numeric(x), numeric(y)  # None also where one side lacks the leaf
        if fx is None or fy is None:
            return f" changed={changed} max_diff=structure@{path}"
        d = abs(fx - fy) if math.isfinite(fx) and math.isfinite(fy) else math.inf
        if d > worst:
            worst, where = d, path
    return f" changed={changed} max_diff={worst:.2g}@{where}"


def digest(main, name: str, argv, out: Path, keep: Path | None = None, kept: Path | None = None) -> str:
    out.unlink(missing_ok=True)
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(io.StringIO()), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = str(main([*argv, "--out", str(out)]))
        except Exception as exc:  # a traceback is a finding, not a crash of this script
            traceback.print_exc(file=sys.__stderr__)
            code = type(exc).__name__
    sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
    warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
    line = f"{name} {code} {sha}" + (" RuntimeWarning" if warned else "")
    if keep is not None and out.exists():
        (keep / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(out, keep / name)
    if kept is not None and out.exists():
        if not (kept / name).exists():
            line += " changed=new"
        elif (kept / name).read_bytes() != out.read_bytes():
            line += compare((kept / name).read_bytes(), out.read_bytes())
    return line


def bench_runs(root: Path, seeds, out_dir: Path):
    """(name, argv, out) of every benchmark job."""
    sys.path.insert(0, str(root / "bench"))
    from bench_jobs import WORKLOADS, build_jobs

    for seed in seeds:
        for workload in WORKLOADS:
            for job in build_jobs(workload, seed):
                yield f"bench/{seed}/{job.name}", job.argv, out_dir / f"out.{job.suffix}"


def fixture_runs(root: Path, scale: Fraction, out_dir: Path):
    """(name, argv, out) of every fixture run, its curve file written first."""
    curve = out_dir / "curve.json"
    runs = [(name, cmd, args) for name in FIXTURES for cmd, args in FIXTURE_COMMANDS.items()]
    runs += [(name, f"confine-seed{s}", ("confine", "--samples", "3", "--seed", str(s)))
             for name in CONFINE_CURVES for s in CONFINE_SEEDS]
    for name, cmd, args in runs:
        curve.write_text(scaled_curve_text(root / "tests" / "data" / f"{name}.json", scale))
        argv = (*args, "--curve", str(curve)) + (() if "--seed" in args else ("--seed", "1"))
        yield f"fixture/{name}/{cmd}", argv, out_dir / "out"


def spectral_runs(out_dir: Path):
    """(name, argv, out) of every ``spectral --d N --m-max M`` run."""
    for d in SPECTRAL_DEGREES:
        for m in SPECTRAL_M_MAX:
            yield f"spectral/d{d}/m{m}", ("spectral", "--d", str(d), "--m-max", str(m)), out_dir / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to run (default: this script's)")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 20261017],
                        help="benchmark workload seeds (none: skip the benchmark jobs)")
    parser.add_argument("--scale", type=Fraction, default=Fraction(1),
                        help="exact factor for every fixture coefficient, e.g. 3/7, 1e-8 or =-3/7")
    parser.add_argument("--work", type=Path, default=Path(tempfile.gettempdir()) / "algbilliards-digests",
                        help="directory for the curve file and --out (keep it the same across runs)")
    parser.add_argument("--keep", type=Path, help="copy every output to DIR/<name>")
    parser.add_argument("--compare", type=Path,
                        help="report how far each output moved from its copy under DIR (from --keep)")
    args = parser.parse_args(argv)
    if args.scale == 0:
        parser.error("--scale must be nonzero")
    root, work = args.root.resolve(), args.work.resolve()
    keep, kept = (p.resolve() if p else None for p in (args.keep, args.compare))
    work.mkdir(parents=True, exist_ok=True)
    with open(work / ".lock", "w") as lock:
        try:  # two runs sharing a work dir overwrite each other's curve and outputs
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print(f"error: another run is using {work}; give this one its own --work", file=sys.stderr)
            return 1
        sys.dont_write_bytecode = True  # leave the checkout as it is
        sys.path.insert(0, str(root / "src"))
        from algbilliards.cli import main as cli_main

        os.chdir(root)  # the benchmark's jobs name curves relative to the checkout
        # lazily: each fixture run writes its curve file just before it runs
        runs = chain(fixture_runs(root, args.scale, work), spectral_runs(work), bench_runs(root, args.seeds, work))
        for name, run_argv, out in runs:
            print(digest(cli_main, name, run_argv, out, keep, kept), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
