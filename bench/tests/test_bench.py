"""The benchmark's own tests: the smoke setting end to end, the checks, the reference."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from bench_checks import check_job, exact_digest, load_reference  # noqa: E402
from bench_jobs import WORKLOADS, build_jobs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric(trace):
    """The reduced setting runs every workload and prints every declared metric."""
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == declared
        for name in declared:
            assert isinstance(result["metrics"][name]["value"], (int, float))
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_jobs_follow_the_seed():
    assert build_jobs("orbit-trees", 5) == build_jobs("orbit-trees", 5)
    assert build_jobs("orbit-trees", 5) != build_jobs("orbit-trees", 6)


@pytest.fixture(scope="module")
def cli():
    import algbilliards.cli as cli

    return cli


def _run(cli, job, tmp_path):
    out = tmp_path / f"{job.name}.{job.suffix}"
    assert cli.main([*job.argv, "--out", str(out)]) == 0
    return out


def test_spectral_check_rejects_a_wrong_sequence(cli, tmp_path):
    reference = load_reference()
    job = next(j for j in build_jobs("spectral-sweep", 1, smoke=True) if j.params["d"] == 4)
    out = _run(cli, job, tmp_path)
    assert check_job(job, 0, out, "", ROOT, reference).problems == []
    payload = json.loads(out.read_text())
    payload["degree_sequence"][7] = str(int(payload["degree_sequence"][7]) + 1)
    out.write_text(json.dumps(payload))
    problems = check_job(job, 0, out, "", ROOT, reference).problems
    assert problems == ["degree_sequence differs from the closed-form recurrence"]


def test_orbit_check_rejects_lost_mass_and_off_curve_nodes(cli, tmp_path):
    job = next(j for j in build_jobs("orbit-trees", 1, smoke=True)
               if j.name == "orbit-cubic-0")
    out = _run(cli, job, tmp_path)
    assert check_job(job, 0, out, "", ROOT, {}).problems == []
    nodes = [json.loads(line) for line in out.read_text().splitlines()]
    nodes[-1]["c"][0][0] += 1e-3
    out.write_text("\n".join(json.dumps(n) for n in nodes[:-2] + nodes[-1:]) + "\n")
    problems = check_job(job, 0, out, "", ROOT, {}).problems
    assert any(p.startswith(f"level {job.params['depth']}:") for p in problems)
    assert any(p.startswith("on-curve residual") for p in problems)


def test_char_poly_matches_sympy_and_the_closed_form():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    from algbilliards.numerics import char_poly
    from algbilliards.spectral import pushforward_b_hat

    reference = load_reference()
    for d in (2, 3, 4):
        m = pushforward_b_hat(d).matrix
        ours = list(char_poly(m).coeffs)
        dm = DomainMatrix([[sympy.ZZ(v) for v in row] for row in m.to_lists()],
                          (m.rows, m.cols), sympy.ZZ)
        theirs = [int(c) for c in reversed(dm.charpoly())]
        assert ours == theirs
        assert exact_digest(ours) == reference[str(d)]["closed_form_sha256"]


def test_committed_reference_is_what_the_generator_builds():
    pytest.importorskip("sympy")
    import make_reference

    reference = load_reference()
    assert sorted(map(int, reference)) == list(make_reference.DEGREES)
    for d in (2, 3, 5):
        assert make_reference.reference_for(d) == reference[str(d)]
