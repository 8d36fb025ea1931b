"""Tests for the command-line interface: exit codes, formats, determinism."""

import contextlib
import io
import json
import pathlib
import time
import warnings
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algbilliards import blowup, cli, sampling, spectral
from algbilliards.cli import main
from algbilliards.curve import PlaneCurve, curve_to_json
from algbilliards.numerics import MAX_MATRIX_SIDE

DATA = pathlib.Path(__file__).parent / "data"


def run(args):
    return main([str(a) for a in args])


def test_spectral_d2(tmp_path, capsys):
    out = tmp_path / "spec.json"
    code = run(["spectral", "--d", 2, "--out", out])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rho"] == 1.0
    assert data["char_poly_verified"] is True
    assert data["conjugation_verified"] is True
    assert data["phi_coeffs"] == [-1, 3, -3, 1]
    assert data["degree_sequence"][0] == 2


def test_spectral_d3_bracket(tmp_path):
    out = tmp_path / "spec.json"
    code = run(["spectral", "--d", 3, "--m-max", 20, "--out", out])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["bracket"] == [10, 12]
    assert 11.21 < data["rho"] < 11.22


def test_spectral_rejects_d1():
    assert run(["spectral", "--d", 1]) == 1


@pytest.mark.parametrize("argv", [
    ["--d", 23], ["--d", 12, "--m-max", 201], ["--d", 12, "--m-max", -1],
], ids=["d23", "m_max201", "m_max-1"])
def test_spectral_refuses_unsupported_input_up_front(tmp_path, argv):
    # d = 22 is the largest degree whose lattice rank 2d^2 + 2 char_poly accepts
    d = cli.MAX_SPECTRAL_DEGREE
    assert 2 * d * d + 2 <= MAX_MATRIX_SIDE < 2 * (d + 1) ** 2 + 2
    out = tmp_path / "spec.json"
    started = time.monotonic()
    assert run(["spectral", *argv, "--out", out]) == 1
    assert time.monotonic() - started < 1
    assert not out.exists()


def test_spectral_big_integers_as_strings(tmp_path):
    out = tmp_path / "spec.json"
    code = run(["spectral", "--d", 3, "--m-max", 60, "--out", out])
    assert code == 0
    data = json.loads(out.read_text())
    tail = data["degree_sequence"][-1]
    assert isinstance(tail, str)  # beyond 2**53, serialized as a decimal string
    assert int(tail) > 2**53


def test_scratch_counts(tmp_path):
    for name, expected in (("ellipse", 8), ("cubic", 18), ("quartic", 32)):
        out = tmp_path / f"{name}.json"
        code = run(["scratch", "--curve", DATA / f"{name}.json", "--out", out])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["count"] == expected == data["expected"]


def test_scratch_csv_format(tmp_path):
    out = tmp_path / "scratch.csv"
    code = run(["scratch", "--curve", DATA / "ellipse.json", "--format", "csv",
                "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 9  # header + 8 rows
    assert lines[0].startswith("kind,basic,c0_re,c0_im")


def test_genericity_exit_codes(tmp_path):
    assert run(["genericity", "--curve", DATA / "ellipse.json",
                "--out", tmp_path / "g.json"]) == 0
    assert run(["genericity", "--curve", DATA / "circle.json",
                "--out", tmp_path / "g2.json"]) == 2


def test_missing_curve_file_is_input_error(tmp_path):
    assert run(["scratch", "--curve", tmp_path / "nope.json"]) == 1


def test_orbit_ellipse_chain(tmp_path):
    out = tmp_path / "orbit.jsonl"
    code = run(["orbit", "--curve", DATA / "ellipse.json", "--depth", 5,
                "--seed", 3, "--out", out])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 6  # root plus one node per level for d = 2
    assert lines[0]["level"] == 0 and lines[-1]["level"] == 5


def test_orbit_real_trajectory(tmp_path):
    out = tmp_path / "real.jsonl"
    code = run(["orbit", "--curve", DATA / "ellipse.json", "--depth", 50,
                "--seed", 1, "--real", "--out", out])
    assert code == 0
    assert len(out.read_text().splitlines()) == 50


def test_orbit_real_lines_are_json_dumps_of_each_state(tmp_path):
    from algbilliards.curve import curve_from_json
    from algbilliards.phase import phase_point_json, real_billiard_step

    out = tmp_path / "real.jsonl"
    assert run(["orbit", "--curve", DATA / "ellipse.json", "--depth", 30,
                "--seed", 2, "--real", "--out", out]) == 0
    curve = curve_from_json((DATA / "ellipse.json").read_text())
    x = sampling.sample_real_state(curve, 2)
    expected = []
    for step in range(30):
        expected.append(json.dumps({"step": step, **phase_point_json(x)}, sort_keys=True))
        x = real_billiard_step(curve, x)
    assert out.read_text().splitlines() == expected


def test_orbit_real_depth_zero_writes_an_empty_file(tmp_path):
    out = tmp_path / "real.jsonl"
    assert run(["orbit", "--curve", DATA / "ellipse.json", "--depth", 0,
                "--seed", 1, "--real", "--out", out]) == 0
    assert out.read_bytes() == b""


def test_orbit_real_takes_no_step_past_its_last_line(monkeypatch, tmp_path, capsys):
    from algbilliards.phase import NoRealReturnError

    # a map that would escape on its fifth call: five lines need only four steps
    calls = []

    def step(curve, x):
        calls.append(x)
        if len(calls) == 5:
            raise NoRealReturnError("no return")
        return x

    monkeypatch.setattr(cli, "real_billiard_step", step)
    out = tmp_path / "real.jsonl"
    assert run(["orbit", "--curve", DATA / "ellipse.json", "--depth", 5,
                "--seed", 1, "--real", "--out", out]) == 0
    assert len(calls) == 4 and len(out.read_text().splitlines()) == 5
    assert "real trajectory of 5 steps written" in capsys.readouterr().err


def test_orbit_reports_terminated_nodes_on_stderr_only(monkeypatch, tmp_path, capsys):
    from collections import Counter

    from algbilliards.curve import curve_from_json, points_at_infinity
    from algbilliards.numerics import find_roots
    from algbilliards.phase import direction_from_slope, phase_point
    from algbilliards.curve import proj_point

    # the cubic state of test_orbit_tree_records_terminated_branches: its
    # secant line meets the curve on the infinity line
    curve = curve_from_json((DATA / "cubic.json").read_text())
    inf = points_at_infinity(curve)[0][0]
    t = find_roots(curve.restrict_to_line((0.2, -0.3, 1.0), (1.1, 0.4, 0.0)))[0].value
    x = phase_point(curve, proj_point(0.2 + 1.1 * t, -0.3 + 0.4 * t, 1.0),
                    direction_from_slope((inf.coords[0], inf.coords[1]), 0))
    monkeypatch.setattr(cli, "sample_phase_points", lambda curve, k, seed: [x])
    out = tmp_path / "orbit.jsonl"
    assert run(["orbit", "--curve", DATA / "cubic.json", "--depth", 3, "--out", out]) == 0
    nodes = [json.loads(line) for line in out.read_text().splitlines()]
    ended = Counter(n["terminated_reason"] for n in nodes if "terminated_reason" in n)
    assert ended["image_at_infinity"] >= 1
    err = capsys.readouterr().err
    assert "terminated: " + ", ".join(f"{r} {n}" for r, n in sorted(ended.items())) in err.splitlines()
    assert "terminated:" not in out.read_text()
    monkeypatch.undo()
    assert run(["orbit", "--curve", DATA / "cubic.json", "--depth", 3, "--out", out]) == 0
    assert "terminated: none" in capsys.readouterr().err.splitlines()


def test_orbit_real_escape_is_graceful(tmp_path):
    # the cubic has an unbounded real branch; a ray that never returns ends
    # the trajectory without failing the command
    out = tmp_path / "esc.jsonl"
    code = run(["orbit", "--curve", DATA / "cubic.json", "--depth", 500,
                "--seed", 4, "--real", "--out", out])
    assert code == 0
    assert 1 <= len(out.read_text().splitlines()) <= 500


# quartic seed 14 passes only when find_roots keeps two close secant roots
# apart beside a root near an asymptote; merged, the image leaves the curve
@pytest.mark.parametrize("curve,seed,reports", [("ellipse", 1, 8), ("quartic", 14, 32)],
                         ids=["ellipse-seed1", "quartic-seed14"])
def test_confine_all_pass(tmp_path, curve, seed, reports):
    out = tmp_path / "confine.json"
    code = run(["confine", "--curve", DATA / f"{curve}.json", "--seed", seed,
                "--samples", 3, "--out", out])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["reports"]) == reports
    assert data["all_passed"] is True


# one report of a failing full run each, reproduced alone (scratch point k of
# a run at seed s is stepped with seed s + k): quartic seeds 146 (k = 3) and
# 147 (k = 2), sextic seed 3 (k = 5) and sextic seed 30 (k = 11).  Each
# converges to its prediction, and a chain of each starts its differences
# already near the rounding floor, grows by 2x per halving after order 2,
# or reaches the floor after two contracting halvings
@pytest.mark.parametrize("curve,samples,seed,index", [
    ("quartic", 3, 149, 3), ("quartic", 3, 149, 2), ("sextic", 2, 8, 5), ("sextic", 3, 8, 5),
    ("sextic", 3, 41, 11)])
def test_confine_certifies_limits_past_their_rounding_floor(tmp_path, curve, samples, seed, index):
    out = tmp_path / "confine.json"
    assert run(["confine", "--curve", DATA / f"{curve}.json", "--samples", samples, "--seed", seed,
                "--scratch-index", index, "--out", out]) == 0
    (report,) = json.loads(out.read_text())["reports"]
    assert report["cauchy_ok"] and report["passed"]


def test_confine_draws_and_steps_only_what_it_uses(monkeypatch, tmp_path):
    # 8 experiments of 3 starts: one stacked first step and one stacked
    # second step for all of them, one stacked secant for the 12 isotropic
    # start samples and one stacked reflection for the 12 predicted limits
    # at infinity; the 4 at infinity draw their 3 starts from the stream lazily
    calls, drawn = {}, []

    def counted(name):
        kernel = getattr(blowup, name)

        def wrapper(curve, *args):
            calls.setdefault(name, []).append(len(args[0]) if args else 1)
            return kernel(curve, *args)

        monkeypatch.setattr(blowup, name, wrapper)

    def counted_stream(curve, seed):
        for x in sampling.phase_point_stream(curve, seed):
            drawn.append(seed)
            yield x

    for name in ("_step_rows", "_secant_rows", "_reflect_rows", "reflect", "secant"):
        counted(name)
    monkeypatch.setattr(cli, "phase_point_stream", counted_stream)
    assert run(["confine", "--curve", DATA / "ellipse.json", "--seed", 1,
                "--samples", 3, "--out", tmp_path / "confine.json"]) == 0
    assert calls == {"_step_rows": [8 * 3 * blowup.EPS_COUNT] * 2,
                     "_secant_rows": [4 * 3], "_reflect_rows": [4 * 3]}
    assert len(drawn) == 12


@pytest.mark.parametrize("curve,count", [("ellipse", 8), ("cubic", 18)])
def test_confine_reports_do_not_depend_on_the_scratch_points_run_with_them(tmp_path, curve, count):
    # scratch point k of a full run at seed s is stepped with seed s + k, so its
    # report is the one of its own run; stacking the scratch points must not couple them
    def reports(*argv):
        out = tmp_path / "confine.json"
        assert run(["confine", "--curve", DATA / f"{curve}.json", "--samples", 3, *argv, "--out", out]) == 0
        return json.loads(out.read_text())["reports"]

    full = reports("--seed", 11)
    assert len(full) == count
    for k, report in enumerate(full):
        assert reports("--scratch-index", k, "--seed", 11 + k) == [report]


def test_confine_rejects_circle(tmp_path):
    assert run(["confine", "--curve", DATA / "circle.json",
                "--out", tmp_path / "x.json"]) == 1


def test_confine_eps_override(tmp_path):
    out = tmp_path / "c.json"
    eps = ",".join(str(1e-2 * 2.0**-k) for k in range(10))
    code = run(["confine", "--curve", DATA / "ellipse.json", "--seed", 1,
                "--samples", 2, "--scratch-index", 0, "--eps", eps, "--out", out])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["reports"][0]["eps"]) == 10


def test_confine_eps_validation():
    assert run(["confine", "--curve", DATA / "ellipse.json",
                "--eps", "1e-2,2e-2,3e-2"]) == 1  # not decreasing
    assert run(["confine", "--curve", DATA / "ellipse.json",
                "--eps", "bogus"]) == 1


def test_a_too_short_schedule_is_named_in_its_error(tmp_path, capsys):
    # a valid halving schedule of 5 halvings from 1e-2 leaves the ellipse's
    # nearest branch 1.21e-3 from its scratch point: the error says how far
    # the schedule ran and what a start must reach
    out = tmp_path / "c.json"
    assert run(["confine", "--curve", DATA / "ellipse.json", "--samples", 3, "--seed", 1,
                "--eps", "1e-2,5e-3,2.5e-3,1.25e-3,6.25e-4,3.125e-4", "--out", out]) == 1
    (line,) = _single_error_line(capsys.readouterr().err)
    assert "stayed 1.21e-03 from the scratch point after 5 halvings" in line
    assert "within 1e-3" in line and "50 times closer" in line and "about 6 halvings from 1e-2" in line
    assert not out.exists()


def test_form_check_small_batch(tmp_path):
    out = tmp_path / "form.csv"
    code = run(["form-check", "--curve", DATA / "ellipse.json", "--samples", 5,
                "--seed", 2, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sample_id,op,h,residual_h,residual_h2,order_estimate"
    assert len(lines) == 1 + 5 * 3  # header + samples x {reflect, secant, billiard}


def test_orbit_cubic_depth8_leaf_count(tmp_path):
    out = tmp_path / "orbit3.jsonl"
    code = run(["orbit", "--curve", DATA / "cubic.json", "--depth", 8,
                "--seed", 9, "--out", out])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    leaves = [l for l in lines if l["level"] == 8 and "terminated_reason" not in l]
    assert sum(l["mult"] for l in leaves) == 256


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "a2.json"
    for out in (out1, out2):
        code = run(["confine", "--curve", DATA / "ellipse.json", "--seed", 7,
                    "--samples", 2, "--scratch-index", 0, "--out", out])
        assert code == 0
    a, b = out1.read_text(), out2.read_text()
    # the config echo contains the out path; neutralize only that field
    a = a.replace(str(out1), "OUT")
    b = b.replace(str(out2), "OUT")
    assert a == b


def test_metadata_header_present(tmp_path):
    out = tmp_path / "spec.json"
    run(["spectral", "--d", 2, "--out", out])
    data = json.loads(out.read_text())
    assert "meta" in data and "version" in data["meta"] and "config" in data["meta"]


def test_format_is_a_scratch_option_only(tmp_path):
    out = tmp_path / "orbit.csv"
    assert run(["orbit", "--curve", DATA / "ellipse.json", "--format", "csv",
                "--out", out]) == 1
    assert not out.exists()


def test_form_check_refuses_bad_step(tmp_path):
    for h in ("0", "-1e-4", "nan", "inf", "1e-12", "1e-20"):
        out = tmp_path / "form.csv"
        assert run(["form-check", "--curve", DATA / "ellipse.json", "--h", h,
                    "--samples", 2, "--out", out]) == 1
        assert not out.exists()


def test_form_check_refuses_zero_samples(tmp_path):
    out = tmp_path / "form.csv"
    assert run(["form-check", "--curve", DATA / "ellipse.json", "--samples", 0,
                "--out", out]) == 1
    assert not out.exists()


def test_orbit_tree_over_node_cap_is_refused_up_front(tmp_path):
    # quartic depth 14: the bound (3^15 - 1) / 2 exceeds the 500,000-node cap
    out = tmp_path / "orbit.jsonl"
    started = time.monotonic()
    assert run(["orbit", "--curve", DATA / "quartic.json", "--depth", 14,
                "--out", out]) == 1
    assert time.monotonic() - started < 10
    assert not out.exists()


def test_confine_refuses_zero_samples(tmp_path):
    out = tmp_path / "c.json"
    assert run(["confine", "--curve", DATA / "ellipse.json", "--samples", 0,
                "--scratch-index", 0, "--out", out]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "error", cli.VERIFICATION_ERRORS, ids=lambda e: e.__name__,
)
@pytest.mark.parametrize("target,argv", [
    ("verify_factorization", ["spectral", "--d", 2]),
    ("orbit_tree", ["orbit", "--curve", DATA / "ellipse.json", "--depth", 2]),
], ids=["spectral", "orbit"])
def test_mathematical_failures_exit_2_without_traceback(
    monkeypatch, capsys, tmp_path, error, target, argv
):
    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(cli, target, fail)
    assert run(argv + ["--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "error: injected failure" in err
    assert "Traceback" not in err


def test_rho_outside_its_bracket_is_a_verification_failure(monkeypatch, tmp_path, capsys):
    # Phi_d is positive beyond its largest root, so (2d^2, 2d^2 + 1) holds no root
    monkeypatch.setattr(spectral, "rho_bracket", lambda d: (2 * d * d, 2 * d * d + 1))
    assert run(["spectral", "--d", 3, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and "(18, 19)" in lines[0]


def test_confine_one_sample_refused_at_isotropic_points(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["confine", "--curve", DATA / "ellipse.json", "--samples", 1,
                "--out", out]) == 1
    assert "--samples must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_confine_one_sample_at_an_infinity_point(tmp_path):
    out = tmp_path / "c.json"
    assert run(["confine", "--curve", DATA / "ellipse.json", "--samples", 1,
                "--scratch-index", 0, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["reports"][0]["scratch"]["kind"] == "infinity"


def _single_error_line(err):
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_orbit_real_on_a_curve_without_real_points_is_input_error(tmp_path, capsys):
    # x^2 + 4y^2 + 4 = 0 is generic but has no real points
    curve = tmp_path / "imaginary.json"
    curve.write_text(json.dumps({"degree": 2, "coeffs": [
        {"i": 2, "j": 0, "k": 0, "re": "1"},
        {"i": 0, "j": 2, "k": 0, "re": "4"},
        {"i": 0, "j": 0, "k": 2, "re": "4"},
    ]}))
    out = tmp_path / "real.jsonl"
    assert run(["orbit", "--real", "--depth", 3, "--curve", curve, "--out", out]) == 1
    assert len(_single_error_line(capsys.readouterr().err)) == 1
    assert not out.exists()


def test_phase_sampling_exhaustion_is_input_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sampling, "MAX_TRIES", 0)
    out = tmp_path / "orbit.jsonl"
    assert run(["orbit", "--curve", DATA / "ellipse.json", "--depth", 2,
                "--out", out]) == 1
    assert len(_single_error_line(capsys.readouterr().err)) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectral", "--d", 23],
    ["spectral", "--d", 12, "--m-max", 201],
    ["spectral", "--curve", DATA / "circle.json"],
    ["orbit", "--curve", DATA / "circle.json"],
    ["confine", "--curve", DATA / "ellipse.json", "--samples", 0],
    ["confine", "--curve", DATA / "ellipse.json", "--samples", 1000000000],
    ["confine", "--curve", DATA / "ellipse.json", "--scratch-index", 99],
    ["confine", "--curve", DATA / "ellipse.json", "--samples", 1],
    ["confine", "--curve", DATA / "ellipse.json", "--eps", "bogus"],
    ["confine", "--curve", DATA / "ellipse.json", "--eps", "1e-2,2e-2,3e-2"],
    ["confine", "--curve", DATA / "ellipse.json", "--eps", "inf,0.5,0.25"],
    ["confine", "--curve", DATA / "ellipse.json", "--eps", "1e-2,3e-3,1e-3"],
    ["confine", "--curve", DATA / "circle.json", "--eps", "1,nan,0.25"],
    ["orbit", "--real", "--depth", -3, "--curve", DATA / "ellipse.json"],
    ["orbit", "--depth", -1, "--curve", DATA / "circle.json"],
    ["form-check", "--curve", DATA / "ellipse.json", "--h", 0],
    ["form-check", "--curve", DATA / "ellipse.json", "--h", "1e-20"],
    ["form-check", "--curve", DATA / "ellipse.json", "--h", "1e-12"],
    ["form-check", "--curve", DATA / "ellipse.json", "--samples", 0],
    ["form-check", "--curve", DATA / "circle.json", "--samples", 1],
    ["scratch", "--curve", DATA / "circle.json"],
], ids=lambda argv: " ".join(str(a) for a in argv[:3]))
def test_every_refusal_prints_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 1
    lines = _single_error_line(capsys.readouterr().err)
    assert len(lines) == 1
    # a refused --eps, --depth or --h value is named in the error line
    assert all(flag in lines[0] for flag in ("--eps", "--depth", "--h") if flag in argv)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["orbit", "--depth", cli.MAX_ORBIT_NODES + 1, "--real", "--curve", DATA / "ellipse.json"],
    ["form-check", "--samples", sampling.MAX_TRIES + 1, "--curve", DATA / "quartic.json"],
    ["form-check", "--h", "1e-12", "--curve", DATA / "quartic.json"],
], ids=["orbit-real-depth", "form-check-samples", "form-check-h"])
def test_what_cannot_finish_is_refused_before_sampling(monkeypatch, tmp_path, capsys, argv):
    # the real trajectory has one node per step, each sampling try yields at
    # most one state, and a step below the rounding floor cannot pass
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing")

    for name in ("sample_real_state", "sample_phase_points"):
        monkeypatch.setattr(cli, name, no_sampling)
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 1
    lines = _single_error_line(capsys.readouterr().err)
    assert len(lines) == 1 and argv[1] in lines[0]  # the refused flag is named
    assert not out.exists()


def _curve_file(degree, **entry):
    coeffs = [{"i": 2, "j": 0, "k": 0, "re": "1"}, {"i": 0, "j": 2, "k": 0, "re": "4"},
              {"i": 0, "j": 0, "k": 2, "re": "-1"}]
    coeffs[0].update(entry)
    return json.dumps({"degree": degree, "coeffs": coeffs})


def _fermat_file(degree):
    return json.dumps({"degree": degree, "coeffs": [
        {"i": degree * (v == 0), "j": degree * (v == 1), "k": degree * (v == 2), "re": "1"} for v in range(3)]})


@pytest.mark.parametrize("text", [
    _curve_file(2, i=[2]),
    _curve_file(2, i=None),
    _curve_file(2, i=2.7),
    _curve_file(2, i="2"),
    _curve_file(2, i=True, j=1),
    _curve_file(True),
    _curve_file(2, re="1e400"),
    _curve_file(2, im="-1e400"),
    _curve_file(2, re="1/0"),
    _curve_file(2, re="1e10000000"),
    _fermat_file(200000),
    _fermat_file(cli.MAX_SPECTRAL_DEGREE + 1),
    _fermat_file(40),
], ids=["i-list", "i-null", "i-float", "i-string", "i-bool", "degree-bool", "re-overflow",
        "im-overflow", "re-zero-denominator", "re-exponent-1e10000000", "degree-200000", "degree-23", "degree-40"])
def test_a_malformed_curve_file_is_an_input_error(tmp_path, capsys, text):
    curve = tmp_path / "curve.json"
    curve.write_text(text)
    out = tmp_path / "out.json"
    started = time.monotonic()
    assert run(["genericity", "--curve", curve, "--out", out]) == 1
    assert time.monotonic() - started < 1
    assert len(_single_error_line(capsys.readouterr().err)) == 1
    assert not out.exists()


JSON_LEAVES = (st.none() | st.booleans() | st.integers(-(2**60), 2**60) | st.floats()
               | st.sampled_from([2**53 - 1, 2**53, -(2**53), 10**40]) | st.text())


def _stdlib_json(obj):
    """The reference bytes: integers of magnitude 2**53 or more as decimal
    strings, then json.dumps with indent 2 and sorted keys."""
    def convert(v):
        if isinstance(v, int) and not isinstance(v, bool) and abs(v) >= cli.JSON_INT_LIMIT:
            return str(v)
        if isinstance(v, dict):
            return {k: convert(x) for k, x in v.items()}
        return [convert(x) for x in v] if isinstance(v, (list, tuple)) else v
    return json.dumps(convert(obj), indent=2, sort_keys=True)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=4), max_leaves=20))
def test_json_writer_gives_the_stdlib_bytes(obj):
    assert cli._json(obj) == _stdlib_json(obj)


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "algbilliards":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    assert run(["spectral", "--d", 2]) == 0
    assert run(["spectral", "--d", 3, "--m-max", 5]) == 0
    assert len(built) <= 1


def test_a_census_mismatch_prints_one_error_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "enumerate_scratch_points", lambda curve: [])
    assert run(["scratch", "--curve", DATA / "ellipse.json", "--out", tmp_path / "s.json"]) == 2
    lines = _single_error_line(capsys.readouterr().err)
    assert len(lines) == 1 and "census mismatch" in lines[0]


def test_a_failed_certificate_is_named(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "verify_conjugation", lambda d: (False, {}))
    out = tmp_path / "spec.json"
    assert run(["spectral", "--d", 3, "--out", out]) == 2
    assert json.loads(out.read_text())["char_poly_verified"] is True
    lines = _single_error_line(capsys.readouterr().err)
    assert lines == ["error: failed certificate: conjugation_verified"]


def test_spectral_at_the_largest_accepted_degree(tmp_path):
    d = cli.MAX_SPECTRAL_DEGREE
    out = tmp_path / "spec.json"
    assert run(["spectral", "--d", d, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["char_poly_verified"] is True and data["conjugation_verified"] is True
    lo, hi = spectral.rho_bracket(d)
    assert lo < data["rho"] < hi


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.one_of(st.none(), st.integers(-3, 40).map(str), st.sampled_from(["2.5", "1e1", "x", ""])),
    m_max=st.one_of(st.none(), st.integers(-3, 250).map(str)),
    curve=st.sampled_from([None, "missing", "malformed", "circle", "ellipse", "cubic"]),
    seed=st.one_of(st.none(), st.integers(-(2**40), 2**40).map(str)),
)
def test_spectral_arguments_fuzz(tmp_path_factory, d, m_max, curve, seed):
    # every drawn value is refused or finishes well under a second: the degree
    # is capped by MAX_SPECTRAL_DEGREE and --m-max by MAX_SEQUENCE_INDEX
    work = tmp_path_factory.mktemp("fuzz")
    argv = ["spectral", "--out", work / "spec.json"]
    for flag, value in (("--d", d), ("--m-max", m_max), ("--seed", seed)):
        if value is not None:
            argv += [flag, value]
    if curve == "malformed":
        (work / "bad.json").write_text('{"degree": 2, "coeffs": [')
        argv += ["--curve", work / "bad.json"]
    elif curve is not None:
        argv += ["--curve", work / "none.json" if curve == "missing" else DATA / f"{curve}.json"]
    err = io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.monotonic() - started < 1
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1


def _product(*forms):
    out = {(0, 0, 0): 1}
    for form in forms:
        terms = {}
        for e1, c1 in out.items():
            for e2, c2 in form.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        out = terms
    return out


LINE = {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3}
# curves that reach the solver's degenerate and multiple-root paths from the command line
SPECIAL_CURVES = {
    "xy": (2, {(1, 1, 0): 1}),
    "double-line": (2, _product(LINE, LINE)),
    "isotropic-line": (2, _product({(1, 0, 0): -1j, (0, 1, 0): 1, (0, 0, 1): -1}, LINE)),
    "line-at-infinity": (2, _product({(0, 0, 1): 1}, LINE)),
    "cusp": (3, {(0, 2, 1): 1, (3, 0, 0): -1}),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["genericity", "scratch"]),
    curve=st.sampled_from([None, "missing", "malformed", "circle", "ellipse", "cubic", *SPECIAL_CURVES]),
    fmt=st.one_of(st.none(), st.sampled_from(["json", "csv", "xml", ""])),
    seed=st.one_of(st.none(), st.integers(-(2**40), 2**40).map(str), st.sampled_from(["x", "1.5"])),
)
def test_genericity_and_scratch_arguments_fuzz(tmp_path_factory, command, curve, fmt, seed):
    _run_fuzzed(tmp_path_factory.mktemp("fuzz"), command, curve, (("--format", fmt), ("--seed", seed)))


def _run_fuzzed(work, command, curve, options):
    """Run ``command`` on a named curve (a fixture, a special curve, a missing
    or a malformed file, or none) with the (flag, value) options whose value
    is not None: it exits 0, 1 or 2 with at most one error line and no
    traceback or RuntimeWarning.  Returns the exit code."""
    argv = [command, "--out", work / "out"]
    for flag, value in options:
        if value is True:
            argv.append(flag)
        elif value not in (None, False):
            argv += [flag, value]
    if curve in SPECIAL_CURVES:
        (work / "curve.json").write_text(curve_to_json(PlaneCurve.from_coeffs(*SPECIAL_CURVES[curve])))
        argv += ["--curve", work / "curve.json"]
    elif curve == "malformed":
        (work / "bad.json").write_text('{"degree": 2, "coeffs": [')
        argv += ["--curve", work / "bad.json"]
    elif curve is not None:
        argv += ["--curve", work / "none.json" if curve == "missing" else DATA / f"{curve}.json"]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1
    return code


# valid values are listed more often than invalid ones, so that most draws run
FUZZ_CURVES = [None, "missing", "malformed", "circle", *SPECIAL_CURVES, *["ellipse", "cubic"] * 4]
FUZZ_SEEDS = st.one_of(st.none(), st.integers(-(2**40), 2**40).map(str))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    curve=st.sampled_from(FUZZ_CURVES),
    samples=st.sampled_from([None, "1", "2", "2", "2", "0", "x"]),
    eps=st.sampled_from([None, None, None, "1e-2,5e-3,2.5e-3,1.25e-3", "1e-2,1e-3", "1e-2,nan,1e-4", "a,b"]),
    scratch_index=st.sampled_from([None, None, None, "0", "5", "-1", "99"]),
    seed=FUZZ_SEEDS,
)
def test_confine_arguments_fuzz(tmp_path_factory, curve, samples, eps, scratch_index, seed):
    # --samples is drawn small: each sample is a stack of confinement chains
    _run_fuzzed(tmp_path_factory.mktemp("fuzz"), "confine", curve, (
        ("--samples", samples), ("--eps", eps), ("--scratch-index", scratch_index), ("--seed", seed)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    curve=st.sampled_from(FUZZ_CURVES),
    depth=st.sampled_from([None, "0", "3", "3", "3", "40", str(cli.MAX_ORBIT_NODES + 1), "1000000000", "-1", "x"]),
    real=st.booleans(),
    seed=FUZZ_SEEDS,
)
def test_orbit_arguments_fuzz(tmp_path_factory, curve, depth, real, seed):
    # depth 40 is refused up front on the cubic (2^41 nodes) and runs 40 levels
    # on the ellipse; a depth above MAX_ORBIT_NODES is refused up front for the
    # tree and the real trajectory (one node per step) alike
    _run_fuzzed(tmp_path_factory.mktemp("fuzz"), "orbit", curve,
                (("--depth", depth), ("--real", real), ("--seed", seed)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    curve=st.sampled_from(FUZZ_CURVES),
    samples=st.sampled_from(["1", "2", "2", "2", "0", str(sampling.MAX_TRIES + 1), "x"]),
    h=st.sampled_from([None, None, "1e300", "1e10", "1e-300", "nan", "-1", "x"]),
    seed=FUZZ_SEEDS,
)
def test_form_check_arguments_fuzz(tmp_path_factory, curve, samples, h, seed):
    # --samples is drawn small (the default 100 takes seconds on the cubic); a
    # count above MAX_TRIES is refused up front.  A run that exits 0 measured
    # at least one residual; a step that throws every perturbed state past the
    # float range skips every job and exits 2
    work = tmp_path_factory.mktemp("fuzz")
    code = _run_fuzzed(work, "form-check", curve, (("--samples", samples), ("--h", h), ("--seed", seed)))
    assert code != 0 or len((work / "out").read_text().splitlines()) > 1


def _failing_report(*args, **kwargs):
    return SimpleNamespace(passed=lambda: False, to_dict=lambda: {})


@pytest.mark.parametrize("patches,argv", [
    ({}, ["genericity", "--curve", DATA / "circle.json"]),
    ({"check_invariance": lambda *a, **k: SimpleNamespace(
        residual_h=1.0, residual_h2=1.0, order_estimate=0.0)},
     ["form-check", "--curve", DATA / "ellipse.json", "--samples", 1]),
    ({"confinement_reports": lambda *a, **k: [_failing_report()]},
     ["confine", "--curve", DATA / "ellipse.json", "--samples", 1, "--scratch-index", 0]),
], ids=["genericity", "form-check", "confine"])
def test_a_failed_gate_prints_one_error_line(monkeypatch, tmp_path, capsys, patches, argv):
    for name, fake in patches.items():
        monkeypatch.setattr(cli, name, fake)
    assert run([*argv, "--out", tmp_path / "out"]) == 2
    assert len(_single_error_line(capsys.readouterr().err)) == 1
