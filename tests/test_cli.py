"""Tests for the command-line interface: exit codes, formats, determinism."""

import json
import pathlib
import time
from types import SimpleNamespace

import pytest

from algbilliards import blowup, cli, sampling, spectral
from algbilliards.cli import main
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


def test_orbit_real_escape_is_graceful(tmp_path):
    # the cubic has an unbounded real branch; a ray that never returns ends
    # the trajectory without failing the command
    out = tmp_path / "esc.jsonl"
    code = run(["orbit", "--curve", DATA / "cubic.json", "--depth", 500,
                "--seed", 4, "--real", "--out", out])
    assert code == 0
    assert 1 <= len(out.read_text().splitlines()) <= 500


def test_confine_ellipse_all_pass(tmp_path):
    out = tmp_path / "confine.json"
    code = run(["confine", "--curve", DATA / "ellipse.json", "--seed", 1,
                "--samples", 3, "--out", out])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["reports"]) == 8
    assert data["all_passed"] is True


def test_confine_draws_and_steps_only_what_it_uses(monkeypatch, tmp_path):
    # 8 experiments, one stacked first step and one stacked second step
    # each; the 4 at infinity draw their 3 starts from the stream lazily
    steps, drawn = [], []
    billiard_steps = blowup.billiard_steps

    def counted_steps(curve, xs):
        steps.append(len(xs))
        return billiard_steps(curve, xs)

    def counted_stream(curve, seed):
        for x in sampling.phase_point_stream(curve, seed):
            drawn.append(seed)
            yield x

    monkeypatch.setattr(blowup, "billiard_steps", counted_steps)
    monkeypatch.setattr(cli, "phase_point_stream", counted_stream)
    assert run(["confine", "--curve", DATA / "ellipse.json", "--seed", 1,
                "--samples", 3, "--out", tmp_path / "confine.json"]) == 0
    assert len(steps) == 16
    assert steps[:8:2] == [3 * blowup.EPS_COUNT] * 4
    assert len(drawn) == 12


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
    for h in ("0", "-1e-4", "nan", "inf"):
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
    ["confine", "--curve", DATA / "ellipse.json", "--scratch-index", 99],
    ["confine", "--curve", DATA / "ellipse.json", "--samples", 1],
    ["confine", "--curve", DATA / "ellipse.json", "--eps", "bogus"],
    ["confine", "--curve", DATA / "ellipse.json", "--eps", "1e-2,2e-2,3e-2"],
    ["confine", "--curve", DATA / "ellipse.json", "--eps", "inf,0.5,0.25"],
    ["confine", "--curve", DATA / "circle.json", "--eps", "1,nan,0.25"],
    ["orbit", "--real", "--depth", -3, "--curve", DATA / "ellipse.json"],
    ["orbit", "--depth", -1, "--curve", DATA / "circle.json"],
    ["form-check", "--curve", DATA / "ellipse.json", "--h", 0],
    ["form-check", "--curve", DATA / "ellipse.json", "--samples", 0],
    ["form-check", "--curve", DATA / "circle.json", "--samples", 1],
    ["scratch", "--curve", DATA / "circle.json"],
], ids=lambda argv: " ".join(str(a) for a in argv[:3]))
def test_every_refusal_prints_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 1
    lines = _single_error_line(capsys.readouterr().err)
    assert len(lines) == 1
    # a refused --eps or --depth value is named in the error line
    assert all(flag in lines[0] for flag in ("--eps", "--depth") if flag in argv)
    assert not out.exists()


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


def _failing_report(*args, **kwargs):
    return SimpleNamespace(passed=lambda: False, to_dict=lambda: {})


@pytest.mark.parametrize("patches,argv", [
    ({}, ["genericity", "--curve", DATA / "circle.json"]),
    ({"check_invariance": lambda *a, **k: SimpleNamespace(
        residual_h=1.0, residual_h2=1.0, order_estimate=0.0)},
     ["form-check", "--curve", DATA / "ellipse.json", "--samples", 1]),
    ({"confinement_experiment_infinity_multi": _failing_report},
     ["confine", "--curve", DATA / "ellipse.json", "--samples", 1, "--scratch-index", 0]),
], ids=["genericity", "form-check", "confine"])
def test_a_failed_gate_prints_one_error_line(monkeypatch, tmp_path, capsys, patches, argv):
    for name, fake in patches.items():
        monkeypatch.setattr(cli, name, fake)
    assert run([*argv, "--out", tmp_path / "out"]) == 2
    assert len(_single_error_line(capsys.readouterr().err)) == 1
