"""Tests for the invariant-form machinery."""

import cmath
import csv
import math

import pytest

from algbilliards import cli, phase, symplectic
from algbilliards.curve import proj_point, tangent_at
from algbilliards.phase import PhasePoint, direction_point, phase_point, secant
from algbilliards.sampling import sample_phase_points
from algbilliards.symplectic import (
    IsotropicFrameError,
    LocalFrame,
    SymplecticError,
    _perturbed_state,
    check_invariance,
    form_density,
    local_frame,
)

from conftest import DATA
from invariance_reference import reference_check_invariance

S2 = math.sqrt(2)


def test_form_density_nonzero_at_generic_state(ellipse):
    # at (2, 0) the tangent is vertical; a horizontal direction is transversal
    x = phase_point(ellipse, proj_point(2, 0, 1), direction_point(1, 0, 1))
    frame = local_frame(ellipse, x)
    a = form_density(ellipse, frame)
    # a = tau0 * (-q1) + tau1 * q0 with tau = (0, +-1), q = (1, 0)
    assert abs(abs(a) - 1) < 1e-12


def test_form_density_zero_when_direction_is_tangent(ellipse):
    # q parallel to the tangent direction is an honest zero of the form
    x = phase_point(ellipse, proj_point(2, 0, 1), direction_point(0, 1, 1))
    frame = local_frame(ellipse, x)
    assert abs(form_density(ellipse, frame)) < 1e-12


def test_form_density_sign_flip_invariance(ellipse):
    # flipping both frame directions leaves the density of the check invariant:
    # a rescales by the product of the flips, and so does det J
    x = phase_point(ellipse, proj_point(6 / 5, 4 / 5, 1), direction_point(0, 1, 1))
    frame = local_frame(ellipse, x)
    a = form_density(ellipse, frame)
    flipped = type(frame)(
        base=frame.base,
        curve_dir=(-frame.curve_dir[0], -frame.curve_dir[1]),
        newton_dir=frame.newton_dir,
    )
    a2 = form_density(ellipse, flipped)
    assert abs(a2 + a) < 1e-14  # linear in the curve direction


def test_isotropic_frame_rejected(ellipse):
    x = phase_point(ellipse, proj_point(0, 1, 1), direction_point(1, 1j, 0))
    with pytest.raises(IsotropicFrameError):
        local_frame(ellipse, x)


def test_degenerate_curve_move_is_a_symplectic_error(ellipse):
    # from (2, 0) along (1, 0) the gradient stays horizontal and pairs to
    # zero with the transversal (0, 1): form-check must skip the sample
    x = phase_point(ellipse, proj_point(2, 0, 1), direction_point(0, 1, 1))
    frame = LocalFrame(base=x, curve_dir=(1, 0), newton_dir=(0, 1))
    with pytest.raises(SymplecticError):
        _perturbed_state(ellipse, frame, 0.1, 0)


def test_reflect_invariance_spec_point(ellipse):
    x = phase_point(ellipse, proj_point(0, 1, 1), direction_point(-S2 / 2, S2 / 2, 1))
    r = check_invariance(ellipse, x, h=1e-4)["reflect", 0]
    assert r.residual_h < 1e-6


def test_billiard_invariance_spec_point(ellipse):
    x = phase_point(ellipse, proj_point(2, 0, 1), direction_point(-S2 / 2, S2 / 2, 1))
    r = check_invariance(ellipse, x, h=1e-4)["billiard", 0]
    assert r.residual_h < 1e-5


def test_cubic_both_billiard_branches(cubic):
    x = sample_phase_points(cubic, 1, seed=7)[0]
    jobs = check_invariance(cubic, x)
    for branch in (0, 1):
        assert jobs["billiard", branch].residual_h < 1e-5


def test_invariance_random_batch_orders(cubic):
    # residuals stay under tolerance and, where observable above the
    # finite-difference noise floor, shrink at second order
    states = sample_phase_points(cubic, 12, seed=42)
    measured = 0
    for x in states:
        for key, r in check_invariance(cubic, x).items():
            assert r.residual_h < 1e-4 and r.residual_h2 < 1e-4
            if r.residual_h2 > 1e-8:
                measured += 1
                assert 1.8 < r.order_estimate < 2.2, (key, r)
    assert measured >= 3


@pytest.mark.parametrize("name, seed", [("ellipse", 13), ("cubic", 0), ("quartic", 3), ("sextic", 3)])
def test_form_check_gates_on_the_extrapolated_jacobian(request, tmp_path, name, seed):
    # at these seeds the plain residual of one J reaches 5.1e-4, 8.6e-3, 1.2e-4
    # and 1.8e-3, its O(h^2) truncation term; the gated J* residual stays far below
    out = tmp_path / "form.csv"
    argv = ["form-check", "--curve", str(DATA / f"{name}.json"), "--samples", "40", "--seed", str(seed)]
    assert cli.main([*argv, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert max(float(r["residual_h"]) for r in rows) > 1e-4
    assert max(float(r["residual_extrapolated"]) for r in rows) < 1e-6


def test_the_extrapolated_gate_still_catches_a_gross_error(monkeypatch, tmp_path, ellipse):
    # a conic frame coordinate scaled by 1.001 is a Jacobian 1e-3 off at every
    # step, which extrapolation cannot remove: the residual reads 1e-3
    frame_coordinates = symplectic._frame_coordinates
    monkeypatch.setattr(symplectic, "_frame_coordinates",
                        lambda *a: (frame_coordinates(*a)[0], frame_coordinates(*a)[1] * 1.001))
    x = sample_phase_points(ellipse, 1, seed=1)[0]
    assert abs(check_invariance(ellipse, x)["reflect", 0].residual_extrapolated - 1e-3) < 1e-5
    argv = ["form-check", "--curve", str(DATA / "ellipse.json"), "--samples", "2", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2


def _outcome(value):
    """A job's result by repr, or its error by type and text."""
    return (type(value), str(value)) if isinstance(value, Exception) else repr(value)


def _tangent_line_states(curve, x):
    """x's point with its tangent direction, whose density vanishes, and the
    states of the line's other points with that direction; on the quartic and
    the sextic one of their secants has a double image, so a branch index is
    out of range."""
    t0, t1 = tangent_at(curve, x.c).tangent
    on_line = PhasePoint(x.c, direction_point(t0, t1, cmath.sqrt(t0 * t0 + t1 * t1)))
    return [on_line] + [PhasePoint(b.point.c, on_line.q) for b in secant(curve, on_line).images]


@pytest.mark.parametrize("h", [1e-4, 0.05, 0.3, 1e10, 1e300])
@pytest.mark.parametrize("name", ["ellipse", "cubic", "quartic", "sextic"])
def test_every_job_matches_the_one_job_reference(request, name, h):
    # 0.05 and 0.3 run the branch-jump guard; 1e10 throws perturbed states to
    # infinity and empties branch sets; at 1e300 the Newton correction fails
    curve = request.getfixturevalue(name)
    states = sample_phase_points(curve, 10, seed=5)
    for x in states + _tangent_line_states(curve, states[0]):
        for (op, branch), value in check_invariance(curve, x, h).items():
            try:
                expected = reference_check_invariance(curve, x, op, h, branch)
            except Exception as exc:
                expected = exc
            assert _outcome(value) == _outcome(expected), (op, branch)


def test_form_check_steps_each_state_once(monkeypatch, tmp_path):
    # x and its eight perturbed states, each through one secant and one
    # billiard step (itself a secant and a reflection), on every degree
    calls = {"_secant_rows": 0, "_step_rows": 0}
    for name in calls:
        def counted(*args, _step=getattr(phase, name), _name=name):
            calls[_name] += 1
            return _step(*args)
        monkeypatch.setattr(phase, name, counted)
    argv = ["form-check", "--curve", str(DATA / "quartic.json"), "--samples", "2", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert calls == {"_secant_rows": 36, "_step_rows": 18}
