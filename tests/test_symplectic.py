"""Tests for the invariant-form machinery."""

import math

import pytest

from algbilliards.curve import proj_point
from algbilliards.phase import direction_point, phase_point
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

S2 = math.sqrt(2)


def test_form_density_nonzero_at_generic_state(ellipse):
    # at (2, 0) the tangent is vertical; a horizontal direction is transversal
    x = phase_point(ellipse, proj_point(2, 0, 1), direction_point(1, 0, 1))
    frame = local_frame(ellipse, x)
    a = form_density(ellipse, frame).value
    # a = tau0 * (-q1) + tau1 * q0 with tau = (0, +-1), q = (1, 0)
    assert abs(abs(a) - 1) < 1e-12


def test_form_density_zero_when_direction_is_tangent(ellipse):
    # q parallel to the tangent direction is an honest zero of the form
    x = phase_point(ellipse, proj_point(2, 0, 1), direction_point(0, 1, 1))
    frame = local_frame(ellipse, x)
    assert abs(form_density(ellipse, frame).value) < 1e-12


def test_form_density_sign_flip_invariance(ellipse):
    # flipping both frame directions leaves the density of the check invariant:
    # a rescales by the product of the flips, and so does det J
    x = phase_point(ellipse, proj_point(6 / 5, 4 / 5, 1), direction_point(0, 1, 1))
    frame = local_frame(ellipse, x)
    a = form_density(ellipse, frame).value
    flipped = type(frame)(
        base=frame.base,
        curve_dir=(-frame.curve_dir[0], -frame.curve_dir[1]),
        newton_dir=frame.newton_dir,
    )
    a2 = form_density(ellipse, flipped).value
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
    r = check_invariance(ellipse, x, "reflect", h=1e-4)
    assert r.residual_h < 1e-6


def test_billiard_invariance_spec_point(ellipse):
    x = phase_point(ellipse, proj_point(2, 0, 1), direction_point(-S2 / 2, S2 / 2, 1))
    r = check_invariance(ellipse, x, "billiard", h=1e-4)
    assert r.residual_h < 1e-5


def test_cubic_both_billiard_branches(cubic):
    x = sample_phase_points(cubic, 1, seed=7)[0]
    for branch in (0, 1):
        r = check_invariance(cubic, x, "billiard", branch_index=branch)
        assert r.residual_h < 1e-5


def test_invariance_random_batch_orders(cubic):
    # residuals stay under tolerance and, where observable above the
    # finite-difference noise floor, shrink at second order
    states = sample_phase_points(cubic, 12, seed=42)
    measured = 0
    for x in states:
        for op in ("secant", "reflect", "billiard"):
            r = check_invariance(cubic, x, op)
            assert r.residual_h < 1e-4 and r.residual_h2 < 1e-4
            if r.residual_h2 > 1e-8:
                measured += 1
                assert 1.8 < r.order_estimate < 2.2, (op, r)
    assert measured >= 3
