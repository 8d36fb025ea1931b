"""Numerical verification that secant, reflection, and billiards preserve
the 2-form dx0 ^ dq0 + dx1 ^ dq1.

A local frame at a state (c, q) consists of a unit curve direction at c
(motion along the table, realized by a Newton-corrected step that stays on
the curve) and the rotation flow on the direction conic (exact).  The form
density in such a frame is the scalar a = x0' q0' + x1' q1'.  Invariance of
the form along a branch of a correspondence means

    a(image) * det(Jacobian of the branch map in the frames) = a(source),

and the check below estimates the Jacobian with central finite differences
at two step sizes, so the residual must vanish at second order in the step,
and gates on the residual of their Richardson extrapolant, which vanishes
at fourth order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve import DegenerateNewtonError, PlaneCurve, curve_point_near, tangent_frame
from .numerics import NonConvergenceError
from .phase import (
    PhasePoint,
    billiard_step,
    conic_log,
    phase_distance,
    reflect,
    rotate_direction,
    secant,
)

__all__ = [
    "LocalFrame",
    "InvarianceResult",
    "SymplecticError",
    "IsotropicFrameError",
    "BranchJumpError",
    "local_frame",
    "form_density",
    "check_invariance",
]

DEFAULT_STEP = 1e-4
# below this step the residual is rounding, which grows as h shrinks: at
# --samples 3 --seed 1 the least sensitive fixture, the cubic, reads an
# extrapolated residual of 1.65e-3 at h = 1e-11, over ten times the 1e-4 gate,
# so no smaller step can pass
MIN_STEP = 1e-11
BRANCH_JUMP_TOL = 0.1
# the errors the CLI maps to an exit code; check_invariance stores one as a job's value
_JOB_ERRORS = (ValueError, ArithmeticError, NonConvergenceError)


class SymplecticError(ValueError):
    pass


class IsotropicFrameError(SymplecticError):
    """No frame exists at an isotropic direction (the chart degenerates)."""


class BranchJumpError(SymplecticError):
    """Branch continuation moved farther than the jump guard allows."""


@dataclass(frozen=True)
class LocalFrame:
    base: PhasePoint
    curve_dir: tuple[complex, complex]   # unit tangent to the table at c
    newton_dir: tuple[complex, complex]  # transversal used to stay on the curve


def local_frame(curve: PlaneCurve, x: PhasePoint) -> LocalFrame:
    if x.c.is_at_infinity:
        raise SymplecticError("frame requires an affine base point")
    if x.q.is_isotropic:
        raise IsotropicFrameError("frame requires a non-isotropic direction")
    tau, nu = tangent_frame(curve, x.c)
    return LocalFrame(base=x, curve_dir=tau, newton_dir=nu)


def form_density(curve: PlaneCurve, frame: LocalFrame) -> complex:
    """a = x0' q0' + x1' q1' for the frame directions.

    The curve parametrization c(s) = c + s tau + mu(s) nu has c'(0) = tau
    exactly (mu'(0) = 0 because tau is the exact tangent); the conic
    parametrization q(t) = rotation_t(q) has q'(0) = (-q1, q0) in affine
    coordinates.
    """
    tau = frame.curve_dir
    q0, q1 = frame.base.q.affine()
    return tau[0] * (-q1) + tau[1] * q0


def _perturbed_state(curve: PlaneCurve, frame: LocalFrame, s: complex, t: complex) -> PhasePoint:
    c = frame.base.c
    if s != 0:
        try:
            c = curve_point_near(curve, c.affine(), frame.curve_dir, frame.newton_dir, s)
        except DegenerateNewtonError as exc:
            # a per-sample failure of the check, not an input error
            raise SymplecticError(str(exc)) from exc
    q = rotate_direction(frame.base.q, t) if t != 0 else frame.base.q
    return PhasePoint(c=c, q=q)


def _frame_coordinates(curve: PlaneCurve, frame: LocalFrame, y: PhasePoint) -> tuple[complex, complex]:
    """Coordinates of a nearby state in the frame charts at the frame base.

    The curve coordinate is the Hermitian projection of the affine
    displacement onto the frame direction (second-order accurate); the
    conic coordinate is the exact rotation angle.
    """
    bx0, bx1 = frame.base.c.affine()
    yx0, yx1 = y.c.affine()
    tau = frame.curve_dir
    sigma = (yx0 - bx0) * tau[0].conjugate() + (yx1 - bx1) * tau[1].conjugate()
    theta = conic_log(frame.base.q, y.q)
    return sigma, theta


def _pick(outcome, branch_index: int, anchor: PhasePoint | None = None) -> PhasePoint:
    """One image of a stored step outcome, raising the error stored instead:
    without an anchor the image at ``branch_index``, else the image nearest
    the anchor, under the jump guard."""
    if isinstance(outcome, Exception):
        raise outcome
    pts = [b.point for b in outcome.images]
    if not pts:
        raise SymplecticError("branch set is empty")
    if anchor is None:
        if branch_index >= len(pts):
            raise SymplecticError(f"branch index {branch_index} out of range")
        return pts[branch_index]
    dists = [phase_distance(p, anchor) for p in pts]
    best = min(range(len(pts)), key=lambda i: dists[i])
    if dists[best] > BRANCH_JUMP_TOL:
        raise BranchJumpError(f"nearest branch moved {dists[best]:.3g}; decrease the step")
    return pts[best]


@dataclass(frozen=True)
class InvarianceResult:
    op: str
    branch_index: int
    h: float
    residual_h: float
    residual_h2: float
    order_estimate: float
    density_source: complex
    density_image: complex
    residual_extrapolated: float


def _attempt(fn, *args):
    """fn(*args), or the error it raised, stored for the jobs that meet it."""
    try:
        return fn(*args)
    except _JOB_ERRORS as exc:
        return exc


def check_invariance(curve: PlaneCurve, x: PhasePoint, h: float = DEFAULT_STEP) -> dict:
    """Residuals of form invariance at x along every branch, at steps h and h/2.

    The jobs are keyed (op, branch_index): ("reflect", 0), then ("secant", b)
    and ("billiard", b) for b = 0..d-2.  Each value is the job's
    InvarianceResult, or the first _JOB_ERRORS error the job meets: in order
    x's frame, its branch image y, y's frame, a vanishing density at x, then
    per Jacobian column both images (a failed perturbed state included) and
    their frame coordinates.  x and its eight perturbed states are stepped
    once by each operation; secant and billiard jobs follow their branch to
    the image nearest y under the jump guard, reflect has one branch.

    The residual is |a(y) det J - a(x)| / |a(x)| with J the central
    finite-difference Jacobian of the branch map expressed in the local
    frames; exact invariance makes it O(h^2), so residual_h / residual_h2
    should sit near 4.  residual_extrapolated is the residual of the
    Richardson extrapolant J* = (4 J(h/2) - J(h)) / 3, whose truncation
    error is O(h^4), so it measures invariance rather than the step.
    """
    jobs = [("reflect", 0)] + [(op, b) for op in ("secant", "billiard") for b in range(curve.degree - 1)]
    frame_x = _attempt(local_frame, curve, x)
    if isinstance(frame_x, Exception):
        return dict.fromkeys(jobs, frame_x)
    # the Jacobian columns, s then t at h and at h/2, each stepping a + and a - state
    columns = [(step, ds, dt) for step in (h, h / 2) for ds, dt in ((step, 0), (0, step))]
    states = [x] + [_attempt(_perturbed_state, curve, frame_x, sign * ds, sign * dt)
                    for _, ds, dt in columns for sign in (1, -1)]
    outcomes = {
        op: [s if isinstance(s, Exception) else _attempt(step_fn, curve, s) for s in states]
        for op, step_fn in (("reflect", reflect), ("secant", secant), ("billiard", billiard_step))
    }

    def job(op: str, branch_index: int) -> InvarianceResult:
        stepped = iter(outcomes[op])
        y0 = _pick(next(stepped), branch_index)
        frame_y = local_frame(curve, y0)
        a_x = form_density(curve, frame_x)
        a_y = form_density(curve, frame_y)
        if abs(a_x) < 1e-12:
            raise SymplecticError("form density vanishes at the source point")
        anchor = None if op == "reflect" else y0
        cols = []
        for step, _, _ in columns:
            plus = _pick(next(stepped), branch_index, anchor)
            minus = _pick(next(stepped), branch_index, anchor)
            sp, tp = _frame_coordinates(curve, frame_y, plus)
            sm, tm = _frame_coordinates(curve, frame_y, minus)
            cols.append(((sp - sm) / (2 * step), (tp - tm) / (2 * step)))
        j_h, j_h2 = cols[:2], cols[2:]

        def residual(cols) -> float:
            det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
            return abs(a_y * det - a_x) / abs(a_x)

        res_h, res_h2 = residual(j_h), residual(j_h2)
        res_x = residual([[(4 * b - a) / 3 for a, b in zip(col_h, col_h2)] for col_h, col_h2 in zip(j_h, j_h2)])
        order = math.log2(res_h / res_h2) if res_h2 > 0 and res_h > 0 else float("nan")
        return InvarianceResult(op=op, branch_index=branch_index, h=h, residual_h=res_h, residual_h2=res_h2,
                                order_estimate=order, density_source=a_x, density_image=a_y,
                                residual_extrapolated=res_x)

    return {key: _attempt(job, *key) for key in jobs}
