"""A one-job reference for the invariance check: one branch at a time.

This is ``symplectic.check_invariance`` as it stood before it returned every
job of a sample at once: each job steps the source and its eight perturbed
states again, through an op dispatch, and raises the first error it meets.
Tests compare every job of the sample-wide check with it, result and error
text alike.
"""

import math

from algbilliards.phase import billiard_step, phase_distance, reflect, secant
from algbilliards.symplectic import (
    BRANCH_JUMP_TOL,
    BranchJumpError,
    InvarianceResult,
    SymplecticError,
    _frame_coordinates,
    _perturbed_state,
    form_density,
    local_frame,
)


def reference_branch_map(curve, x, op, branch_index, anchor=None):
    if op == "reflect":
        return reflect(curve, x).images[0].point
    bs = secant(curve, x) if op == "secant" else billiard_step(curve, x)
    pts = [b.point for b in bs.images]
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


def reference_check_invariance(curve, x, op, h, branch_index=0):
    frame_x = local_frame(curve, x)
    y0 = reference_branch_map(curve, x, op, branch_index)
    frame_y = local_frame(curve, y0)
    a_x = form_density(curve, frame_x)
    a_y = form_density(curve, frame_y)
    if abs(a_x) < 1e-12:
        raise SymplecticError("form density vanishes at the source point")

    def jacobian(step):
        cols = []
        for ds, dt in ((step, 0), (0, step)):
            plus = reference_branch_map(curve, _perturbed_state(curve, frame_x, ds, dt), op, branch_index, y0)
            minus = reference_branch_map(curve, _perturbed_state(curve, frame_x, -ds, -dt), op, branch_index, y0)
            sp, tp = _frame_coordinates(curve, frame_y, plus)
            sm, tm = _frame_coordinates(curve, frame_y, minus)
            cols.append(((sp - sm) / (2 * step), (tp - tm) / (2 * step)))
        return cols

    def residual(cols):
        det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
        return abs(a_y * det - a_x) / abs(a_x)

    j_h, j_h2 = jacobian(h), jacobian(h / 2)
    res_h, res_h2 = residual(j_h), residual(j_h2)
    res_x = residual([[(4 * b - a) / 3 for a, b in zip(col_h, col_h2)] for col_h, col_h2 in zip(j_h, j_h2)])
    order = math.log2(res_h / res_h2) if res_h2 > 0 and res_h > 0 else float("nan")
    return InvarianceResult(op, branch_index, h, res_h, res_h2, order, a_x, a_y, res_x)
