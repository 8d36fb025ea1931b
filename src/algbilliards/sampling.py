"""Deterministic sampling of well-conditioned phase-space states.

Sampling is fully determined by the seed: identical (curve, count, seed)
always return identical states.  Points are produced by intersecting random
complex lines with the curve and pairing them with rotated directions.  A
state is refused when its base point lies within SCRATCH_MARGIN of the line
at infinity, is off the curve, or has a degenerate form density.  That
margin keeps it off the secant's scratch points, and rotation angles of
imaginary part at most 0.6 keep it off the reflection's, so that downstream
finite-difference and residual checks are well conditioned.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from itertools import islice

import numpy as np

from .curve import CurveError, PlaneCurve, on_curve_residual, tangent_at
from .numerics import NonConvergenceError, root_rows
from .numerics import find_roots  # noqa: F401 -- unused; bench/bench_trace.py wraps it
from .phase import (
    PhaseError,
    PhasePoint,
    _line_roots,
    direction_point,
    line_intersections,
    line_point,
    rotate_direction,
    secant_scratch_proximity,
)

__all__ = [
    "phase_point_stream",
    "sample_phase_points",
    "sample_curve_points",
    "sample_real_state",
    "SamplingError",
]

SCRATCH_MARGIN = 5e-2
MAX_TRIES = 100000
MAX_REAL_TRIES = 4000


class SamplingError(ValueError):
    """No acceptable state was found within the try budget; the curve offers too few."""


def phase_point_stream(curve: PlaneCurve, seed: int) -> Iterator[PhasePoint]:
    """The seeded stream of accepted states, drawn lazily; it ends after
    MAX_TRIES tries."""
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        theta = rng.uniform(0, 2 * math.pi) + 1j * rng.uniform(-0.6, 0.6)
        q = rotate_direction(direction_point(1, 0, 1), theta)
        anchor = (
            rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1),
            rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1),
            1.0,
        )
        direction = (
            rng.uniform(-1, 1) + 1j * rng.uniform(-0.5, 0.5),
            rng.uniform(-1, 1) + 1j * rng.uniform(-0.5, 0.5),
            0.0,
        )
        try:
            roots, _ = line_intersections(curve, anchor, direction)
        except (PhaseError, NonConvergenceError):
            continue
        if not roots:
            continue
        c = line_point(anchor, direction, roots[rng.randrange(len(roots))].value)
        # |c2| is the secant's scratch proximity here; |q2| >= 1 / cosh 0.6 > 0.84
        # bounds the reflection's
        if abs(c.coords[2]) < SCRATCH_MARGIN:
            continue
        x = PhasePoint(c=c, q=q)
        if on_curve_residual(curve, c) > 1e-9:
            continue
        # form density tau x q must be nondegenerate for frame-based checks
        q0, q1 = x.q.affine()
        try:
            td = tangent_at(curve, c)
        except CurveError:
            continue
        t0, t1 = td.tangent
        tn = math.sqrt(abs(t0) ** 2 + abs(t1) ** 2)
        density = abs((t0 / tn) * (-q1) + (t1 / tn) * q0)
        if not (1e-3 < density < 1e3):
            continue
        yield x


def sample_phase_points(curve: PlaneCurve, count: int, seed: int) -> list[PhasePoint]:
    """The first ``count`` states of the seeded stream."""
    out = list(islice(phase_point_stream(curve, seed), count))
    if len(out) < count:
        raise SamplingError(
            f"sampling found {len(out)} of {count} generic states in {MAX_TRIES} tries"
        )
    return out


def sample_curve_points(curve: PlaneCurve, count: int, seed: int) -> list:
    """Affine, moderately sized points on the curve (for confinement starts)."""
    return [x.c for x in sample_phase_points(curve, count, seed)]


def sample_real_state(curve: PlaneCurve, seed: int) -> PhasePoint:
    """A real affine state on a real curve, suitable for the classical map.

    The tries are those of a one-try loop, in order, and the first that
    passes is returned; since a try's draws do not depend on earlier
    results, they are drawn and their lines solved in blocks of 1, 2, 4, ...
    tries, so a curve without real points is refused in a few stacked calls.
    """
    rng = random.Random(seed)
    tried, block = 0, 1
    while tried < MAX_REAL_TRIES:
        block = min(block, MAX_REAL_TRIES - tried)
        draws = [(rng.uniform(0, 2 * math.pi), rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(block)]
        anchors = [(x0, x1, 1.0) for _, x0, x1 in draws]
        directions = [(math.cos(theta), math.sin(theta), 0.0) for theta, _, _ in draws]
        for (theta, _, _), anchor, direction, t in zip(
            draws, anchors, directions, _least_real_roots(curve, anchors, directions)
        ):
            if t is None:
                continue
            c = line_point(anchor, direction, t)
            x = PhasePoint(c=c, q=rotate_direction(direction_point(1, 0, 1), theta))
            if secant_scratch_proximity(curve, x) < SCRATCH_MARGIN:
                continue
            if on_curve_residual(curve, c) > 1e-9:
                continue
            return x
        tried, block = tried + block, 2 * block
    raise SamplingError(
        f"could not sample a real state on the curve in {MAX_REAL_TRIES} tries"
    )


def _least_real_roots(curve: PlaneCurve, anchors, directions) -> list:
    """For each line anchor + t * direction, the real part of its least real
    intersection in ``find_roots`` order, or None when it has none or
    ``line_intersections`` refuses it.

    All lines are restricted in one ``restrict_to_lines`` call and solved in
    one ``root_rows`` call, each row made monic by Python complex division as
    ``find_roots`` does, so every value is bitwise that of
    ``line_intersections``.  Rows that fail a gate of ``_line_roots`` (a line
    in the curve or a degree drop) are resolved by it."""
    d = curve.degree
    coeffs = curve.restrict_to_lines(anchors, directions)
    mag = np.abs(coeffs)
    top = mag.max(axis=1)
    ok = (top > 1e-12) & (mag[:, -1] > 1e-9 * top)
    rows = coeffs.tolist()
    monic = np.array([[c / row[-1] for c in row[:-1]] for row, good in zip(rows, ok) if good], dtype=complex)
    try:
        values, mult = root_rows(monic.reshape(-1, d))
    except NonConvergenceError:  # the stack failed as a whole: each row alone
        ok[:] = False
        values = mult = np.empty((0, d))
    solved = iter(zip(values.tolist(), mult.tolist()))
    out = []
    for row, good in zip(rows, ok):
        if good:
            roots = [v for v, m in zip(*next(solved)) if m]
        else:
            try:
                roots = [r.value for r in _line_roots(row, d, 0)[0]]
            except (PhaseError, NonConvergenceError):
                out.append(None)
                continue
        real = [(v.real, v.imag) for v in roots if abs(v.imag) < 1e-9 * (1 + abs(v))]
        out.append(min(real)[0] if real else None)
    return out
