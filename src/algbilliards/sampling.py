"""Deterministic sampling of well-conditioned phase-space states.

Sampling is fully determined by the seed: identical (curve, count, seed)
always return identical states.  Points are produced by intersecting random
complex lines with the curve and pairing them with rotated directions, then
rejecting configurations too close to scratch points, to the infinity line,
or with degenerate form density, so that downstream finite-difference and
residual checks are well conditioned.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from itertools import islice

from .curve import CurveError, PlaneCurve, on_curve_residual, tangent_at
from .numerics import NonConvergenceError
from .numerics import find_roots  # noqa: F401 -- unused; bench/bench_trace.py wraps it
from .phase import (
    PhaseError,
    PhasePoint,
    direction_point,
    line_intersections,
    line_point,
    reflect_scratch_proximity,
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
        if abs(c.coords[2]) < 0.05 or max(abs(z) for z in c.coords) > 20:
            continue
        x = PhasePoint(c=c, q=q)
        if secant_scratch_proximity(curve, x) < SCRATCH_MARGIN:
            continue
        if reflect_scratch_proximity(curve, x) < SCRATCH_MARGIN:
            continue
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
    """A real affine state on a real curve, suitable for the classical map."""
    rng = random.Random(seed)
    for _ in range(MAX_REAL_TRIES):
        theta = rng.uniform(0, 2 * math.pi)
        q = rotate_direction(direction_point(1, 0, 1), theta)
        anchor = (rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0)
        direction = (math.cos(theta), math.sin(theta), 0.0)
        try:
            roots, _ = line_intersections(curve, anchor, direction)
        except (PhaseError, NonConvergenceError):
            continue
        real_roots = [r.value.real for r in roots if abs(r.value.imag) < 1e-9 * (1 + abs(r.value))]
        if not real_roots:
            continue
        c = line_point(anchor, direction, real_roots[0])
        if max(abs(z) for z in c.coords) > 20:
            continue
        x = PhasePoint(c=c, q=q)
        if secant_scratch_proximity(curve, x) < SCRATCH_MARGIN:
            continue
        if on_curve_residual(curve, c) > 1e-9:
            continue
        return x
    raise SamplingError(
        f"could not sample a real state on the curve in {MAX_REAL_TRIES} tries"
    )
