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

from .curve import SINGULAR_GRADIENT_TOL, PlaneCurve, normalize_pair, on_curve_residual
from .numerics import find_roots  # noqa: F401 -- unused; bench/bench_trace.py wraps it
from .phase import (
    PhasePoint,
    _line_rows,
    direction_point,
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
FIRST_BLOCK, MAX_BLOCK = 8, 256  # tries per stacked solve of the stream


class SamplingError(ValueError):
    """No acceptable state was found within the try budget; the curve offers too few."""


def phase_point_stream(curve: PlaneCurve, seed: int) -> Iterator[PhasePoint]:
    """The seeded stream of accepted states, drawn lazily; it ends after
    MAX_TRIES tries.

    The tries are those of a one-try loop, in order.  A try draws its line,
    then picks one of the line's roots, so tries are drawn in blocks of 8,
    16, 32, ... that assume the root count of the last try that had roots
    (d at first), and each block is solved in one ``_line_rows`` call and
    gated in one stacked form evaluation per gate.  From the first try whose
    count differs, or that was refused, the generator is set back to that
    try's pick and the rest of the block is drawn again, in a new block of 8.
    """
    rng = random.Random(seed)
    count, tried, block = curve.degree, 0, FIRST_BLOCK
    while tried < MAX_TRIES:
        state = rng.getstate()
        tries = [(*_draw_line(rng), rng.randrange(count)) for _ in range(min(block, MAX_TRIES - tried))]
        solved = _line_rows(curve, [t[1] for t in tries], [t[2] for t in tries])
        picked, block = [], min(2 * block, MAX_BLOCK)
        for k, ((theta, anchor, direction, pick), line) in enumerate(zip(tries, solved)):
            roots = line[0] if isinstance(line, tuple) else []
            if roots and len(roots) == count:
                picked.append((theta, line_point(anchor, direction, roots[pick].value)))
                continue
            rng.setstate(state)  # replay the tries before this one, then this try's line
            for _ in range(k):
                _draw_line(rng)
                rng.randrange(count)
            _draw_line(rng)
            if roots:
                count = len(roots)
                picked.append((theta, line_point(anchor, direction, roots[rng.randrange(count)].value)))
            tries, block = tries[:k + 1], FIRST_BLOCK
            break
        tried += len(tries)
        yield from _accepted(curve, picked)


def _draw_line(rng: random.Random) -> tuple:
    """One try's rotation angle, anchor and direction."""
    theta = rng.uniform(0, 2 * math.pi) + 1j * rng.uniform(-0.6, 0.6)
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
    return theta, anchor, direction


def _accepted(curve: PlaneCurve, picked) -> Iterator[PhasePoint]:
    """The states, built lazily, of the picked (theta, base point) pairs
    that pass the gates, in order: |c2| is the secant's scratch proximity
    and must reach SCRATCH_MARGIN (|q2| >= 1 / cosh 0.6 > 0.84 bounds the
    reflection's), the residual |F(c)| must be at most 1e-9, c must pass
    ``tangent_at``'s smoothness rules, and the form density tau x q must be
    nondegenerate for frame-based checks.  The residuals and the gradients
    are each one stacked form evaluation, whose rows are bitwise
    ``form_value``'s and ``gradient``'s."""
    picked = [(theta, c) for theta, c in picked if not abs(c.coords[2]) < SCRATCH_MARGIN]
    values = curve.form_values([c.coords for _, c in picked]).tolist()
    picked = [(theta, c) for (theta, c), f in zip(picked, values) if not abs(f) > 1e-9]
    grads = curve.form_values([c.coords for _, c in picked], grad=True)[:, 1:].tolist()
    for (theta, c), (g0, g1, g2) in zip(picked, grads):
        if math.hypot(abs(g0), abs(g1), abs(g2)) < SINGULAR_GRADIENT_TOL or max(abs(g0), abs(g1)) < SINGULAR_GRADIENT_TOL:
            continue
        t0, t1 = normalize_pair(g1, -g0)
        x = PhasePoint(c=c, q=rotate_direction(direction_point(1, 0, 1), theta))
        q0, q1 = x.q.affine()
        tn = math.sqrt(abs(t0) ** 2 + abs(t1) ** 2)
        density = abs((t0 / tn) * (-q1) + (t1 / tn) * q0)
        if 1e-3 < density < 1e3:
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
        for (theta, _, _), anchor, direction, line in zip(draws, anchors, directions,
                                                          _line_rows(curve, anchors, directions)):
            roots = line[0] if isinstance(line, tuple) else []
            real = [r.value.real for r in roots if abs(r.value.imag) < 1e-9 * (1 + abs(r.value))]
            if not real:
                continue
            c = line_point(anchor, direction, real[0])
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
