"""Tests for the seeded sampling stream and the real sampler."""

import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from algbilliards import sampling
from algbilliards.curve import curve_from_affine, on_curve_residual
from algbilliards.numerics import NonConvergenceError
from algbilliards.phase import (
    PhaseError,
    PhasePoint,
    direction_point,
    line_intersections,
    line_point,
    phase_point_json,
    rotate_direction,
    secant_scratch_proximity,
)
from algbilliards.sampling import phase_point_stream, sample_phase_points, sample_real_state


def _json(states):
    return [phase_point_json(x) for x in states]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", ["ellipse", "cubic", "quartic"])
def test_a_shorter_sample_is_a_prefix_of_a_longer_one(request, name, seed):
    # confine draws its starts lazily from the stream; its output stays the
    # same only because every sample is a prefix of the one stream
    curve = request.getfixturevalue(name)
    longest = _json(sample_phase_points(curve, 6, seed))
    assert len(longest) == 6
    for k in range(6):
        assert _json(sample_phase_points(curve, k, seed)) == longest[:k]
    assert _json(islice(phase_point_stream(curve, seed), 6)) == longest


def _real_state_one_try_at_a_time(curve, seed):
    """The real sampler as one line_intersections call per try: the reference
    that the blocked sampler must reproduce bit for bit (None where it refuses)."""
    rng = random.Random(seed)
    for _ in range(sampling.MAX_REAL_TRIES):
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
        x = PhasePoint(c=line_point(anchor, direction, real_roots[0]), q=q)
        if secant_scratch_proximity(curve, x) < sampling.SCRATCH_MARGIN or on_curve_residual(curve, x.c) > 1e-9:
            continue
        return x
    return None


# a circle of radius 1/20: most random lines miss it, so the accepted try
# lies in a block of several
SMALL_CIRCLE = curve_from_affine(2, {(2, 0): 1, (0, 2): 1, (0, 0): Fraction(-1, 400)})


@pytest.mark.parametrize("name, seeds", [
    ("ellipse", range(3)), ("cubic", range(3)), ("small_circle", range(6)), ("quartic", [1]),
])
def test_the_blocked_real_sampler_takes_the_same_try(request, name, seeds):
    curve = SMALL_CIRCLE if name == "small_circle" else request.getfixturevalue(name)
    for seed in seeds:
        expected = _real_state_one_try_at_a_time(curve, seed)
        if expected is None:  # the quartic fixture has no real points
            with pytest.raises(sampling.SamplingError):
                sample_real_state(curve, seed)
        else:
            assert repr(sample_real_state(curve, seed)) == repr(expected)


def test_a_curve_without_real_points_is_refused_in_a_few_stacked_solves(quartic, monkeypatch):
    # blocks of 1, 2, 4, ... tries: 12 stacked root solves cover all 4000
    solves = []
    root_rows = sampling.root_rows
    monkeypatch.setattr(sampling, "root_rows", lambda monic: solves.append(len(monic)) or root_rows(monic))
    with pytest.raises(sampling.SamplingError):
        sample_real_state(quartic, 1)
    assert len(solves) == math.ceil(math.log2(sampling.MAX_REAL_TRIES + 1))
