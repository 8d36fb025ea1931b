"""Tests for the seeded sampling stream and the real sampler."""

import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from algbilliards import phase, sampling
from algbilliards.curve import (
    CurveError,
    curve_from_affine,
    on_curve_residual,
    points_at_infinity,
    tangent_at,
)
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
from conftest import CONIC_AND_INFINITY
from line_reference import reference_line_intersections


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


def _stream_one_try_at_a_time(curve, seed):
    """The sampling stream as one line_intersections call per try: the
    reference that the blocked stream must reproduce bit for bit."""
    rng = random.Random(seed)
    for _ in range(sampling.MAX_TRIES):
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
        if abs(c.coords[2]) < sampling.SCRATCH_MARGIN:
            continue
        x = PhasePoint(c=c, q=q)
        if on_curve_residual(curve, c) > 1e-9:
            continue
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


@pytest.mark.parametrize("name, seeds", [
    ("ellipse", range(4)), ("cubic", range(4)), ("quartic", range(4)), ("sextic", range(3)),
    ("conic_and_infinity", range(3)),
])
def test_the_blocked_stream_takes_the_same_tries(request, name, seeds):
    curve = CONIC_AND_INFINITY if name == "conic_and_infinity" else request.getfixturevalue(name)
    for seed in seeds:
        expected = list(map(repr, islice(_stream_one_try_at_a_time(curve, seed), 12)))
        assert len(expected) == 12
        assert list(map(repr, islice(phase_point_stream(curve, seed), 12))) == expected


@pytest.mark.parametrize("name", ["quartic", "conic_and_infinity"])
def test_the_stream_solves_blocks_of_8_16_32(request, monkeypatch, name):
    # 60 states: the blocks of 8, 16, 32 and 64 tries are one stacked root
    # solve each; on the conic and infinity line the first block stops at its
    # first try, and the next blocks assume its 2 roots
    curve = CONIC_AND_INFINITY if name == "conic_and_infinity" else request.getfixturevalue(name)
    blocks = []
    line_rows = sampling._line_rows
    monkeypatch.setattr(sampling, "_line_rows", lambda curve, bases, directions: blocks.append(len(bases))
                        or line_rows(curve, bases, directions))
    solves = []
    root_rows = phase.root_rows
    monkeypatch.setattr(phase, "root_rows", lambda monic: solves.append(len(monic)) or root_rows(monic))
    sample_phase_points(curve, 60, 1)
    # on the conic and infinity line every row drops a degree at its direction
    # point, and the rows of one degree are one stack
    assert blocks == ([8, 16, 32, 64] if name == "quartic" else [8, 8, 16, 32, 64])
    assert solves == blocks


def test_line_rows_solve_each_degree_in_one_stack(cubic, monkeypatch):
    # a line aimed at one of the cubic's points at infinity meets it there, so
    # its restriction drops a degree: a stack of both kinds of line makes one
    # root solve per degree, and every row is line_intersections's and the
    # scalar reference's
    rng = random.Random(3)
    at_infinity = points_at_infinity(cubic)[0][0].coords
    bases = [(rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0) for _ in range(7)]
    directions = [at_infinity if k % 2 else (rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0) for k in range(7)]
    solves = []
    root_rows = phase.root_rows
    monkeypatch.setattr(phase, "root_rows", lambda monic: solves.append(monic.shape) or root_rows(monic))
    rows = phase._line_rows(cubic, bases, directions)
    assert sorted(solves) == [(3, 2), (4, 3)]
    for base, e, row in zip(bases, directions, rows):
        assert repr(row) == repr(line_intersections(cubic, base, e)) == repr(reference_line_intersections(cubic, base, e))
    assert [row[1] for row in rows] == [0, 1] * 3 + [0]


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
    root_rows = phase.root_rows
    monkeypatch.setattr(phase, "root_rows", lambda monic: solves.append(len(monic)) or root_rows(monic))
    with pytest.raises(sampling.SamplingError):
        sample_real_state(quartic, 1)
    assert len(solves) == math.ceil(math.log2(sampling.MAX_REAL_TRIES + 1))
