"""The stacked geometry kernel: normalization, the chordal distance, properties
over random generic curves, and orbit trees against single billiard steps."""

import functools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from algbilliards import phase
from algbilliards.blowup import GenericityFailureError, enumerate_scratch_points
from algbilliards.curve import (
    ContainsInfinityLineError,
    CurveError,
    PlaneCurve,
    direction_distance,
    on_curve_residual,
    point_order_key,
    points_at_infinity,
    proj_distance,
    proj_point,
    proj_points,
    tangent_at,
)
from algbilliards.numerics import NonConvergenceError, RootCluster, find_roots
from conftest import CONIC_AND_INFINITY, load_curve
from line_reference import reference_line_intersections
from algbilliards.phase import (
    OffCurveError,
    PhaseError,
    ScratchPointError,
    billiard_step,
    billiard_steps,
    conic_residual,
    direction_from_slope,
    direction_point,
    line_intersections,
    line_point,
    orbit_tree,
    phase_distance,
    phase_point,
    reflect,
    rotate_direction,
    secant,
)
from algbilliards.sampling import sample_phase_points

GATE = 1e-7  # the acceptance suite's geometry residual gate

# the cubic of test_orbit_tree_records_terminated_branches, whose aimed state
# has a secant image on the infinity line
TERMINATING_CUBIC = (3, {(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1, (1, 0, 2): 1, (0, 1, 2): 1})


# ---------------------------------------------------------------------------
# normalization and distance
# ---------------------------------------------------------------------------


def test_pivot_coordinate_is_exactly_one():
    rng = random.Random(7)
    triples = [
        tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3))
        for _ in range(2000)
    ]
    # largest magnitudes tied: the first of them is the pivot
    triples += [(3 + 4j, 5, -5j), (1 + 2j, 2 - 1j, 0.5), (-1j, 1, 0.25 + 0.5j), (2, 2, 2)]
    stacked = proj_points(np.array(triples))
    for v, row in zip(triples, stacked.tolist()):
        mags = [abs(z) for z in v]
        k = mags.index(max(mags))
        for pivot in (proj_point(*v).coords[k], row[k]):
            assert (pivot.real, pivot.imag, math.copysign(1.0, pivot.imag)) == (1.0, 0.0, 1.0)


def _numpy_chordal(p, q):
    a, b = np.array(p.coords), np.array(q.coords)
    cross = np.abs(np.outer(a, b) - np.outer(b, a))
    return float(np.linalg.norm(cross) / (math.sqrt(2) * np.linalg.norm(a) * np.linalg.norm(b)))


def test_proj_distance_matches_the_outer_product_formula():
    rng = random.Random(11)
    for k in range(2000):
        v = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        w = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        if k % 2:  # nearly equal points
            w = [z + 1e-9 * u for z, u in zip(v, w)]
        p, q = proj_point(*v), proj_point(*w)
        expected = _numpy_chordal(p, q)
        assert abs(proj_distance(p, q) - expected) <= 1e-14 + 1e-9 * expected


# ---------------------------------------------------------------------------
# properties over random generic curves
# ---------------------------------------------------------------------------


@st.composite
def integer_curves(draw):
    """A degree 2..8 form with integer coefficients in -9..9 on every monomial."""
    d = draw(st.integers(2, 8))
    monomials = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    values = draw(st.lists(st.integers(-9, 9), min_size=len(monomials), max_size=len(monomials)))
    return d, dict(zip(monomials, values))


def generic_curve(case):
    """The drawn curve and its scratch census; a draw that fails the
    genericity report is rejected."""
    d, coeffs = case
    assume(any(coeffs.values()))
    curve = PlaneCurve.from_coeffs(d, coeffs)
    try:
        return curve, enumerate_scratch_points(curve)
    except GenericityFailureError:
        reject()


def aimed_state(curve, root=0):
    """An affine state whose direction is the slope of a point at infinity of
    the curve, so its line meets the curve on the infinity line; its base is
    the ``root``-th point of one fixed line on the curve."""
    inf = points_at_infinity(curve)[0][0]
    q = direction_from_slope((inf.coords[0], inf.coords[1]), 0)
    t = find_roots(curve.restrict_to_line((0.2, -0.3, 1.0), (1.1, 0.4, 0.0)))[root].value
    return phase_point(curve, proj_point(0.2 + 1.1 * t, -0.3 + 0.4 * t, 1.0), q)


def collinearity_residual(x, y):
    # 3x3 determinant [[c0, c0', q0], [c1, c1', q1], [c2, c2', 0]]
    c, cp, q = x.c.coords, y.c.coords, x.q.q
    return abs(q[0] * (c[1] * cp[2] - c[2] * cp[1]) - q[1] * (c[0] * cp[2] - c[2] * cp[0]))


def _branches(step, scale=1):
    return [(b.point, scale * b.multiplicity, None) for b in step.images] + [
        (t.point, scale * t.multiplicity, t.reason) for t in step.terminated
    ]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(integer_curves(), st.integers(0, 2**16))
@example(TERMINATING_CUBIC, 0)
def test_secant_and_reflect_properties(case, seed):
    curve, census = generic_curve(case)
    assert len(census) == 2 * curve.degree**2
    for x in sample_phase_points(curve, 4, seed):
        sec = secant(curve, x)
        assert sec.total_multiplicity() == curve.degree - 1
        keys = [point_order_key(b.point.c.coords) for b in sec.images]
        assert keys == sorted(keys)
        for br in sec.images:
            assert on_curve_residual(curve, br.point.c) < GATE
            assert collinearity_residual(x, br.point) < GATE
        y = reflect(curve, x).images[0].point
        assert conic_residual(*y.q.q) < GATE
        assert phase_distance(reflect(curve, y).images[0].point, x) < GATE
        # the billiard map inverted: reflect back, and the secant returns to x
        for br in billiard_step(curve, x).images:
            back = secant(curve, reflect(curve, br.point).images[0].point)
            assert min(phase_distance(b.point, x) for b in back.images) < GATE


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(integer_curves(), st.integers(0, 2**16))
@example(TERMINATING_CUBIC, 0)
def test_stacked_step_matches_one_state_steps(case, seed):
    curve, _ = generic_curve(case)
    xs = sample_phase_points(curve, 6, seed) + [aimed_state(curve)]
    for x, stacked in zip(xs, billiard_steps(curve, xs)):
        try:
            single = billiard_step(curve, x)
        except PhaseError as exc:
            assert type(stacked) is type(exc)
            continue
        # exact: a state's step does not depend on the states stacked with it
        assert stacked == single


def test_aimed_cubic_state_terminates_at_infinity():
    curve = PlaneCurve.from_coeffs(*TERMINATING_CUBIC)
    step = billiard_steps(curve, [aimed_state(curve)])[0]
    assert [t.reason for t in step.terminated] == ["image_at_infinity"]


def band_state(curve, c2, turn):
    """A state with |X2| = c2 near the first infinity point, aimed ``turn``
    off the tangent there (turn 0 within 1e-9 of infinity: a scratch point)."""
    p = points_at_infinity(curve)[0][0]
    g = curve.gradient(*p.coords)
    base, e = (p.coords[0], p.coords[1], c2), (g[0].conjugate(), g[1].conjugate(), 0)
    t = min((r.value for r in find_roots(curve.restrict_to_line(base, e))), key=abs)
    c = line_point(base, e, t)
    return phase_point(curve, c, rotate_direction(direction_from_slope(tangent_at(curve, c).tangent, 0), turn))


def tangent_state(curve, turn):
    """A state whose secant line is turned ``turn`` off a tangent line of
    the cubic: two of its images (nearly) coincide at the tangency point."""
    p = sample_phase_points(curve, 1, seed=11)[0].c
    slope = tangent_at(curve, p).tangent
    e = (slope[0], slope[1], 0)
    roots, _ = line_intersections(curve, p.coords, e, remove=2)
    c = line_point(p.coords, e, roots[0].value)
    return phase_point(curve, c, rotate_direction(direction_from_slope(slope, 0), turn))


def _children(step):
    """A one-state step as (c bytes, q bytes, multiplicity, reason) rows."""
    rows = [(b.point, b.multiplicity, None) for b in step.images]
    rows += [(t.point, t.multiplicity, t.reason) for t in step.terminated]
    return [(np.array(x.c.coords).tobytes(), np.array(x.q.q).tobytes(), m, why) for x, m, why in rows]


def log_line_rule(monkeypatch, inject=None):
    """Patch the one line rule ``_line_rule`` to log the line (base point,
    second point) of every row it resolves, found through the coefficient
    rows of the last ``restrict_to_lines`` call; ``inject(line, rule)``, if
    given, returns the row's result in place of ``rule()``, which returns the
    row's result or raises its error.  Returns the log."""
    restrict, line_rule = PlaneCurve.restrict_to_lines, phase._line_rule
    restricted, lines = [], []

    def restrict_to_lines(self, b, v):
        restricted.append((np.asarray(b), np.asarray(v), restrict(self, b, v)))
        return restricted[-1][2]

    def logged(coeffs, remove):
        b, v, stack = restricted[-1]
        out = []
        for row, result in zip(coeffs.tolist(), line_rule(coeffs, remove)):
            r = [row == other for other in stack.tolist()].index(True)
            lines.append((tuple(b[r].tolist()), tuple(v[r].tolist())))

            def rule(result=result):
                if isinstance(result, phase._ROW_ERRORS):
                    raise result
                return result
            try:
                out.append(inject(lines[-1], rule) if inject else rule())
            except phase._ROW_ERRORS as exc:
                out.append(exc)
        return out

    monkeypatch.setattr(PlaneCurve, "restrict_to_lines", restrict_to_lines)
    monkeypatch.setattr(phase, "_line_rule", logged)
    return lines


def direction_line(curve, x):
    """The secant line (c, e) of a state outside the near-infinity band,
    where e is the direction point."""
    assert abs(x.c.coords[2]) >= phase._near_infinity_band(curve.degree)
    return x.c.coords, (x.q.q[0], x.q.q[1], 0j)


def test_mixed_stack_rows_are_isolated(monkeypatch):
    """Clean rows stacked with rows that leave the stacked roots: every
    state's children from the array step are bitwise its billiard_step."""
    curve = PlaneCurve.from_coeffs(*TERMINATING_CUBIC)
    clean = sample_phase_points(curve, 4, seed=5)
    isotropic = phase_point(curve, clean[0].c, direction_point(1, 1j, 0))
    special = [band_state(curve, 1e-6, 0.0), band_state(curve, 1e-6, 0.3), band_state(curve, 1e-12, 0.0),
               tangent_state(curve, 0.0), tangent_state(curve, 1e-9), isotropic, aimed_state(curve)]
    dists, proximity = [], phase._proximity_rows
    ruled = log_line_rule(monkeypatch)
    monkeypatch.setattr(phase, "_proximity_rows", lambda *a: dists.append(a[3]) or proximity(*a))
    stacks = (clean[:2] + special + clean[2:], special[::-1] + clean,
              clean + special[::2] + special[1::2], clean + special[-1:])
    for xs in stacks:
        src, c, q, mult, reasons, ill = phase._step_rows(curve, *phase._stack(xs))
        assert src.dtype.kind == mult.dtype.kind == "i" and (np.diff(src) >= 0).all()
        for i, x in enumerate(xs):
            rows = np.flatnonzero(src == i).tolist()
            got = [(c[r].tobytes(), q[r].tobytes(), int(mult[r]), reasons[r]) for r in rows]
            try:
                step = billiard_step(curve, x)
            except PhaseError as exc:
                assert [row[:3] for row in got] == [(np.array(x.c.coords).tobytes(), np.array(x.q.q).tobytes(), 1)]
                assert (type(got[0][3]), str(got[0][3])) == (type(exc), str(exc))
                continue
            assert got == _children(step)
            assert ill[i] == step.ill_conditioned
    # the soft-band rows and the tangent rows (close roots) stayed in the
    # stacked secant, where an exact tangency is one image of multiplicity 2;
    # the degree drop took the line rule; the hard-band row left the stack
    # with the error of its stacked proximity; and reflection took the
    # proximity of isotropic rows
    bases = {base for base, _ in ruled}
    assert not bases & {x.c.coords for x in special[:5]}
    assert bases == {special[6].c.coords}
    assert [b.multiplicity for b in secant(curve, special[3]).images] == [2]
    assert [b.multiplicity for b in secant(curve, special[4]).images] == [1, 1]
    hard = billiard_steps(curve, special[2:3])[0]
    assert isinstance(hard, ScratchPointError) and str(hard).startswith("secant source is a scratch point")
    assert any((dist == 0).any() for dist in dists)


def test_a_failing_row_is_that_states_error(monkeypatch):
    """A state whose secant images are off the curve, or whose root finder
    does not converge, gets that error as its own step: an OffCurveError
    chained from the CurveError of the tangent check, or the
    NonConvergenceError.  Every other state of the stack, tangent states
    included, keeps bitwise its one-state step, and an orbit tree keeps the
    state as a node named after its error.  Both failures are injected into
    the line rule of two degree-drop states, which still take that rule."""
    curve = PlaneCurve.from_coeffs(*TERMINATING_CUBIC)
    off, stuck = aimed_state(curve, 1), aimed_state(curve, 2)
    clean = sample_phase_points(curve, 4, seed=5)
    xs = (clean[:2] + [off] + clean[2:3] + [stuck] + clean[3:]
          + [band_state(curve, 1e-6, 0.1), tangent_state(curve, 0.0), tangent_state(curve, 1e-9)])

    def faulty(line, rule):
        if line == direction_line(curve, stuck):
            raise NonConvergenceError("injected")
        roots, at_e = rule()
        if line == direction_line(curve, off):  # move every finite image along the line, off the curve
            roots = [RootCluster(r.value + 0.1, r.multiplicity, r.residual) for r in roots]
        return roots, at_e

    ruled = log_line_rule(monkeypatch, faulty)
    steps = billiard_steps(curve, xs)
    assert set(ruled) == {direction_line(curve, off), direction_line(curve, stuck)}
    assert isinstance(steps[2], OffCurveError) and isinstance(steps[2].__cause__, CurveError)
    assert isinstance(steps[4], NonConvergenceError)
    for k in (2, 4):
        with pytest.raises(type(steps[k])):
            billiard_step(curve, xs[k])
    assert [step for k, step in enumerate(steps) if k not in (2, 4)] == [
        billiard_step(curve, x) for k, x in enumerate(xs) if k not in (2, 4)]
    for x, name in ((off, "OffCurveError"), (stuck, "NonConvergenceError")):
        assert orbit_tree(curve, x, 1).levels[1].reason == (name,)


def _fail_the_stack_of(monkeypatch, curve, c, q):
    """Patch the root rule to raise for every stack that holds the secant's
    monic row of the state (c, q); return the row count of each call."""
    root_rows, monic_rows = phase.root_rows, []
    monkeypatch.setattr(phase, "root_rows", lambda monic: monic_rows.append(monic) or root_rows(monic))
    phase._secant_rows(curve, c, q)
    (target,) = monic_rows[-1]
    stacks = []

    def failing(monic):
        stacks.append(len(monic))
        if (monic == target).all(axis=1).any():
            raise NonConvergenceError("injected")
        return root_rows(monic)

    monkeypatch.setattr(phase, "root_rows", failing)
    return stacks


def test_a_failed_secant_stack_fails_only_its_own_row(monkeypatch):
    """A stacked root solve that does not converge is solved again one row at
    a time: the row that still fails is that state's NonConvergenceError, and
    every other state keeps bitwise its one-state step, in a stack of
    billiard steps and in a level of an orbit tree."""
    curve = PlaneCurve.from_coeffs(*TERMINATING_CUBIC)
    xs = sample_phase_points(curve, 6, seed=5)
    expected = [repr(billiard_step(curve, x)) for x in xs]
    plain = orbit_tree(curve, xs[0], 2)
    stacks = _fail_the_stack_of(monkeypatch, curve, *phase._stack(xs[3:4]))
    steps = billiard_steps(curve, xs)
    assert stacks == [6, 1, 1, 1, 1, 1, 1]
    assert isinstance(steps[3], NonConvergenceError)
    assert [repr(step) for k, step in enumerate(steps) if k != 3] == expected[:3] + expected[4:]
    monkeypatch.undo()

    level = plain.levels[1]
    _fail_the_stack_of(monkeypatch, curve, level.c[:1], level.q[:1])
    tree = orbit_tree(curve, xs[0], 2)
    for old, new in zip(plain.levels[:2], tree.levels[:2]):
        assert list(map(repr, old)) == list(map(repr, new))
    last = tree.levels[2]
    assert [r for r, p in zip(last.reason, last.parent.tolist()) if p == 0] == ["NonConvergenceError"]
    kept = [repr(node) for node in plain.levels[2] if node.parent_index != 0]
    assert [repr(node) for node in tree.levels[2] if node.parent_index != 0] == kept


def test_rows_off_the_stacked_roots_restrict_their_line_once(monkeypatch):
    """A stack with tangent, degree-drop and hard-band rows restricts every
    line in one ``restrict_to_lines`` call and never per state.  The
    degree-drop rows, the only ones off the stacked roots, have the images of
    ``line_intersections`` on their line, mapped by ``line_point``, the
    intersection at e first, in point order; the tangent rows keep the
    stacked roots, with the multiplicities of ``line_intersections`` and
    its points to rounding."""
    curve = PlaneCurve.from_coeffs(*TERMINATING_CUBIC)
    clean = sample_phase_points(curve, 3, seed=5)
    tangent = [tangent_state(curve, 0.0), tangent_state(curve, 1e-9)]
    ruled = [aimed_state(curve, 0), aimed_state(curve, 1)]
    xs = clean[:1] + tangent + ruled + [band_state(curve, 1e-12, 0.0)] + clean[1:]
    calls = Counter()
    for name in ("restrict_to_line", "restrict_to_lines"):
        def counted(self, *a, _method=getattr(PlaneCurve, name), _name=name):
            calls[_name] += 1
            return _method(self, *a)
        monkeypatch.setattr(PlaneCurve, name, counted)
    steps = billiard_steps(curve, xs)
    assert calls == {"restrict_to_lines": 1}
    hard = 1 + len(tangent) + len(ruled)
    assert isinstance(steps[hard], ScratchPointError)
    monkeypatch.undo()
    lines = log_line_rule(monkeypatch)
    src, images, mult, _, errors = phase._secant_rows(curve, *phase._stack(xs))
    monkeypatch.undo()
    assert list(errors) == [hard]
    assert lines == [direction_line(curve, x) for x in ruled]
    for i, x in enumerate(tangent + ruled, start=1):
        c, e = direction_line(curve, x)
        roots, at_e = line_intersections(curve, c, e, remove=1)
        assert at_e == (x in ruled)  # the degree drop meets the curve at e
        want = [(proj_point(*e).coords, at_e)] if at_e else []
        want += [(line_point(c, e, r.value).coords, r.multiplicity) for r in roots]
        want.sort(key=lambda im: point_order_key(im[0]))
        got = [(tuple(images[r].tolist()), int(mult[r])) for r in np.flatnonzero(src == i).tolist()]
        if x in ruled:
            assert got == want
        else:
            assert [m for _, m in got] == [m for _, m in want] == ([2] if x is tangent[0] else [1, 1])
            assert all(proj_distance(proj_point(*p), proj_point(*q)) < 1e-12 for (p, _), (q, _) in zip(got, want))


# ---------------------------------------------------------------------------
# the line rule on a stack
# ---------------------------------------------------------------------------


def one_row(curve, base, e, remove):
    """``line_intersections`` of one line, or the error it raised."""
    try:
        return line_intersections(curve, base, e, remove=remove)
    except (PhaseError, NonConvergenceError) as exc:
        return exc


def same_row(got, want):
    """A stacked row against a one-row result: repr-equal clusters and
    multiplicity at e, or an error of the same type and text."""
    if isinstance(want, Exception):
        return (type(got), str(got)) == (type(want), str(want))
    return repr(got) == repr(want)


def test_a_row_error_stays_in_its_row(cubic):
    # the first line's restriction overflows: that row is refused, and the
    # second keeps its roots
    bases, directions = [(1e120, 1e120, 1), (0.1, 0.2, 1)], [(1, 0.5, 0), (1, 0.3, 0)]
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the input
        rows = phase._line_rows(cubic, bases, directions)
        assert isinstance(one_row(cubic, bases[0], directions[0], 0), PhaseError)
    assert isinstance(rows[0], PhaseError) and str(rows[0]) == "the line's restriction is not finite"
    assert repr(rows[1]) == repr(line_intersections(cubic, bases[1], directions[1]))
    assert repr(rows[1]) == repr(reference_line_intersections(cubic, bases[1], directions[1]))


def test_each_refusal_of_the_line_rule_is_its_rows_own():
    # on X2 (X0^2 + 2 X1^2 - X2^2), with one base root divided out: a clean
    # line through (1, 0, 1), the line at infinity (in the curve), a base off
    # the curve (its base root does not vanish), a line aimed at infinity (a
    # degree drop) and an overflowing line, in one stack and in three orders
    curve = CONIC_AND_INFINITY
    lines = [((1, 0, 1), (0.3, 0.7, 1)), ((1, 0, 0), (0, 1, 0)), ((0.5, 0.5, 1), (1, 0.3, 0)),
             ((1, 0, 1), (0.2, 0.9, 0)), ((1e120, 1e120, 1), (1, 0.5, 0))]
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [one_row(curve, base, e, 1) for base, e in lines]
        assert [type(row).__name__ for row in alone] == ["tuple", "LineInCurveError", "PhaseError", "tuple",
                                                         "PhaseError"]
        assert [row[1] for row in alone if isinstance(row, tuple)] == [0, 1]
        for order in (lines, lines[::-1], lines[1:] + lines[:1]):
            rows = phase._line_rows(curve, *zip(*order), 1)
            want = [alone[lines.index(line)] for line in order]
            assert all(same_row(g, w) for g, w in zip(rows, want))
    for (base, e), row in zip(lines[:4], alone):
        assert same_row(row, reference_line_intersections(curve, base, e, 1))


REFERENCE_CURVES = {name: load_curve(name) for name in ("ellipse", "cubic", "quartic", "sextic")}
REFERENCE_CURVES.update(terminating=PlaneCurve.from_coeffs(*TERMINATING_CUBIC), conic_and_infinity=CONIC_AND_INFINITY)


@functools.cache
def line_material(name):
    """Points of the curve, their tangent slopes and its points at infinity
    (two of them where the curve holds the line at infinity)."""
    curve = REFERENCE_CURVES[name]
    points = [x.c.coords for x in sample_phase_points(curve, 4, seed=3)]
    tangents = [tangent_at(curve, proj_point(*p)).tangent for p in points]
    try:
        infinity = [p.coords for p, _ in points_at_infinity(curve)]
    except ContainsInfinityLineError:
        infinity = [(1, 0, 0), (0.6, 0.8, 0)]
    return points, tangents, infinity


complexes = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(REFERENCE_CURVES)), st.integers(0, 2),
       st.lists(st.tuples(st.sampled_from(("free", "through", "tangent", "aimed", "at infinity")),
                          st.integers(0, 2**16), complexes, complexes), min_size=1, max_size=8))
@example("conic_and_infinity", 0, [("at infinity", 1, 0.3j, 1.0), ("tangent", 0, 0j, 0j), ("aimed", 2, 1.0, 0.5)])
@example("cubic", 0, [("tangent", k, 0j, 0j) for k in range(4)] + [("through", 1, 0.5, 1j)])
@example("terminating", 1, [("aimed", 0, 0j, 0j), ("through", 0, 1.0, 0.5), ("free", 3, 0.2, 1.1)])
def test_the_line_rule_is_the_scalar_reference(name, remove, specs):
    """Stacked lines of every kind: a random line, one through a point of
    the curve, its tangent line there, a line aimed at a point at infinity
    and one through a point at infinity.  Every row of ``_line_rows`` is
    repr-equal to the scalar reference, or raises its error type and text."""
    curve = REFERENCE_CURVES[name]
    points, tangents, infinity = line_material(name)
    bases, directions = [], []
    for kind, k, u, v in specs:
        p, tangent, far = points[k % len(points)], tangents[k % len(points)], infinity[k % len(infinity)]
        base, e = {
            "free": ((u, v, 1), (v, u, 0)),
            "through": (p, (u, v, 0)),
            "tangent": (p, (tangent[0], tangent[1], 0)),
            "aimed": ((u, v, 1) if k % 2 else p, far),
            "at infinity": (far, (u, v, k % 3 - 1)),
        }[kind]
        bases.append(base)
        directions.append(e)
    rows = phase._line_rows(curve, bases, directions, remove)
    for base, e, row in zip(bases, directions, rows):
        assert same_row(row, reference_line_intersections(curve, base, e, remove))


# ---------------------------------------------------------------------------
# scratch proximity of a stack
# ---------------------------------------------------------------------------


def scalar_proximity(curve, c, slope, dist):
    """The proximity rule one state at a time, through tangent_at."""
    try:
        tangent = tangent_at(curve, proj_point(*c)).tangent
    except CurveError:
        return dist
    return max(dist, direction_distance(slope, tangent))


def proximity_class(p):
    return (p >= phase.SCRATCH_HARD_TOL) + (p >= phase.SCRATCH_SOFT_TOL)


PROXIMITY_CURVES = {"cubic": load_curve("cubic"), "quartic": load_curve("quartic"),
                    "terminating": PlaneCurve.from_coeffs(*TERMINATING_CUBIC)}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(PROXIMITY_CURVES)),
       st.lists(st.tuples(st.floats(-12, -5), st.floats(0, 0.5)), min_size=1, max_size=6),
       st.integers(0, 2**16))
def test_stacked_proximity_is_the_scalar_rule(name, bands, seed):
    """Secant proximity of near-infinity states and reflection proximity of
    isotropic-q states, one stack each: every row agrees with tangent_at and
    direction_distance to 1e-12 and falls in the same hard/soft class."""
    curve = PROXIMITY_CURVES[name]
    xs = [band_state(curve, 10.0**k, turn) for k, turn in bands]
    c, q = phase._stack(xs)
    rows = [(c, q[:, :2], np.abs(c[:, 2]))]
    sampled = [x.c.coords for x in sample_phase_points(curve, 3, seed)]
    iso = [p.phase.c.coords for p in enumerate_scratch_points(curve) if p.kind != "infinity"][:2]
    cs = np.array(sampled + iso, dtype=complex)
    for sign in (1j, -1j):
        rows.append((cs, np.tile([1, sign], (len(cs), 1)), np.zeros(len(cs))))
    for c, slopes, dist in rows:
        near = dist <= phase.SCRATCH_SOFT_TOL  # the rows a stacked step hands over
        c, slopes, dist = c[near], slopes[near], dist[near]
        got = phase._proximity_rows(curve, c, slopes, dist)
        want = [scalar_proximity(curve, *row) for row in zip(c.tolist(), slopes.tolist(), dist.tolist())]
        # at an isotropic tangency the distance is a cancellation at rounding level
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        for g, w in zip(got.tolist(), want):
            if all(abs(w - tol) > 1e-9 * tol for tol in (phase.SCRATCH_HARD_TOL, phase.SCRATCH_SOFT_TOL)):
                assert proximity_class(g) == proximity_class(w)


@pytest.mark.parametrize("coeffs, point", [
    (TERMINATING_CUBIC, None),                          # off the curve
    ((3, {(0, 2, 1): 1, (3, 0, 0): -1}), (0, 0, 1)),     # the cusp of y^2 z = x^3
    ((2, {(0, 1, 1): 1, (2, 0, 0): -1}), (0, 1, 0)),     # y z = x^2: tangent is the line at infinity
], ids=["off-curve", "singular", "tangent-at-infinity"])
def test_proximity_without_a_tangent_is_the_distance(coeffs, point):
    curve = PlaneCurve.from_coeffs(*coeffs)
    if point is None:
        c0, c1, c2 = band_state(curve, 1e-6, 0.0).c.coords
        point = (c0, c1 * 1.001, c2)
    with pytest.raises(CurveError):
        tangent_at(curve, proj_point(*point))
    dist = np.array([3e-7])
    assert phase._proximity_rows(curve, np.array([point], dtype=complex), np.array([[1, 0.5]]), dist) == dist


# ---------------------------------------------------------------------------
# orbit trees against single steps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, depth", [("cubic", 6), ("quartic", 4)])
def test_orbit_tree_children_are_single_steps(request, name, depth):
    """Every live node's children are billiard_step of that node alone."""
    curve = request.getfixturevalue(name)
    tree = orbit_tree(curve, sample_phase_points(curve, 1, seed=3)[0], depth)
    for level, children in zip(tree.levels, tree.levels[1:]):
        for idx, node in enumerate(level):
            if node.terminated_reason is not None:
                continue
            kids = [(n.point, n.multiplicity, n.terminated_reason)
                    for n in children if n.parent_index == idx]
            try:
                step = billiard_step(curve, node.point)
            except PhaseError as exc:
                assert kids == [(node.point, node.multiplicity, type(exc).__name__)]
                continue
            assert kids == _branches(step, node.multiplicity)
