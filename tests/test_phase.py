"""Tests for the secant / reflection / billiard correspondences."""

import math
import random

import pytest

from algbilliards.curve import (
    PlaneCurve,
    ProjPoint,
    on_curve_residual,
    points_at_infinity,
    proj_distance,
    proj_point,
    tangent_at,
)
from algbilliards.numerics import find_roots
from algbilliards.phase import (
    SCRATCH_HARD_TOL,
    SCRATCH_SOFT_TOL,
    InfinityBasePointError,
    DirectionPoint,
    NoRealReturnError,
    PhaseError,
    PhasePoint,
    ScratchPointError,
    billiard_step,
    billiard_steps,
    conic_residual,
    direction_from_slope,
    direction_point,
    line_point,
    orbit_step_json,
    orbit_tree,
    orbit_tree_jsonl,
    phase_distance,
    phase_point,
    phase_point_json,
    real_billiard_step,
    reflect,
    rotate_direction,
    secant,
    secant_scratch_proximity,
)
from algbilliards.sampling import sample_phase_points

S2 = math.sqrt(2)


def ellipse():
    return PlaneCurve.from_coeffs(2, {(2, 0, 0): 1, (0, 2, 0): 4, (0, 0, 2): -4})


def quartic_box():
    # x^4 + y^4 = 1
    return PlaneCurve.from_coeffs(4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): -1})


def sample_states(curve, count, seed=0):
    """Deterministic well-conditioned complex states for property checks."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        theta = rng.uniform(0, 2 * math.pi) + 1j * rng.uniform(-0.6, 0.6)
        q = rotate_direction(direction_point(1, 0, 1), theta)
        # base point: intersect a random line through a random anchor with the curve
        anchor = (rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1),
                  rng.uniform(-2, 2) + 1j * rng.uniform(-1, 1), 1.0)
        direction = (rng.uniform(-1, 1) + 1j * rng.uniform(-0.5, 0.5),
                     rng.uniform(-1, 1) + 1j * rng.uniform(-0.5, 0.5), 0.0)
        from algbilliards.numerics import find_roots

        poly = curve.restrict_to_line(anchor, direction)
        try:
            roots = find_roots(poly)
        except Exception:
            continue
        rc = roots[rng.randrange(len(roots))]
        c = proj_point(
            anchor[0] + rc.value * direction[0],
            anchor[1] + rc.value * direction[1],
            1.0,
        )
        if abs(c.coords[2]) < 0.05 or max(abs(z) for z in c.coords) > 50:
            continue
        x = PhasePoint(c=c, q=q)
        from algbilliards.phase import (
            reflect_scratch_proximity,
            secant_scratch_proximity,
        )

        if secant_scratch_proximity(curve, x) < 1e-3:
            continue
        if reflect_scratch_proximity(curve, x) < 1e-3:
            continue
        if on_curve_residual(curve, c) > 1e-9:
            continue
        out.append(x)
    return out


def collinearity_residual(x: PhasePoint, y: PhasePoint) -> float:
    # 3x3 determinant [[c0, c0', q0], [c1, c1', q1], [c2, c2', 0]]
    c, cp, q = x.c.coords, y.c.coords, x.q.q
    det = q[0] * (c[1] * cp[2] - c[2] * cp[1]) - q[1] * (c[0] * cp[2] - c[2] * cp[0])
    return abs(det)


# ---------------------------------------------------------------------------
# direction points
# ---------------------------------------------------------------------------


def test_direction_from_slope_horizontal():
    q = direction_from_slope((1, 0), 0)
    assert q.q == (1 + 0j, 0j, 1 + 0j)
    assert not q.is_isotropic


def test_direction_from_slope_complex():
    # [2 : i]: scale so Q0^2 + Q1^2 = 1 gives (2, i, sqrt(3)) ~ (2/sqrt3, i/sqrt3, 1)
    q = direction_from_slope((2, 1j), 0)
    s3 = math.sqrt(3)
    target = direction_point(2 / s3, 1j / s3, 1)
    assert phase_distance(
        PhasePoint(proj_point(1, 0, 0), q), PhasePoint(proj_point(1, 0, 0), target)
    ) < 1e-12


def test_direction_from_slope_branches_differ():
    q0 = direction_from_slope((2, 1j), 0)
    q1 = direction_from_slope((2, 1j), 1)
    assert abs(q0.q[2] / q0.q[0] + q1.q[2] / q1.q[0]) < 1e-12


def test_direction_from_slope_isotropic():
    q = direction_from_slope((1, 1j))
    assert q.is_isotropic
    assert abs(q.q[2]) == 0


def test_rotation_stays_on_conic():
    rng = random.Random(1)
    q = direction_point(1, 0, 1)
    for _ in range(50):
        theta = rng.uniform(-3, 3) + 1j * rng.uniform(-1, 1)
        q2 = rotate_direction(q, theta)
        assert conic_residual(*q2.q) < 1e-12


# ---------------------------------------------------------------------------
# secant
# ---------------------------------------------------------------------------


def test_secant_ellipse_basic():
    c = ellipse()
    q = direction_point(-S2 / 2, S2 / 2, 1)
    x = phase_point(c, proj_point(2, 0, 1), q)
    out = secant(c, x)
    assert out.total_multiplicity() == 1
    img = out.images[0].point
    assert proj_distance(img.c, proj_point(6 / 5, 4 / 5, 1)) < 1e-9
    assert img.q is q  # direction preserved exactly


def test_secant_tangent_line_returns_base_once():
    c = ellipse()
    q = direction_point(0, 1, 1)  # vertical tangent at (2, 0)
    x = phase_point(c, proj_point(2, 0, 1), q)
    out = secant(c, x)
    assert out.total_multiplicity() == 1
    assert proj_distance(out.images[0].point.c, proj_point(2, 0, 1)) < 1e-7


def test_secant_two_point_line():
    c = ellipse()
    # line through (0, 1) and (2, 0) has direction (2, -1)
    q = direction_from_slope((2, -1), 0)
    x = phase_point(c, proj_point(0, 1, 1), q)
    out = secant(c, x)
    assert proj_distance(out.images[0].point.c, proj_point(2, 0, 1)) < 1e-9


def test_secant_scratch_point_rejected():
    c = ellipse()
    q = direction_from_slope((2, 1j), 0)
    x = PhasePoint(c=proj_point(2, 1j, 0), q=q)
    with pytest.raises(ScratchPointError):
        secant(c, x)


def near_infinity_state(curve, c2):
    """A state next to an infinity scratch point: its base point is the curve
    point with X2 = c2 on a transversal through the first infinity point,
    and its direction is the tangent there."""
    p = points_at_infinity(curve)[0][0]
    g = curve.gradient(*p.coords)
    base, direction = (p.coords[0], p.coords[1], c2), (g[0].conjugate(), g[1].conjugate(), 0)
    t = min((r.value for r in find_roots(curve.restrict_to_line(base, direction))), key=abs)
    c = line_point(base, direction, t)
    return PhasePoint(c=c, q=direction_from_slope(tangent_at(curve, c).tangent, 0))


@pytest.mark.parametrize("c2", [3e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6, 3e-6])
@pytest.mark.parametrize("name", ["ellipse", "cubic", "quartic"])
def test_secant_soft_band_off_infinity_is_ill_conditioned(request, name, c2):
    # the stacked call must send the state to the per-state proximity check
    # even when it shares the batch with ordinary states
    curve = request.getfixturevalue(name)
    x = near_infinity_state(curve, c2)
    assert SCRATCH_HARD_TOL <= secant_scratch_proximity(curve, x) < SCRATCH_SOFT_TOL
    assert secant(curve, x).ill_conditioned
    assert billiard_step(curve, x).ill_conditioned
    stacked = billiard_steps(curve, [*sample_phase_points(curve, 3, seed=2), x])
    assert [step.ill_conditioned for step in stacked] == [False, False, False, True]


@pytest.mark.parametrize("name", ["ellipse", "cubic", "quartic"])
@pytest.mark.parametrize("c2", [9e-10, 1e-12])
def test_secant_hard_band_off_infinity_is_a_scratch_point(request, name, c2):
    curve = request.getfixturevalue(name)
    x = near_infinity_state(curve, c2)
    assert secant_scratch_proximity(curve, x) < SCRATCH_HARD_TOL
    with pytest.raises(ScratchPointError):
        secant(curve, x)
    with pytest.raises(ScratchPointError):
        billiard_step(curve, x)
    stacked = billiard_steps(curve, [*sample_phase_points(curve, 3, seed=2), x])
    assert [isinstance(step, PhaseError) for step in stacked] == [False, False, False, True]
    assert isinstance(stacked[-1], ScratchPointError)


def off_tangent_state(curve, c2):
    """The near-infinity state of ``near_infinity_state`` turned 0.3 off its tangent."""
    x = near_infinity_state(curve, c2)
    return PhasePoint(c=x.c, q=rotate_direction(x.q, 0.3))


def perpendicular_foot_state(curve, c2):
    """A near-infinity base point c whose secant line has direction (conj c1, -conj c0):
    c is the foot of the perpendicular from the origin to that line."""
    c = near_infinity_state(curve, c2).c
    c0, c1, _ = c.coords
    return PhasePoint(c=c, q=direction_from_slope((c1.conjugate(), -c0.conjugate()), 0))


def reference_secant(curve, x, dps=50):
    """The secant images of x from the roots of F(c + t * (Q0, Q1, 0)) at
    ``dps`` digits, the root nearest 0 removed, as projective points."""
    import mpmath

    with mpmath.workdps(dps):
        c = [mpmath.mpc(z) for z in x.c.coords]
        direction = [mpmath.mpc(z) for z in x.q.q[:2]]
        coeffs = [mpmath.mpc(0)] * (curve.degree + 1)
        for (i, j, k), (re, im) in curve.coeffs.items():
            term = [mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                               mpmath.mpf(im.numerator) / im.denominator) * c[2] ** k]
            for base, step, power in ((c[0], direction[0], i), (c[1], direction[1], j)):
                for _ in range(power):
                    term = [a * base + b * step for a, b in zip(term + [0], [0] + term)]
            coeffs = [a + b for a, b in zip(coeffs, term + [0] * (len(coeffs) - len(term)))]
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
        roots.remove(min(roots, key=abs))
        points = [(c[0] + t * direction[0], c[1] + t * direction[1], c[2]) for t in roots]
        return [proj_point(*map(complex, p)) for p in points]


BAND_STATES = [(off_tangent_state, c2) for c2 in (1e-7, 1e-5, 1e-3)] + [
    (perpendicular_foot_state, c2) for c2 in (1e-7, 1e-5)]


@pytest.mark.parametrize("make, c2", BAND_STATES)
@pytest.mark.parametrize("name", ["ellipse", "cubic", "quartic", "sextic"])
def test_secant_band_states_match_reference(request, name, make, c2):
    curve = request.getfixturevalue(name)
    x = make(curve, c2)
    out = secant(curve, x)
    assert out.total_multiplicity() == curve.degree - 1
    images = [br.point.c for br in out.images for _ in range(br.multiplicity)]
    for ref in reference_secant(curve, x):
        nearest = min(images, key=lambda p: proj_distance(p, ref))
        assert proj_distance(nearest, ref) < 1e-10
        images.remove(nearest)
    xs = [*sample_phase_points(curve, 3, seed=4), x]
    assert billiard_steps(curve, xs) == [billiard_steps(curve, [s])[0] for s in xs]


def test_secant_line_in_curve_rejected():
    from algbilliards.curve import PlaneCurve
    from algbilliards.phase import LineInCurveError

    # the line pair X0 * X1 contains the vertical line x = 0
    pair = PlaneCurve.from_coeffs(2, {(1, 1, 0): 1})
    x = PhasePoint(c=proj_point(0, 5, 1), q=direction_point(0, 1, 1))
    with pytest.raises(LineInCurveError):
        secant(pair, x)


@pytest.mark.parametrize("name", ["ellipse", "cubic", "quartic"])
@pytest.mark.parametrize("remove", [0, 1, 2])
def test_line_intersections_count_and_residual(request, name, remove):
    from algbilliards.curve import tangent_at
    from algbilliards.phase import PhaseError, line_intersections, line_point

    curve = request.getfixturevalue(name)
    d = curve.degree
    rng = random.Random(f"{name}/{remove}")
    for _ in range(10):
        base = (complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
                complex(rng.uniform(-2, 2), rng.uniform(-1, 1)), 1.0)
        direction = (complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)),
                     complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)), 0.0)
        if remove:
            # a known root at t = 0: put the base on the curve, and for a
            # double root turn the line into the tangent there
            roots, _ = line_intersections(curve, base, direction)
            on_curve = line_point(base, direction, roots[0].value)
            base = on_curve.coords
            if remove == 2:
                t0, t1 = tangent_at(curve, on_curve).tangent
                direction = (t0, t1, 0.0)
        roots, at_direction = line_intersections(curve, base, direction, remove=remove)
        assert sum(r.multiplicity for r in roots) + at_direction == d - remove
        for r in roots:
            assert on_curve_residual(curve, line_point(base, direction, r.value)) < 1e-8
        if remove:
            # a base off the curve has no root at t = 0 to remove
            off = (base[0] + 0.1 * base[2], base[1], base[2])
            with pytest.raises(PhaseError):
                line_intersections(curve, off, direction, remove=remove)


def test_secant_collinearity_and_symmetry_properties():
    c = ellipse()
    for x in sample_states(c, 40, seed=3):
        out = secant(c, x)
        assert out.total_multiplicity() == 1
        for br in out.images:
            assert collinearity_residual(x, br.point) < 1e-7
            assert on_curve_residual(c, br.point.c) < 1e-7
            # self-adjointness: the base point is among the secant images of the image
            back = secant(c, br.point)
            assert min(
                phase_distance(b.point, x) for b in back.images
            ) < 1e-6


# ---------------------------------------------------------------------------
# reflect
# ---------------------------------------------------------------------------


def test_reflect_ellipse_top():
    c = ellipse()
    q = direction_point(-S2 / 2, S2 / 2, 1)
    x = phase_point(c, proj_point(0, 1, 1), q)
    out = reflect(c, x)
    img = out.images[0].point
    assert img.c is x.c
    assert phase_distance(img, PhasePoint(x.c, direction_point(-S2 / 2, -S2 / 2, 1))) < 1e-12


def test_reflect_exchanges_isotropic_directions():
    c = ellipse()
    q = direction_point(1, 1j, 0)
    x = phase_point(c, proj_point(0, 1, 1), q)
    out = reflect(c, x)
    assert phase_distance(
        out.images[0].point, PhasePoint(x.c, direction_point(1, -1j, 0))
    ) < 1e-12


def test_reflect_involution_property():
    c = ellipse()
    for x in sample_states(c, 100, seed=5):
        y = reflect(c, x).images[0].point
        z = reflect(c, y).images[0].point
        assert phase_distance(z, x) < 1e-7


def test_reflect_rejects_infinity_base():
    c = ellipse()
    q = direction_point(1, 0, 1)
    x = PhasePoint(c=proj_point(2, 1j, 0), q=q)
    with pytest.raises(InfinityBasePointError):
        reflect(c, x)


# ---------------------------------------------------------------------------
# billiards
# ---------------------------------------------------------------------------


def test_billiard_step_ellipse_frozen_value():
    c = ellipse()
    q = direction_point(-S2 / 2, S2 / 2, 1)
    x = phase_point(c, proj_point(2, 0, 1), q)
    out = billiard_step(c, x)
    assert out.total_multiplicity() == 1
    img = out.images[0].point
    # tangent at (6/5, 4/5) has direction (8, -3); reflecting gives
    # q' = (-103 sqrt2 / 146, -7 sqrt2 / 146)
    assert proj_distance(img.c, proj_point(6 / 5, 4 / 5, 1)) < 1e-9
    expected_q = direction_point(-103 * S2 / 146, -7 * S2 / 146, 1)
    assert phase_distance(img, PhasePoint(img.c, expected_q)) < 1e-9


def test_billiard_reversibility():
    c = ellipse()
    for x in sample_states(c, 30, seed=8):
        for br in billiard_step(c, x).images:
            y = br.point
            ry = reflect(c, y).images[0].point
            back = billiard_step(c, ry)
            candidates = [reflect(c, b.point).images[0].point for b in back.images]
            assert min(phase_distance(cand, x) for cand in candidates) < 1e-6


# ---------------------------------------------------------------------------
# real billiards
# ---------------------------------------------------------------------------


def test_real_step_matches_complex_branch():
    c = ellipse()
    q = direction_point(-S2 / 2, S2 / 2, 1)
    x = phase_point(c, proj_point(2, 0, 1), q)
    y = real_billiard_step(c, x)
    assert proj_distance(y.c, proj_point(6 / 5, 4 / 5, 1)) < 1e-9
    expected_q = direction_point(-103 * S2 / 146, -7 * S2 / 146, 1)
    assert phase_distance(y, PhasePoint(y.c, expected_q)) < 1e-9


def test_real_step_two_periodic_bounce():
    c = ellipse()
    x = phase_point(c, proj_point(0, 1, 1), direction_point(0, -1, 1))
    y = real_billiard_step(c, x)
    assert proj_distance(y.c, proj_point(0, -1, 1)) < 1e-9
    assert phase_distance(y, PhasePoint(y.c, direction_point(0, 1, 1))) < 1e-9
    z = real_billiard_step(c, y)
    assert phase_distance(z, x) < 1e-9


def test_real_step_no_real_return_on_quartic_edge():
    c = quartic_box()
    x = phase_point(c, proj_point(1, 0, 1), direction_point(0, 1, 1))
    with pytest.raises(NoRealReturnError):
        real_billiard_step(c, x)


# ---------------------------------------------------------------------------
# orbit trees
# ---------------------------------------------------------------------------


def test_orbit_tree_depth_zero():
    c = ellipse()
    x = phase_point(c, proj_point(2, 0, 1), direction_point(-S2 / 2, S2 / 2, 1))
    tree = orbit_tree(c, x, 0)
    assert tree.depth == 0
    assert tree.leaves_with_multiplicity() == 1


def test_orbit_tree_chain_for_conic():
    c = ellipse()
    x = phase_point(c, proj_point(2, 0, 1), direction_point(-S2 / 2, S2 / 2, 1))
    tree = orbit_tree(c, x, 6)
    for k in range(7):
        assert tree.level_mass(k) == 1


def test_orbit_tree_jsonl_format():
    import json

    c = ellipse()
    x = phase_point(c, proj_point(2, 0, 1), direction_point(-S2 / 2, S2 / 2, 1))
    lines = orbit_tree_jsonl(orbit_tree(c, x, 2))
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["level"] == 0 and first["parent_index"] == -1 and first["mult"] == 1
    assert len(first["c"]) == 3 and len(first["c"][0]) == 2


def test_orbit_tree_records_terminated_branches():
    """A secant image landing exactly on the infinity line terminates its
    branch with a reason instead of dropping mass silently."""
    import json

    from algbilliards.curve import PlaneCurve, points_at_infinity
    from algbilliards.numerics import find_roots

    cubic = PlaneCurve.from_coeffs(
        3, {(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1, (1, 0, 2): 1, (0, 1, 2): 1}
    )
    # aim along a direction whose infinity point lies on the curve: the line
    # through any affine curve point then meets the curve at infinity
    inf_pt = points_at_infinity(cubic)[0][0]
    q = direction_from_slope((inf_pt.coords[0], inf_pt.coords[1]), 0)
    poly = cubic.restrict_to_line((0.2, -0.3, 1.0), (1.1, 0.4, 0.0))
    t = find_roots(poly)[0].value
    c0 = proj_point(0.2 + 1.1 * t, -0.3 + 0.4 * t, 1.0)
    x = phase_point(cubic, c0, q)
    tree = orbit_tree(cubic, x, 1)
    terminated = [n for n in tree.levels[1] if n.terminated_reason is not None]
    assert terminated, "expected a terminated branch at infinity"
    assert terminated[0].terminated_reason == "image_at_infinity"
    # mass bookkeeping stays exact: survivors + terminated = d - 1
    total = sum(n.multiplicity for n in tree.levels[1])
    assert total == 2
    dumped = [json.loads(l) for l in orbit_tree_jsonl(tree)]
    assert any("terminated_reason" in obj for obj in dumped)


def _tree_through_infinity(curve, depth):
    """An orbit tree whose first secant meets the curve on the infinity line."""
    inf_pt = points_at_infinity(curve)[0][0]
    q = direction_from_slope((inf_pt.coords[0], inf_pt.coords[1]), 0)
    t = find_roots(curve.restrict_to_line((0.2, -0.3, 1.0), (1.1, 0.4, 0.0)))[0].value
    c0 = proj_point(0.2 + 1.1 * t, -0.3 + 0.4 * t, 1.0)
    return orbit_tree(curve, phase_point(curve, c0, q), depth)


def _node_dict(level, node):
    obj = {"level": level, "parent_index": node.parent_index,
           **phase_point_json(node.point), "mult": node.multiplicity}
    if node.terminated_reason is not None:
        obj["terminated_reason"] = node.terminated_reason
    return obj


@pytest.mark.parametrize("name", ["cubic", "quartic"])
def test_orbit_tree_jsonl_is_json_dumps_of_each_node(request, name):
    import json

    tree = _tree_through_infinity(request.getfixturevalue(name), 3)
    nodes = [(level, node) for level, row in enumerate(tree.levels) for node in row]
    assert any(node.terminated_reason for _, node in nodes)
    expected = [json.dumps(_node_dict(level, node), sort_keys=True) for level, node in nodes]
    assert orbit_tree_jsonl(tree) == expected


# extreme and integer-valued floats, and the non-finite values, which json
# writes as NaN and Infinity; the formatter writes them the same way
ODD_FLOATS = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -3.0, 0.0, 1e16, 2.5e-7,
              float("nan"), float("inf"), float("-inf")]


def _odd_states(count=8, seed=0):
    rng = random.Random(seed)

    def z():
        return complex(rng.choice(ODD_FLOATS), rng.choice(ODD_FLOATS))

    return [PhasePoint(ProjPoint((z(), z(), z())), DirectionPoint((z(), z(), z()), False))
            for _ in range(count)]


def test_orbit_lines_match_json_dumps_on_odd_floats():
    import json

    from algbilliards.phase import OrbitNode, OrbitTree

    states = _odd_states(40)
    nodes = tuple(OrbitNode(x, k - 1, k + 1, "scratch" if k % 3 else None)
                  for k, x in enumerate(states))
    tree = OrbitTree(root=states[0], depth=0, levels=(nodes,))
    assert orbit_tree_jsonl(tree) == [json.dumps(_node_dict(0, n), sort_keys=True) for n in nodes]
    for step, x in enumerate(states):
        assert orbit_step_json(step, x) == json.dumps(
            {"step": step, **phase_point_json(x)}, sort_keys=True)
    assert any("NaN" in line or "Infinity" in line for line in orbit_tree_jsonl(tree))


def test_real_step_long_run_stability():
    """10^4 classical bounces stay on the curve to rounding accuracy."""
    from algbilliards.curve import on_curve_residual
    from algbilliards.sampling import sample_real_state

    c = ellipse()
    x = sample_real_state(c, seed=1)
    worst = 0.0
    for i in range(10000):
        x = real_billiard_step(c, x)
        if i % 500 == 0:
            worst = max(worst, on_curve_residual(c, x.c))
    assert worst < 1e-10


def test_quartic_branch_residuals():
    """Degree-4 tables: three branches per step, same residual guarantees."""
    from algbilliards.curve import on_curve_residual, PlaneCurve
    from algbilliards.sampling import sample_phase_points

    quartic = PlaneCurve.from_coeffs(
        4,
        {(4, 0, 0): 1, (0, 4, 0): 2, (0, 0, 4): 1, (1, 1, 2): 1,
         (1, 0, 3): 1, (0, 1, 3): 1},
    )
    for x in sample_phase_points(quartic, 50, seed=13):
        out = billiard_step(quartic, x)
        assert out.total_multiplicity() == 3
        for br in out.images:
            assert on_curve_residual(quartic, br.point.c) < 1e-7
        sec = secant(quartic, x)
        for br in sec.images:
            assert collinearity_residual(x, br.point) < 1e-7
