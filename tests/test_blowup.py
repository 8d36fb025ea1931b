"""Tests for blowup charts, limit maps, and the confinement experiments."""

import math
import random

import pytest

from algbilliards.blowup import (
    BlowupError,
    BoundaryPointError,
    ExceptionalParam,
    GenericityFailureError,
    confinement_experiment_infinity_multi,
    confinement_experiment_isotropic,
    enumerate_scratch_points,
    infinity_experiment_starts,
    reflect_at_infinity_limit,
    reflect_at_isotropic_limit,
    secant_at_infinity_limit,
    secant_at_isotropic_limit,
)
from algbilliards.curve import on_curve_residual, proj_distance, proj_point
from algbilliards.phase import (
    PhasePoint,
    conic_residual,
    direction_point,
    phase_distance,
    reflect,
    rotate_direction,
    secant,
)
from algbilliards.sampling import sample_curve_points


def scratch_of(points, kind, predicate=None):
    for s in points:
        if s.kind == kind and (predicate is None or predicate(s)):
            return s
    raise AssertionError(f"no scratch point of kind {kind}")


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_ellipse(ellipse):
    pts = enumerate_scratch_points(ellipse)
    assert len(pts) == 8
    kinds = {k: sum(1 for s in pts if s.kind == k) for k in
             ("infinity", "isotropic_plus", "isotropic_minus")}
    assert kinds == {"infinity": 4, "isotropic_plus": 2, "isotropic_minus": 2}
    assert all(s.basic for s in pts)


def test_census_cubic(cubic):
    pts = enumerate_scratch_points(cubic)
    assert len(pts) == 18
    assert sum(1 for s in pts if s.kind == "infinity") == 6


def test_census_quartic(quartic):
    pts = enumerate_scratch_points(quartic)
    assert len(pts) == 32


def test_census_rejects_circle(circle):
    with pytest.raises(GenericityFailureError):
        enumerate_scratch_points(circle)


def test_census_deterministic_order(ellipse):
    a = enumerate_scratch_points(ellipse)
    b = enumerate_scratch_points(ellipse)
    assert [s.describe() for s in a] == [s.describe() for s in b]


# ---------------------------------------------------------------------------
# infinity-kind limit maps
# ---------------------------------------------------------------------------


def _ellipse_infinity_scratch(ellipse):
    pts = enumerate_scratch_points(ellipse)
    return scratch_of(
        pts,
        "infinity",
        lambda s: abs(s.phase.c.coords[1] - 0.5j) < 1e-9 and s.phase.q.q[2].real > 0,
    )


def test_secant_infinity_limit_frozen_values(ellipse):
    # chart normal at [2 : i : 0] is n = (-i/2, 1); kappa((0, -1)) = -1 and
    # the level set kappa = +1 meets the ellipse only at (0, 1)
    s = _ellipse_infinity_scratch(ellipse)
    out = secant_at_infinity_limit(ellipse, ExceptionalParam(s, 1.0))
    assert out.total_multiplicity() == 1
    assert proj_distance(out.images[0].point.c, proj_point(0, 1, 1)) < 1e-9
    out = secant_at_infinity_limit(ellipse, ExceptionalParam(s, -1.0))
    assert proj_distance(out.images[0].point.c, proj_point(0, -1, 1)) < 1e-9


def test_secant_infinity_limit_on_curve_and_on_line(ellipse):
    s = _ellipse_infinity_scratch(ellipse)
    chart = s.chart
    rng = random.Random(4)
    for _ in range(10):
        v = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        if abs(v) < 0.1:
            continue
        out = secant_at_infinity_limit(ellipse, ExceptionalParam(s, v))
        for br in out.images:
            assert on_curve_residual(ellipse, br.point.c) < 1e-7
            x0, x1 = br.point.c.affine()
            assert abs(chart.kappa(x0, x1) - v) < 1e-7


def test_secant_infinity_limit_boundary(ellipse):
    s = _ellipse_infinity_scratch(ellipse)
    with pytest.raises(BoundaryPointError):
        secant_at_infinity_limit(ellipse, ExceptionalParam(s, 0.0))


def test_reflect_infinity_limit_negates(ellipse):
    s = _ellipse_infinity_scratch(ellipse)
    e = ExceptionalParam(s, 2 + 1j)
    assert reflect_at_infinity_limit(ellipse, e).value == -(2 + 1j)
    assert reflect_at_infinity_limit(ellipse, ExceptionalParam(s, 0.0)).value == 0.0
    # involution
    twice = reflect_at_infinity_limit(
        ellipse, reflect_at_infinity_limit(ellipse, e)
    )
    assert twice.value == e.value


# ---------------------------------------------------------------------------
# isotropic-kind limit maps
# ---------------------------------------------------------------------------


def test_secant_isotropic_limit_negates_and_static_empty(ellipse):
    pts = enumerate_scratch_points(ellipse)
    iso = scratch_of(pts, "isotropic_plus")
    neg, static = secant_at_isotropic_limit(ellipse, ExceptionalParam(iso, 0.7 - 0.2j))
    assert neg.value == -(0.7 - 0.2j)
    assert len(static.images) == 0  # d - 2 = 0


def test_secant_isotropic_limit_cubic_static_point(cubic):
    pts = enumerate_scratch_points(cubic)
    iso = scratch_of(pts, "isotropic_plus")
    _neg, static = secant_at_isotropic_limit(cubic, ExceptionalParam(iso, 1.0))
    assert static.total_multiplicity() == 1  # d - 2 = 1
    br = static.images[0]
    assert on_curve_residual(cubic, br.point.c) < 1e-7
    assert br.point.q is iso.phase.q


def test_reflect_isotropic_limit_injective_and_on_fiber(ellipse):
    pts = enumerate_scratch_points(ellipse)
    iso = scratch_of(pts, "isotropic_plus")
    p1 = reflect_at_isotropic_limit(ellipse, ExceptionalParam(iso, 0.5))
    p2 = reflect_at_isotropic_limit(ellipse, ExceptionalParam(iso, 1.0))
    # image lies on the direction fiber over the tangency point
    assert p1.c is iso.phase.c
    assert conic_residual(*p1.q.q) < 1e-6
    # distinct chart values give distinct images
    assert phase_distance(p1, p2) > 1e-6


def test_reflect_isotropic_limit_conjugate_symmetry(ellipse):
    pts = enumerate_scratch_points(ellipse)
    plus = scratch_of(pts, "isotropic_plus")
    conj_c = plus.phase.c.conjugate()
    minus = scratch_of(
        pts, "isotropic_minus", lambda s: proj_distance(s.phase.c, conj_c) < 1e-8
    )
    p_plus = reflect_at_isotropic_limit(ellipse, ExceptionalParam(plus, 0.75))
    p_minus = reflect_at_isotropic_limit(ellipse, ExceptionalParam(minus, 0.75))
    conj = PhasePoint(c=p_plus.c.conjugate(), q=p_plus.q.conjugate())
    assert phase_distance(conj, p_minus) < 1e-6


# ---------------------------------------------------------------------------
# confinement experiments
# ---------------------------------------------------------------------------


def test_confinement_infinity_ellipse_closed_form(ellipse):
    s = _ellipse_infinity_scratch(ellipse)
    rep = confinement_experiment_infinity_multi(ellipse, s, [proj_point(0, -1, 1)])
    assert rep.cauchy_ok
    assert rep.max_prediction_error < 1e-5
    lim = rep.limits[0][0]
    assert proj_distance(lim.c, proj_point(0, 1, 1)) < 1e-6
    s3 = math.sqrt(3)
    expected_q = direction_point(2 / s3, -1j / s3, 1)
    assert phase_distance(lim, PhasePoint(lim.c, expected_q)) < 1e-6


def test_confinement_infinity_two_starts_distinct(ellipse):
    s = _ellipse_infinity_scratch(ellipse)
    rep = confinement_experiment_infinity_multi(
        ellipse, s, [proj_point(0, -1, 1), proj_point(0, 1, 1)]
    )
    # the two limits differ in the curve coordinate: distinct points
    assert rep.min_pairwise_limit_distance > 1e-3
    assert rep.passed()


def test_confinement_isotropic_ellipse(ellipse):
    pts = enumerate_scratch_points(ellipse)
    iso = scratch_of(pts, "isotropic_plus")
    rep = confinement_experiment_isotropic(ellipse, iso, n_samples=4, seed=11)
    assert rep.cauchy_ok
    assert rep.min_pairwise_limit_distance > 1e-4
    for group in rep.limits:
        assert proj_distance(group[0].c, iso.phase.c) < 1e-5


def test_confinement_isotropic_cubic_samples_distinct(cubic):
    pts = enumerate_scratch_points(cubic)
    iso = scratch_of(pts, "isotropic_plus")
    rep = confinement_experiment_isotropic(cubic, iso, n_samples=5, seed=3)
    assert rep.cauchy_ok
    assert len(rep.limits) == 5
    assert rep.min_pairwise_limit_distance > 1e-4


def one_state_step(curve, x):
    """The billiard images of x, with x and each of its secant images
    stepped alone (billiard_step reflects the images as one stack)."""
    return [reflect(curve, p).images[0].point for p in secant(curve, x).points()]


def one_state_follow(curve, scratch, x0s, eps):
    """The follower written as loops over the starts and over eps of
    one-state steps: per start, (chains, last distance to the scratch)."""
    out = []
    for x0 in x0s:
        chains, distance = [], None
        for e in eps:
            x = PhasePoint(c=x0.c, q=rotate_direction(x0.q, e))
            if scratch.kind == "infinity":
                y = min(one_state_step(curve, x), key=lambda p: phase_distance(p, scratch.phase))
                finals = one_state_step(curve, y)
            else:
                def near(p):
                    return proj_distance(p.c, scratch.phase.c)
                y = min(one_state_step(curve, x), key=near)
                finals = [min(one_state_step(curve, y), key=near)]
            distance = phase_distance(y, scratch.phase)
            vectors = [(*p.c.affine(), *p.q.affine()) for p in finals]
            if not chains:
                chains = [[v] for v in sorted(vectors, key=lambda v: (v[0].real, v[0].imag))]
                continue
            for chain in chains:
                v = min(vectors, key=lambda w: max(abs(a - b) for a, b in zip(w, chain[-1])))
                vectors.remove(v)
                chain.append(v)
        out.append((chains, distance))
    return out


@pytest.mark.parametrize("name", ["cubic", "quartic"])
@pytest.mark.parametrize("kind", ["infinity", "isotropic_plus"])
def test_follower_matches_one_state_steps(request, monkeypatch, name, kind):
    """Two stacked billiard calls for all starts give, bitwise, the report
    of the same experiment stepped one start, one eps and one state at a
    time."""
    import json

    import algbilliards.blowup as blowup

    curve = request.getfixturevalue(name)
    scratch = scratch_of(enumerate_scratch_points(curve), kind, lambda s: s.basic)

    def report_json():
        if kind == "infinity":
            candidates = sample_curve_points(curve, 24, 5)
            starts = infinity_experiment_starts(curve, scratch, candidates, 3)
            rep = confinement_experiment_infinity_multi(curve, scratch, starts)
        else:
            rep = confinement_experiment_isotropic(curve, scratch, n_samples=3, seed=5)
        assert rep.passed()
        return json.dumps(rep.to_dict(), sort_keys=True)

    stacked = report_json()
    followed = []

    def reference(curve, scratch, x0s, eps):
        followed.append(len(x0s))
        return one_state_follow(curve, scratch, x0s, eps)

    monkeypatch.setattr(blowup, "_follow", reference)
    assert report_json() == stacked
    # the experiment ran the reference, on all of its starts at once
    assert followed == [3]


def test_confinement_report_json_roundtrip(ellipse):
    import json

    s = _ellipse_infinity_scratch(ellipse)
    rep = confinement_experiment_infinity_multi(ellipse, s, [proj_point(0, -1, 1)])
    text = json.dumps(rep.to_dict(), sort_keys=True)
    data = json.loads(text)
    assert data["scratch"]["kind"] == "infinity"
    assert "max_prediction_error" in data


def test_confinement_propagates_unexpected_reflect_errors(ellipse, monkeypatch):
    # an unexpected reflection error is a bug, never a branch to drop
    import algbilliards.blowup as blowup

    def broken(curve, x):
        raise ZeroDivisionError("injected")

    s = _ellipse_infinity_scratch(ellipse)
    monkeypatch.setattr(blowup, "reflect", broken)
    with pytest.raises(ZeroDivisionError):
        confinement_experiment_infinity_multi(ellipse, s, [proj_point(0, -1, 1)])


def test_confinement_infinity_refuses_no_starts(ellipse):
    # an empty run would otherwise collate into a vacuously passing report
    s = _ellipse_infinity_scratch(ellipse)
    with pytest.raises(BlowupError):
        confinement_experiment_infinity_multi(ellipse, s, [])


def test_confinement_isotropic_refuses_one_start_before_sampling(ellipse, monkeypatch):
    # the limits must be seen to vary with the start, so one start cannot pass
    import algbilliards.blowup as blowup

    def unreachable(curve, x):
        raise ZeroDivisionError("sampled a start")

    iso = scratch_of(enumerate_scratch_points(ellipse), "isotropic_plus")
    monkeypatch.setattr(blowup, "secant", unreachable)
    with pytest.raises(BlowupError, match=f"at least {blowup.MIN_ISOTROPIC_STARTS}"):
        confinement_experiment_isotropic(ellipse, iso, n_samples=1)
