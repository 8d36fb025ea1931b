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
    confinement_reports,
    enumerate_scratch_points,
    infinity_experiment,
    infinity_experiment_starts,
    isotropic_experiment,
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


@pytest.mark.parametrize("name", ["ellipse", "cubic", "quartic"])
def test_isotropic_limits_lie_on_the_fiber_over_the_tangency_point(request, name):
    """Every isotropic limit's base point is the tangency point (a tested
    property, not a gate of ``passed``): at seed 1 each lies within 5.3e-10
    of it on the three curves."""
    curve = request.getfixturevalue(name)
    points = enumerate_scratch_points(curve)
    experiments = [isotropic_experiment(s, 3, 1 + k) for k, s in enumerate(points) if s.kind != "infinity"]
    for rep in confinement_reports(curve, experiments):
        assert max(proj_distance(lim.c, rep.scratch.phase.c) for group in rep.limits for lim in group) < 1e-7


def chain_with_differences(diffs, scale):
    """A one-component chain of values near ``scale`` whose Richardson
    extrapolants climb from ``scale`` by ``diffs``: each value is the mean
    of its predecessor and the extrapolant they give."""
    values, rich = [scale], scale
    for d in (*diffs, 0.0):
        values.append((rich + values[-1]) / 2)
        rich += d
    return [(v,) for v in values]


# Richardson difference sequences recorded from confine runs, with the
# largest value of their component
ORDER_2_TO_FLOOR = ([1.27e-07, 5.63e-08, 1.78e-08, 4.88e-09, 1.37e-09, 3.21e-10, 4.33e-10, 7.05e-10,
                     4.28e-10, 2.13e-09, 2.1e-09], 1.654)  # quartic seed 146
ORDER_2_THEN_GROWTH = ([7.92e-04, 1.98e-04, 4.97e-05, 1.24e-05, 3.28e-06, 2.32e-06, 4.39e-06, 8.77e-06,
                        1.76e-05, 3.51e-05, 7.02e-05], 9.971)  # sextic seed 3
CERTIFIED = {
    "order 2 to the floor": ORDER_2_TO_FLOOR,
    "order 2 then rounding growth": ORDER_2_THEN_GROWTH,
    "pre-asymptotic ratios 12 to 4": ([2.07, 0.18, 0.0308, 0.00651, 0.0015, 3.61e-04, 8.86e-05, 2.19e-05,
                                       5.46e-06, 1.36e-06, 3.43e-07], 5.643),  # quartic seed 147
    "pre-asymptotic ratios 7 to 4": ([9.53e-06, 1.3e-06, 2.03e-07, 3.84e-08, 8.41e-09, 2.18e-09, 2.71e-10,
                                      4.89e-10, 1.55e-09, 2.1e-09, 4.92e-09], 0.2432),  # sextic seed 28
    "floor after two halvings": ([2.3e-07, 2.09e-08, 1.01e-09, 4.68e-10, 2.62e-10, 2.67e-10, 8.53e-10,
                                  1.18e-09, 2.3e-09, 6.1e-10, 3.32e-09], 1.121),  # sextic seed 30
    "rounding level throughout": (ORDER_2_TO_FLOOR[0][5:], 1.654),
}
REJECTED = {
    "order 1": ([1e-3 * 2.0**-k for k in range(11)], 1.0),
    "branch point": ([1e-3 * 2.0**-(k / 2) for k in range(11)], 1.0),
    "jump after the window": (ORDER_2_THEN_GROWTH[0][:8] + [9.971] + ORDER_2_THEN_GROWTH[0][9:], 9.971),
}


@pytest.mark.parametrize("diffs,scale,certified",
                         [(*CERTIFIED[k], True) for k in CERTIFIED] + [(*REJECTED[k], False) for k in REJECTED],
                         ids=[*CERTIFIED, *REJECTED])
def test_richardson_limit_certifies_the_halving_error_model(diffs, scale, certified):
    import algbilliards.blowup as blowup

    limit, final_diff, ok = blowup._richardson_limit(chain_with_differences(diffs, scale))
    assert ok is certified
    assert final_diff == pytest.approx(diffs[-1], rel=1e-4)
    assert limit[0] == pytest.approx(scale + sum(diffs), rel=1e-12)


def _cubic_infinity_report(cubic, monkeypatch, edit):
    """The report of two starts at a cubic scratch point at infinity, each
    start's chains passed through ``edit`` as lists of value tuples, then
    written back into the follower's (start, chain, eps, value) array."""
    import algbilliards.blowup as blowup

    chains_of = blowup._chains

    def edited(*args):
        chains, has, lost_at = chains_of(*args)
        for start, present in zip(chains, has):
            lists = [[tuple(v) for v in chain] for chain in start[present]]
            edit(lists)
            start[present] = lists
        return chains, has, lost_at

    scratch = [s for s in enumerate_scratch_points(cubic) if s.kind == "infinity" and s.basic][0]
    starts = infinity_experiment_starts(scratch, sample_curve_points(cubic, 16, 7), 2)
    with monkeypatch.context() as patch:
        patch.setattr(blowup, "_chains", edited)
        return confinement_reports(cubic, [infinity_experiment(scratch, starts)])[0]


def test_a_mutated_follower_is_caught(cubic, monkeypatch):
    """A chain that takes the farthest value at one late halving moves its
    limit, and the convergence test refuses it; swapping two chains early in
    the schedule leaves the limit set, the final difference and the verdict
    as they are."""
    clean = _cubic_infinity_report(cubic, monkeypatch, lambda chains: None)
    assert clean.passed() and all(len(group) == 2 for group in clean.limits)

    def farthest_late(chains):
        k, first = len(chains[0]) - 2, chains[0]
        first[k] = max((chain[k] for chain in chains), key=lambda v: max(abs(a - b) for a, b in zip(v, first[k - 1])))

    late = _cubic_infinity_report(cubic, monkeypatch, farthest_late)
    assert phase_distance(late.limits[0][0], clean.limits[0][0]) > 1e-3
    assert not late.cauchy_ok and not late.passed()

    def swap_early(chains):
        chains[0][2:], chains[1][2:] = chains[1][2:], chains[0][2:]

    swapped = _cubic_infinity_report(cubic, monkeypatch, swap_early)
    assert swapped.cauchy_ok and swapped.passed()
    assert swapped.max_final_diff == clean.max_final_diff
    for a, b in zip(swapped.limits, clean.limits):
        assert sorted(map(repr, a)) == sorted(map(repr, b))


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
    """Two stacked billiard calls for all starts of three experiments give,
    bitwise, the reports of the same experiments stepped one experiment,
    one start, one eps and one state at a time.  The experiment of ``kind``
    is stacked between two of the other kind, with 3, 2 and 4 starts."""
    import json

    import algbilliards.blowup as blowup

    curve = request.getfixturevalue(name)
    points = enumerate_scratch_points(curve)

    def experiment(kind, count):
        scratch = [s for s in points if s.kind == kind and s.basic][count % 2]
        if kind == "infinity":
            candidates = sample_curve_points(curve, 8 * count, 5 + count)
            return infinity_experiment(scratch, infinity_experiment_starts(scratch, candidates, count))
        return isotropic_experiment(scratch, count, 5 + count)

    other = "isotropic_plus" if kind == "infinity" else "infinity"
    experiments = [experiment(other, 3), experiment(kind, 2), experiment(other, 4)]

    def reports_json():
        reports = confinement_reports(curve, experiments)
        assert all(rep.passed() for rep in reports)
        return json.dumps([rep.to_dict() for rep in reports], sort_keys=True)

    stacked = reports_json()
    followed = []

    def reference(curve, runs, eps):
        followed.append([len(x0s) for _, x0s in runs])
        return [one_state_follow(curve, scratch, x0s, eps) for scratch, x0s in runs]

    monkeypatch.setattr(blowup, "_follow", reference)
    assert reports_json() == stacked
    # the reference ran once, on all starts of all experiments
    assert followed == [[3, 2, 4]]


def test_the_first_failed_experiment_raises(ellipse, monkeypatch):
    """A step error recorded in the first stacked step fails only the
    experiment of its state; of several failed experiments the first in
    order raises, a NonConvergenceError exactly as a PhaseError."""
    import algbilliards.blowup as blowup
    from algbilliards.numerics import NonConvergenceError
    from algbilliards.phase import ScratchPointError

    s = _ellipse_infinity_scratch(ellipse)
    iso = scratch_of(enumerate_scratch_points(ellipse), "isotropic_plus")
    experiments = [infinity_experiment(s, [proj_point(0, -1, 1)]), infinity_experiment(s, [proj_point(0, 1, 1)]),
                   isotropic_experiment(iso, 3, 11)]
    n = blowup.EPS_COUNT
    step_rows, injected = blowup._step_rows, {}

    def failing(curve, c, q):
        src, images, directions, mult, reasons, ill = step_rows(curve, c, q)
        if len(c) == 5 * n:  # the first step: an ellipse state has one child
            for row, error in injected.items():
                reasons[row] = error
        return src, images, directions, mult, reasons, ill

    monkeypatch.setattr(blowup, "_step_rows", failing)
    injected[5 * n - 1] = ScratchPointError("injected into the isotropic experiment")
    with pytest.raises(ScratchPointError):
        confinement_reports(ellipse, experiments)
    injected[n] = NonConvergenceError("injected into the second experiment")
    with pytest.raises(NonConvergenceError):
        confinement_reports(ellipse, experiments)
    assert confinement_reports(ellipse, experiments[:1])[0].passed()


def _with_step_rows(monkeypatch, edit):
    """Route ``blowup._step_rows`` through ``edit(call, c, q, rows)``, which
    may change the rows of the k-th call (0 the first step, 1 the second)
    in place; the calls are counted per ``_follow``."""
    import algbilliards.blowup as blowup

    step_rows, follow, calls = blowup._step_rows, blowup._follow, []

    def edited(curve, c, q):
        rows = step_rows(curve, c, q)
        edit(len(calls), c, q, rows)
        calls.append(len(c))
        return rows

    def counted(*args):
        calls.clear()
        return follow(*args)

    monkeypatch.setattr(blowup, "_step_rows", edited)
    monkeypatch.setattr(blowup, "_follow", counted)


def test_a_terminated_isotropic_pick_is_reflected_alone(ellipse, monkeypatch):
    """A followed first-step child of an isotropic experiment that ended
    in termination is reflected on its own.  That reflection is bitwise the
    stacked one, so the report is unchanged; a pick that cannot be reflected
    fails the experiment with the reflection's error."""
    import json

    from algbilliards.phase import ScratchPointError

    iso = scratch_of(enumerate_scratch_points(ellipse), "isotropic_plus")
    experiments = [isotropic_experiment(iso, 3, 11)]

    def reports_json():
        return json.dumps([rep.to_dict() for rep in confinement_reports(ellipse, experiments)], sort_keys=True)

    expected, at_scratch = reports_json(), False

    def terminate(call, c, q, rows):
        src, images, directions, _, reasons, _ = rows
        if call == 0:  # an ellipse state has one child, so child row = state row
            for r in range(len(src)):
                reasons[r] = "isotropic_scratch"
                directions[r] = q[src[r]]
                if at_scratch:
                    images[r], directions[r] = iso.phase.c.coords, iso.phase.q.q

    _with_step_rows(monkeypatch, terminate)
    assert reports_json() == expected
    at_scratch = True
    with pytest.raises(ScratchPointError):
        confinement_reports(ellipse, experiments)


def test_a_second_step_error_fails_only_its_experiment(ellipse, monkeypatch):
    """An error recorded in the second stacked step fails only the
    experiment of its state; the first failed experiment in order raises."""
    import algbilliards.blowup as blowup
    from algbilliards.numerics import NonConvergenceError
    from algbilliards.phase import ScratchPointError

    s = _ellipse_infinity_scratch(ellipse)
    iso = scratch_of(enumerate_scratch_points(ellipse), "isotropic_plus")
    experiments = [infinity_experiment(s, [proj_point(0, -1, 1)]), infinity_experiment(s, [proj_point(0, 1, 1)]),
                   isotropic_experiment(iso, 3, 11)]
    n, injected = blowup.EPS_COUNT, {}

    def inject(call, c, q, rows):
        if call == 1:
            for row, error in injected.items():
                rows[4][row] = error

    _with_step_rows(monkeypatch, inject)
    injected[5 * n - 1] = ScratchPointError("injected into the isotropic experiment")
    runs = [(ex.scratch, xs) for ex, xs in zip(experiments, blowup._follower_starts(ellipse, experiments))]
    outcomes = blowup._follow(ellipse, runs, blowup.default_eps_schedule())
    assert [type(o) for o in outcomes] == [list, list, ScratchPointError]
    with pytest.raises(ScratchPointError):
        confinement_reports(ellipse, experiments)
    injected[n] = NonConvergenceError("injected into the second experiment")
    with pytest.raises(NonConvergenceError):
        confinement_reports(ellipse, experiments)


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

    def broken(curve, c, q):
        raise ZeroDivisionError("injected")

    s = _ellipse_infinity_scratch(ellipse)
    monkeypatch.setattr(blowup, "_reflect_rows", broken)
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

    def unreachable(curve, c, q):
        raise ZeroDivisionError("sampled a start")

    iso = scratch_of(enumerate_scratch_points(ellipse), "isotropic_plus")
    monkeypatch.setattr(blowup, "_secant_rows", unreachable)
    with pytest.raises(BlowupError, match=f"at least {blowup.MIN_ISOTROPIC_STARTS}"):
        confinement_experiment_isotropic(ellipse, iso, n_samples=1)
