"""Blowup charts at scratch points and the confinement experiments.

A scratch point is a state where one of the two correspondence factors is
indeterminate: at infinity (base point on the infinity line with the line
direction equal to its own tangent direction, which kills the secant step)
or isotropic (direction at an isotropic point of the conic equal to the
tangent direction at an isotropic tangency point, which kills reflection).
A generic degree-d table has exactly 2d scratch points at infinity and
d(d-1) isotropic ones per sign: 2 d^2 in total.

Blowing up a scratch point replaces it by an exceptional line E of
directions of approach, and the correspondences extend to E:

* at infinity, E is the pencil of lines with the tangent direction; the
  secant step sends the pencil member at offset v to its d-1 affine
  intersections with the curve, and reflection negates the offset;
* at an isotropic point, the secant step negates the local curve parameter
  (plus a fixed multiset on the tangent line), and reflection maps E onto
  the direction fiber, a limit realized here by explicit epsilon sequences
  with Richardson extrapolation.

The two confinement experiments drive an actual double billiard step along
shrinking perturbations and compare the extrapolated limits against the
chart-level predictions; distinct starting points must give distinct
limits, which is exactly the "what blows down must blow up" phenomenon.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from .curve import (
    PlaneCurve,
    ProjPoint,
    curve_point_near,
    genericity_report,
    point_order_key,
    proj_distance,
    proj_point,
    tangent_at,
    tangent_frame,
)
from .numerics import NonConvergenceError
from .numerics import find_roots  # noqa: F401 -- unused; bench/bench_trace.py wraps it
from .phase import (
    Branch,
    BranchSet,
    DirectionPoint,
    PhaseError,
    PhasePoint,
    TerminatedBranch,
    billiard_steps,
    direction_from_slope,
    direction_point,
    line_intersections,
    line_point,
    phase_distance,
    phase_point_json,
    reflect,
    rotate_direction,
    secant,
)

__all__ = [
    "ScratchPoint",
    "ExceptionalParam",
    "BlowupError",
    "GenericityFailureError",
    "BoundaryPointError",
    "BranchLostError",
    "ExtrapolationError",
    "enumerate_scratch_points",
    "secant_at_infinity_limit",
    "reflect_at_infinity_limit",
    "secant_at_isotropic_limit",
    "reflect_at_isotropic_limit",
    "confinement_experiment_infinity_multi",
    "confinement_experiment_isotropic",
    "ConfinementReport",
    "default_eps_schedule",
]

EPS_BASE = 1e-2
EPS_COUNT = 13
MIN_ISOTROPIC_STARTS = 2  # the isotropic limits must be seen to vary with the start


class BlowupError(ValueError):
    pass


class GenericityFailureError(BlowupError):
    """The curve fails a genericity condition required for the blowup census."""


class BoundaryPointError(BlowupError):
    """The requested exceptional parameter is one of the two boundary points."""


class BranchLostError(BlowupError):
    """No billiard branch approached the scratch point along the epsilon path."""


class ExtrapolationError(BlowupError):
    """The Richardson-extrapolated limit sequence is not Cauchy."""


def default_eps_schedule() -> list[float]:
    return [EPS_BASE * 2.0**-k for k in range(EPS_COUNT)]


KAPPA_MARGIN = 0.1


def infinity_experiment_starts(
    curve: PlaneCurve, scratch: ScratchPoint, candidates, count: int
):
    """The first ``count`` admissible starts among the candidate curve
    points, which are drawn no further than that."""
    chart: InfinityChart = scratch.chart
    good = []
    for c in candidates:
        if c.is_at_infinity:
            continue
        offset = chart.kappa(*c.affine())
        if KAPPA_MARGIN < abs(offset) < 1.0 / KAPPA_MARGIN:
            good.append(c)
        if len(good) == count:
            break
    if len(good) < count:
        raise BlowupError("not enough admissible starts among the candidates")
    return good


# ---------------------------------------------------------------------------
# scratch points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfinityChart:
    """Frame at a scratch point at infinity.

    kappa(x) = n0 x0 + n1 x1 + offset is the affine-linear functional whose
    level sets are the pencil of lines with the tangent direction, pinned so
    that the tangent line at the curve's infinity point (the asymptote) is
    exactly the level set kappa = 0.  Reflection across that line then
    negates kappa regardless of the normalization of n.  The offset vanishes
    only for tables whose asymptotes pass through the origin.
    """

    tangent: tuple[complex, complex]
    normal: tuple[complex, complex]
    offset: complex

    def kappa(self, x0: complex, x1: complex) -> complex:
        return self.normal[0] * x0 + self.normal[1] * x1 + self.offset

    def line_base_point(self, value: complex) -> tuple[complex, complex]:
        n0, n1 = self.normal
        norm2 = abs(n0) ** 2 + abs(n1) ** 2
        rhs = value - self.offset
        return (
            rhs * n0.conjugate() / norm2,
            rhs * n1.conjugate() / norm2,
        )


@dataclass(frozen=True)
class IsotropicChart:
    """Frame at an isotropic scratch point.

    tau is the unit isotropic tangent direction; nu = conj(tau) is a
    transversal Newton direction (the pairing grad F . nu never vanishes at
    a smooth point).  The exceptional coordinate of a nearby state
    (c + a tau + ..., q with conic chart value w) is the ratio a / w.
    """

    sign: int
    tau: tuple[complex, complex]
    nu: tuple[complex, complex]


@dataclass(frozen=True)
class ScratchPoint:
    kind: str  # "infinity" | "isotropic_plus" | "isotropic_minus"
    phase: PhasePoint
    basic: bool
    chart: InfinityChart | IsotropicChart

    def describe(self) -> dict:
        return {"kind": self.kind, "basic": self.basic, **phase_point_json(self.phase)}


@dataclass(frozen=True)
class ExceptionalParam:
    scratch: ScratchPoint
    value: complex


def enumerate_scratch_points(curve: PlaneCurve) -> list[ScratchPoint]:
    """All 2 d^2 scratch points of a curve in general position.

    Each of the d infinity points carries the two direction-conic points
    above its tangent slope; each isotropic tangency point (d(d-1) per sign)
    carries the isotropic direction it is tangent to.
    """
    report = genericity_report(curve)
    if not report.all_ok():
        raise GenericityFailureError(
            "curve fails genericity: " + "; ".join(report.diagnostics)
        )
    out: list[ScratchPoint] = []
    for p, _mult in report.infinity_points:
        td = tangent_at(curve, p)
        basic = _simple_tangency_at(curve, p)
        # pin kappa = 0 on the tangent line at the infinity point: the
        # affine tangent functional is (F0 x0 + F1 x1 + F2)/pivot, with the
        # same pivot that normalized the direction pair
        g = curve.gradient(*p.coords)
        t_raw = (g[1], -g[0])
        pivot = t_raw[0] if abs(t_raw[0]) >= abs(t_raw[1]) else t_raw[1]
        offset = g[2] / pivot
        for branch in (0, 1):
            q = direction_from_slope(td.tangent, branch)
            chart = InfinityChart(tangent=td.tangent, normal=td.normal, offset=offset)
            out.append(
                ScratchPoint(
                    kind="infinity",
                    phase=PhasePoint(c=p, q=q),
                    basic=basic and not q.is_isotropic,
                    chart=chart,
                )
            )
    for sign, kind in ((1, "isotropic_plus"), (-1, "isotropic_minus")):
        q = direction_point(1, sign * 1j, 0)
        for p, mult in report.isotropic_points[sign]:
            tau, nu = tangent_frame(curve, p)
            out.append(
                ScratchPoint(
                    kind=kind,
                    phase=PhasePoint(c=p, q=q),
                    basic=(mult == 1) and not p.is_at_infinity,
                    chart=IsotropicChart(sign=sign, tau=tau, nu=nu),
                )
            )
    kind_rank = {"infinity": 0, "isotropic_plus": 1, "isotropic_minus": 2}
    out.sort(
        key=lambda s: (
            kind_rank[s.kind],
            *point_order_key(s.phase.c.coords),
            s.phase.q.q[2].real,
            s.phase.q.q[2].imag,
        )
    )
    return out


def _simple_tangency_at(curve: PlaneCurve, p: ProjPoint) -> bool:
    """Contact order of the tangent line at p is exactly 2."""
    g = curve.gradient(*p.coords)
    # a direction spanning the tangent line besides p itself
    w = np.cross(g, p.coords)
    poly = curve.restrict_to_line(p.coords, w)
    scale = max(abs(c) for c in poly.coeffs)
    if scale == 0:
        return False
    coeffs = list(poly.coeffs) + [0j] * 3
    return abs(coeffs[2]) > 1e-8 * scale


def _require(scratch: ScratchPoint, family: str, basic: bool = True) -> None:
    """Refuse a scratch point outside ``family`` ("infinity" or "isotropic")
    and, when ``basic`` is set, a scratch point that is not basic."""
    if not scratch.kind.startswith(family):
        raise BlowupError(f"expected an {family}-kind scratch point")
    if basic and not scratch.basic:
        raise BlowupError("scratch point is not basic")


# ---------------------------------------------------------------------------
# chart limit maps
# ---------------------------------------------------------------------------


def secant_at_infinity_limit(curve: PlaneCurve, e: ExceptionalParam) -> BranchSet:
    """Secant step applied to a pencil member: the d-1 affine intersections
    of the line {kappa = value} with the curve, paired with the scratch
    direction.  The boundary members (tangent line at value 0 and the
    infinity line at value = infinity) are refused."""
    s = e.scratch
    _require(s, "infinity")
    if abs(e.value) < 1e-9 or abs(e.value) > 1e9:
        raise BoundaryPointError("pencil member is a boundary point of the chart")
    chart: InfinityChart = s.chart
    b0, b1 = chart.line_base_point(e.value)
    t0, t1 = chart.tangent
    # the pencil direction meets the curve at the scratch's infinity point,
    # so the restriction drops to degree d - 1
    base, direction = (b0, b1, 1.0), (t0, t1, 0.0)
    roots, at_direction = line_intersections(curve, base, direction)
    if at_direction != 1:
        raise BlowupError(
            f"line at offset {e.value} has unexpected intersection degree "
            f"{curve.degree - at_direction}"
        )
    branches = [
        Branch(PhasePoint(c=line_point(base, direction, r.value), q=s.phase.q), r.multiplicity)
        for r in roots
    ]
    branches.sort(key=lambda b: point_order_key(b.point.c.coords))
    return BranchSet(source=s.phase, op_tag="secant", images=tuple(branches))


def reflect_at_infinity_limit(curve: PlaneCurve, e: ExceptionalParam) -> ExceptionalParam:
    """Reflection fixes the scratch point and reflects the pencil across the
    tangent line: the chart offset is negated."""
    _require(e.scratch, "infinity")
    return ExceptionalParam(scratch=e.scratch, value=-e.value)


def secant_at_isotropic_limit(
    curve: PlaneCurve, e: ExceptionalParam
) -> tuple[ExceptionalParam, BranchSet]:
    """Secant step through an isotropic scratch point: the exceptional
    coordinate is negated, together with the static multiset of the d - 2
    other intersections of the isotropic tangent line."""
    s = e.scratch
    _require(s, "isotropic")
    chart: IsotropicChart = s.chart
    c = s.phase.c
    x0, x1 = c.affine()
    # base tangency contributes the double root at t = 0: strip two copies
    base, direction = (x0, x1, 1.0), (chart.tau[0], chart.tau[1], 0.0)
    try:
        roots, _ = line_intersections(curve, base, direction, remove=2)
    except PhaseError as exc:
        raise BlowupError("tangency at the scratch point is not simple") from exc
    branches = [
        Branch(PhasePoint(c=line_point(base, direction, r.value), q=s.phase.q), r.multiplicity)
        for r in roots
    ]
    static = BranchSet(source=s.phase, op_tag="secant", images=tuple(branches))
    return ExceptionalParam(scratch=s, value=-e.value), static


def _conic_chart_point(sign: int, w: complex) -> DirectionPoint:
    """Point of the conic with chart value w near the isotropic point (1, sign*i, 0):
    Q = (1, sign * i * sqrt(1 - w^2), w)."""
    q1 = sign * 1j * cmath.sqrt(1 - w * w)
    return direction_point(1.0, q1, w)


def _richardson(values: list[complex]) -> tuple[complex, list[float]]:
    """One-step Richardson extrapolation for f(eps_k) with eps_{k+1} = eps_k / 2.

    Returns the last extrapolant and the successive extrapolant differences.
    """
    rich = [2 * values[k + 1] - values[k] for k in range(len(values) - 1)]
    diffs = [abs(rich[k + 1] - rich[k]) for k in range(len(rich) - 1)]
    return rich[-1], diffs


def _extrapolate_vector(seq: list[tuple[complex, ...]]) -> tuple[tuple[complex, ...], float, bool]:
    """Componentwise Richardson extrapolation; returns (limit, final_diff, cauchy).

    Cauchy means every successive pair of extrapolant differences contracts
    by at least a factor of 2 until the differences reach the rounding
    floor; an analytic limit contracts by about 4 per halving, while a lost
    branch shows order-one differences that this test flags immediately.
    """
    comps = list(zip(*seq))
    limit = []
    worst = 0.0
    cauchy = True
    for comp in comps:
        value, diffs = _richardson(list(comp))
        limit.append(value)
        if not diffs:
            continue
        worst = max(worst, diffs[-1])
        if not _diffs_contract(diffs, max(abs(v) for v in comp)):
            cauchy = False
    return tuple(limit), worst, cauchy


def _diffs_contract(diffs: list[float], scale: float) -> bool:
    """Does a Richardson difference sequence certify convergence?

    Three conditions: a sustained window of factor->=2 contraction (an
    analytic limit gives about 4 per halving), an overall contraction of at
    least three orders of magnitude, and no rebound after the minimum (the
    tail may only plateau at its rounding floor).  A sequence that sits at
    rounding level throughout passes trivially.
    """
    top = max(diffs)
    if top <= 1e-8 * max(1.0, scale):
        return True
    bottom = min(diffs)
    if bottom > 1e-3 * top:
        return False
    # the tail jitters around its rounding floor, so only a rebound far
    # above the best level reached indicates a lost branch
    if diffs[-1] > 1e3 * max(bottom, 1e-300):
        return False
    need = max(3, len(diffs) // 3)
    run = 0
    for a, b in zip(diffs, diffs[1:]):
        if b == 0 or a >= 2.0 * b:
            run += 1
            if run >= need:
                return True
        else:
            run = 0
    return False


def reflect_at_isotropic_limit(
    curve: PlaneCurve, e: ExceptionalParam, eps_list: list[float] | None = None
) -> PhasePoint:
    """Limit of reflection along a path approaching the exceptional point.

    The path holds the blowup ratio a / w fixed at the chart value: the base
    point moves along the curve with parameter a = value * eps while the
    direction approaches the isotropic point with conic chart value w = eps.
    The reflected directions converge to a point of the direction fiber over
    the tangency point; the limit is Richardson-extrapolated and must be
    Cauchy at 1e-6.
    """
    s = e.scratch
    _require(s, "isotropic")
    chart: IsotropicChart = s.chart
    base = s.phase.c.affine()
    eps = default_eps_schedule() if eps_list is None else list(eps_list)
    samples = []
    for w in eps:
        c_eps = curve_point_near(curve, base, chart.tau, chart.nu, e.value * w)
        q_eps = _conic_chart_point(chart.sign, w)
        out = reflect(curve, PhasePoint(c=c_eps, q=q_eps))
        q_img = out.images[0].point.q
        samples.append(q_img.affine())
    limit, final_diff, cauchy = _extrapolate_vector(samples)
    if not cauchy or final_diff > 1e-6:
        raise ExtrapolationError(
            f"reflection limit not Cauchy (final difference {final_diff:.2e})"
        )
    q0, q1 = limit
    # exact projection onto the conic along the z = q0 + i q1 chart
    z = q0 + 1j * q1
    q_proj = direction_point((z + 1 / z) / 2, (z - 1 / z) / (2j), 1.0)
    return PhasePoint(c=s.phase.c, q=q_proj)


# ---------------------------------------------------------------------------
# confinement experiments
# ---------------------------------------------------------------------------

PREDICTION_TOL = 1e-5
SEPARATION_TOL = 1e-4


@dataclass(frozen=True)
class ConfinementReport:
    scratch: ScratchPoint
    eps: tuple[float, ...]
    samples: tuple[dict, ...]
    limits: tuple[tuple[PhasePoint, ...], ...]
    predicted: tuple[tuple[PhasePoint, ...], ...]
    max_prediction_error: float
    min_pairwise_limit_distance: float
    cauchy_ok: bool
    max_final_diff: float

    def passed(self) -> bool:
        """Cauchy limits, chart-prediction agreement where a prediction
        exists, and nonconstant dependence on the start where several
        starts were run.  The final Richardson difference only needs to be
        sane; its size is diagnostic, the accuracy gate is the prediction."""
        ok = self.cauchy_ok and self.max_final_diff < 1e-3
        if self.predicted and any(len(p) for p in self.predicted):
            ok = ok and self.max_prediction_error < PREDICTION_TOL
        if len(self.limits) >= 2:
            ok = ok and self.min_pairwise_limit_distance > SEPARATION_TOL
        return ok

    def to_dict(self) -> dict:
        return {
            "scratch": self.scratch.describe(),
            "eps": list(self.eps),
            "samples": list(self.samples),
            "limits": [
                [phase_point_json(p) for p in group] for group in self.limits
            ],
            "predicted": [
                [phase_point_json(p) for p in group] for group in self.predicted
            ],
            "max_prediction_error": self.max_prediction_error,
            "min_pairwise_limit_distance": self.min_pairwise_limit_distance,
            "cauchy_ok": self.cauchy_ok,
            "max_final_diff": self.max_final_diff,
        }


def _require_approach(distances: list[float]) -> None:
    """Refuse a followed branch that did not demonstrably converge toward
    the scratch point.

    The distance scales linearly in eps with a geometry-dependent constant,
    so for far-out scratch points an absolute bound misfires; accept either
    a small final distance or a 50-fold contraction across the schedule.
    """
    if not (distances[-1] < 1e-3 or distances[-1] < distances[0] / 50.0):
        raise BranchLostError(
            f"nearest branch stayed {distances[-1]:.2e} from the scratch point"
        )


def _nearest(items, distance, lost: str):
    """The item nearest by ``distance``; the first of equally near items
    wins.  No items at all means the branch is lost."""
    if not items:
        raise BranchLostError(lost)
    return min(items, key=distance)


def _phase_vector(p: PhasePoint) -> tuple[complex, ...]:
    x0, x1 = p.c.affine()
    q0, q1 = p.q.affine()
    return (x0, x1, q0, q1)


def _vector_to_phase(v: tuple[complex, ...]) -> PhasePoint:
    x0, x1, q0, q1 = v
    return PhasePoint(
        c=proj_point(x0, x1, 1.0),
        q=DirectionPoint(q=proj_point(q0, q1, 1.0).coords,
                         is_isotropic=False),
    )


def _set_distance(a: tuple[PhasePoint, ...], b: tuple[PhasePoint, ...]) -> float:
    """Hausdorff distance between two finite sets of phase points."""
    d_ab = max(min(phase_distance(x, y) for y in b) for x in a)
    d_ba = max(min(phase_distance(x, y) for y in a) for x in b)
    return max(d_ab, d_ba)


def _report(scratch: ScratchPoint, eps: list[float], runs) -> ConfinementReport:
    """Collate per-start runs (sample metadata, chains, predicted limits).

    Each chain is Richardson-extrapolated to one limit of its start.  The
    prediction error is the Hausdorff distance between a start's limits and
    its predicted limits; the separation is the least Hausdorff distance
    between the limit sets of two starts.
    """
    limits = []
    cauchy_all = True
    worst_diff = 0.0
    pred_err = 0.0
    for _sample, chains, predicted in runs:
        group = []
        for chain in chains:
            limit, final_diff, cauchy = _extrapolate_vector(chain)
            worst_diff = max(worst_diff, final_diff)
            cauchy_all = cauchy_all and cauchy
            group.append(_vector_to_phase(limit))
        limits.append(tuple(group))
        if predicted:
            # phase_distance is not bitwise symmetric: the limit stays its
            # first argument in both directions
            dists = [[phase_distance(lim, p) for p in predicted] for lim in group]
            pred_err = max(pred_err, *map(min, dists), *map(min, zip(*dists)))
    separations = [
        _set_distance(a, b) for i, a in enumerate(limits) for b in limits[i + 1:]
    ]
    return ConfinementReport(
        scratch=scratch,
        eps=tuple(eps),
        samples=tuple(sample for sample, _, _ in runs),
        limits=tuple(limits),
        predicted=tuple(tuple(predicted) for _, _, predicted in runs),
        max_prediction_error=pred_err,
        min_pairwise_limit_distance=min([math.inf, *separations]),
        cauchy_ok=cauchy_all,
        max_final_diff=worst_diff,
    )


def confinement_experiment_infinity_multi(
    curve: PlaneCurve,
    scratch: ScratchPoint,
    starts: list[ProjPoint],
    eps_list: list[float] | None = None,
) -> ConfinementReport:
    """Drive b^2 through a scratch point at infinity from each start (c0, q).

    For each eps the direction is rotated off the scratch direction by eps;
    the first-step branch passing nearest the scratch is followed, the
    second step expands fully, and each surviving chain is extrapolated.
    The prediction composes the chart maps: reflect negates the pencil
    offset kappa(c0), the secant limit intersects the opposite pencil
    member, and a final reflection lands the chain.  Distinct starts must
    give distinct limit sets.

    Each start must sit away from the tangent-line boundary of the chart
    (|kappa(c0)| above an explicit margin): near it the confined targets
    collide pairwise and the extrapolation degenerates.
    """
    _require(scratch, "infinity", basic=False)
    if not starts:
        raise BlowupError("the infinity experiment needs at least one start")
    eps = default_eps_schedule() if eps_list is None else list(eps_list)
    chart: InfinityChart = scratch.chart
    kappas = []
    for c0 in starts:
        if c0.is_at_infinity:
            raise BoundaryPointError("start point must be affine")
        kappa0 = chart.kappa(*c0.affine())
        if not KAPPA_MARGIN < abs(kappa0) < 1.0 / KAPPA_MARGIN:
            raise BoundaryPointError(
                f"start offset kappa = {kappa0:.3g} is too close to a chart boundary"
            )
        kappas.append(kappa0)
    follows = _follow(curve, scratch, [PhasePoint(c=c0, q=scratch.phase.q) for c0 in starts], eps)
    runs = []
    for c0, kappa0, (chains, distance) in zip(starts, kappas, follows):
        # chart-level prediction: reflect the pencil offset, intersect, reflect
        neg = reflect_at_infinity_limit(curve, ExceptionalParam(scratch, kappa0))
        predicted = [
            reflect(curve, p).images[0].point
            for p in secant_at_infinity_limit(curve, neg).points()
        ]
        sample = {
            "c0": [[z.real, z.imag] for z in c0.coords],
            "kappa": [kappa0.real, kappa0.imag],
            "nearest_branch_distance": distance,
        }
        runs.append((sample, chains, predicted))
    return _report(scratch, eps, runs)


def confinement_experiment_isotropic(
    curve: PlaneCurve,
    scratch: ScratchPoint,
    n_samples: int = 5,
    seed: int = 0,
    eps_list: list[float] | None = None,
) -> ConfinementReport:
    """Drive b^2 through an isotropic scratch point from sampled starts.

    Starts lie on the contracted curve: secant images of the tangency point's
    direction fiber.  Each start is perturbed by rotating the direction, the
    near-scratch branch is followed through both steps, and the extrapolated
    limits must lie on the direction fiber over the tangency point and vary
    with the start.
    """
    _require(scratch, "isotropic", basic=False)
    if n_samples < MIN_ISOTROPIC_STARTS:
        raise BlowupError(f"the isotropic experiment needs at least {MIN_ISOTROPIC_STARTS} starts")
    rng = random.Random(seed)
    eps = default_eps_schedule() if eps_list is None else list(eps_list)
    c = scratch.phase.c

    starts: list[PhasePoint] = []
    for _ in range(n_samples):
        theta = rng.uniform(0, 2 * math.pi) + 1j * rng.uniform(-0.5, 0.5)
        q_dir = rotate_direction(direction_point(1, 0, 1), theta)
        try:
            sec = secant(curve, PhasePoint(c=c, q=q_dir))
        except (PhaseError, NonConvergenceError):
            continue
        starts += [
            p for p in sec.points()
            if not p.c.is_at_infinity and proj_distance(p.c, c) > 1e-3
        ][:1]
    if len(starts) < MIN_ISOTROPIC_STARTS:
        raise BranchLostError("could not sample enough starts on the contracted curve")
    runs = [
        ({"start": phase_point_json(x0), "nearest_branch_distance": distance}, chains, [])
        for x0, (chains, distance) in zip(starts, _follow(curve, scratch, starts, eps))
    ]
    return _report(scratch, eps, runs)


def _follow(curve: PlaneCurve, scratch: ScratchPoint, x0s: list[PhasePoint], eps):
    """Drive b^2 from each start of x0s, its direction rotated by each eps in
    turn, through two stacked billiard calls for all starts: per start, in
    start order, (chains, last distance to the scratch).

    At infinity the first step follows the reflected branch nearest the
    scratch state and the second keeps every reflected branch, continued
    chain by chain.  At an isotropic point both steps follow the branch
    whose base point, which reflection keeps, is nearest the tangency point;
    if that branch could not be reflected, reflecting it alone raises.
    """
    infinity = scratch.kind == "infinity"

    def kept(step: BranchSet | PhaseError, lost: str, every: bool) -> list[PhasePoint]:
        """The followed state of a step, or at infinity with ``every`` all of them."""
        if isinstance(step, PhaseError):
            raise step
        if infinity:
            points = step.points()
            if every and points:
                return points
            return [_nearest(points, lambda p: phase_distance(p, scratch.phase), lost)]
        branch = _nearest([*step.images, *step.terminated],
                          lambda b: proj_distance(b.point.c, scratch.phase.c), lost)
        if isinstance(branch, TerminatedBranch):
            return [reflect(curve, branch.point).images[0].point]
        return [branch.point]

    xs = [PhasePoint(c=x0.c, q=rotate_direction(x0.q, e)) for x0 in x0s for e in eps]
    ys = [kept(step, "all first-step branches failed to reflect", False)[0]
          for step in billiard_steps(curve, xs)]
    second = billiard_steps(curve, ys)
    out = []
    for k in range(0, len(ys), len(eps)):
        chains: list[list[tuple[complex, ...]]] = []
        for step in second[k:k + len(eps)]:
            finals = [_phase_vector(p) for p in
                      kept(step, "all second-step branches failed to reflect", True)]
            if not chains:
                finals.sort(key=lambda v: (v[0].real, v[0].imag))
                chains = [[v] for v in finals]
                continue
            # continuation: match each chain to the nearest unused new value
            for chain in chains:
                prev = chain[-1]
                v = _nearest(finals, lambda w: max(abs(a - b) for a, b in zip(w, prev)),
                             "branch continuation lost a chain")
                finals.remove(v)
                chain.append(v)
        distances = [phase_distance(y, scratch.phase) for y in ys[k:k + len(eps)]]
        _require_approach(distances)
        out.append((chains, distances[-1]))
    return out
