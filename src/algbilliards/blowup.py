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
    GenericityReport,
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
from .numerics import find_roots  # noqa: F401 -- unused; bench/bench_trace.py wraps it
from .phase import (
    _ROW_ERRORS,
    Branch,
    BranchSet,
    DirectionPoint,
    PhaseError,
    PhasePoint,
    _direction,
    _line_rows,
    _reflect_rows,
    _secant_rows,
    _stack,
    _step_rows,
    direction_from_slope,
    direction_point,
    line_intersections,
    line_point,
    phase_distance,
    phase_point_json,
    reflect,
    rotate_direction,
)
from .phase import secant  # noqa: F401 -- unused; bench/bench_trace.py wraps it

__all__ = [
    "ScratchPoint",
    "ExceptionalParam",
    "BlowupError",
    "GenericityFailureError",
    "BoundaryPointError",
    "BranchLostError",
    "ExtrapolationError",
    "enumerate_scratch_points",
    "require_generic",
    "secant_at_infinity_limit",
    "reflect_at_infinity_limit",
    "secant_at_isotropic_limit",
    "reflect_at_isotropic_limit",
    "confinement_experiment_infinity_multi",
    "confinement_experiment_isotropic",
    "confinement_reports",
    "Experiment",
    "infinity_experiment",
    "isotropic_experiment",
    "ConfinementReport",
    "default_eps_schedule",
]

EPS_BASE = 1e-2
EPS_COUNT = 13
MIN_ISOTROPIC_STARTS = 2  # the isotropic limits must be seen to vary with the start


class BlowupError(ValueError):
    pass


class GenericityFailureError(BlowupError):
    """The curve fails a genericity condition the billiard machinery needs."""


def require_generic(curve: PlaneCurve) -> GenericityReport:
    """The curve's genericity report; raises GenericityFailureError, with
    every diagnostic, unless all its checks pass."""
    report = genericity_report(curve)
    if not report.all_ok():
        raise GenericityFailureError("curve fails genericity: " + "; ".join(report.diagnostics))
    return report


class BoundaryPointError(BlowupError):
    """The requested exceptional parameter is one of the two boundary points."""


class BranchLostError(BlowupError):
    """No billiard branch approached the scratch point along the epsilon path."""


class ExtrapolationError(BlowupError):
    """The Richardson-extrapolated limit is not certified to converge."""


def default_eps_schedule() -> list[float]:
    return [EPS_BASE * 2.0**-k for k in range(EPS_COUNT)]


KAPPA_MARGIN = 0.1


def infinity_experiment_starts(scratch: ScratchPoint, candidates, count: int):
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
    report = require_generic(curve)
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
    if not w.any():
        return False
    # a unit w, so that the test does not read the size of the gradient
    poly = curve.restrict_to_line(p.coords, w / np.linalg.norm(w))
    scale = max(abs(c) for c in poly.coeffs)
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
    infinity line at value = infinity) are refused.

    This is the one-row call of the stacked ``_pencil_secants``.
    """
    return _pencil_secants(curve, [e])[0]


def _pencil_secants(curve: PlaneCurve, params: list[ExceptionalParam]) -> list[BranchSet]:
    """``secant_at_infinity_limit`` of each pencil member, every line solved
    in one ``_line_rows`` call; the first member in order that fails raises."""
    lines = []
    for e in params:
        _require(e.scratch, "infinity")
        if abs(e.value) < 1e-9 or abs(e.value) > 1e9:
            raise BoundaryPointError("pencil member is a boundary point of the chart")
        chart: InfinityChart = e.scratch.chart
        b0, b1 = chart.line_base_point(e.value)
        t0, t1 = chart.tangent
        # the pencil direction meets the curve at the scratch's infinity point,
        # so the restriction drops to degree d - 1
        lines.append(((b0, b1, 1.0), (t0, t1, 0.0)))
    solved = _line_rows(curve, *zip(*lines)) if lines else []
    out = []
    for e, (base, direction), line in zip(params, lines, solved):
        if not isinstance(line, tuple):
            raise line
        roots, at_direction = line
        if at_direction != 1:
            raise BlowupError(
                f"line at offset {e.value} has unexpected intersection degree "
                f"{curve.degree - at_direction}"
            )
        branches = [Branch(PhasePoint(c=line_point(base, direction, r.value), q=e.scratch.phase.q), r.multiplicity)
                    for r in roots]
        branches.sort(key=lambda b: point_order_key(b.point.c.coords))
        out.append(BranchSet(source=e.scratch.phase, op_tag="secant", images=tuple(branches)))
    return out


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


# A Richardson difference at or below ROUNDING_LEVEL * max(1, |value|) is
# rounding noise; past its least value the rounding floor jitters by up to
# about 50x from one halving to the next, so ROUNDING_SPREAD bounds it.
ROUNDING_LEVEL = 1e-8
ROUNDING_SPREAD = 256.0


def _richardson_limit(chain: list[tuple[complex, ...]]) -> tuple[tuple[complex, ...], float, bool]:
    """Componentwise one-step Richardson extrapolation of values sampled at
    eps_{k+1} = eps_k / 2: returns (limit, final difference, certified).

    The limit is the last extrapolant R_k = 2 f(eps_{k+1}) - f(eps_k), and
    the final difference the largest last |R_{k+1} - R_k| of a component.
    The differences D_k of an analytic limit follow the error model of one
    halving step (Sidi, Practical Extrapolation Methods, ch. 1-2): they fall
    by about 4 per halving while truncation dominates, and grow by about 2
    once rounding, amplified like 1/eps, takes over.  A component is
    certified when its differences stay at rounding level throughout, or
    when the truncation regime is seen, as three consecutive ratios
    D_k / D_{k+1} >= 3 or fewer that reach rounding level, and after it no
    difference above rounding level exceeds ROUNDING_SPREAD times the
    rounding growth D_m 2^(j-m) of an earlier difference D_m from the
    window's last on.  A lost or swapped branch shows order-one differences
    that fail either part.

    This is the one-chain call of ``_richardson_rows``.
    """
    limits, final, certified = _richardson_rows(np.array([chain], dtype=complex))
    return tuple(limits[0].tolist()), float(final[0]), bool(certified[0])


def _richardson_rows(chains: np.ndarray):
    """``_richardson_limit`` of each chain of a (C, n, m) stack, all at once:
    the (C, m) limits, and per chain its final difference and whether it is
    certified, each bitwise as Python's complex arithmetic gives it."""
    rich = _mul(complex(2), chains[:, 1:]) - chains[:, :-1]
    if rich.shape[1] < 2:
        return rich[:, -1], np.zeros(len(chains)), np.ones(len(chains), dtype=bool)
    step = rich[:, 1:] - rich[:, :-1]
    diffs = np.hypot(step.real, step.imag)  # (C, n - 2, m), indexed [:, k] below
    floor = ROUNDING_LEVEL * np.maximum(1.0, np.hypot(chains.real, chains.imag).max(axis=1))
    # k of the window's last ratio: three consecutive ratios >= 3, or fewer
    # that reach rounding level (-1 where there is none)
    window, run = np.full(floor.shape, -1), np.zeros(floor.shape, dtype=int)
    for k in range(diffs.shape[1] - 1):
        b, low = diffs[:, k + 1], diffs[:, k] < 3.0 * diffs[:, k + 1]
        window = np.where((window < 0) & ~low & ((run == 2) | (b <= floor)), k, window)
        run = np.where(low, 0, run + 1)
        if (window >= 0).all():
            break
    # then the cap, ROUNDING_SPREAD times the least rounding growth so far,
    # from D_{k+1} on
    failed, cap = window < 0, np.zeros(floor.shape)
    for j in range(diffs.shape[1]):
        d, after = diffs[:, j], j > window + 1
        cap = np.where(j == window + 1, ROUNDING_SPREAD * d, 2.0 * cap)
        below = ROUNDING_SPREAD * d < cap
        failed |= after & ~below & (d > cap) & (d > floor)
        cap = np.where(after & below, ROUNDING_SPREAD * d, cap)
    certified = (diffs.max(axis=1) <= floor) | ~failed
    return rich[:, -1], diffs[:, -1].max(axis=1), certified.all(axis=1)


def reflect_at_isotropic_limit(
    curve: PlaneCurve, e: ExceptionalParam, eps_list: list[float] | None = None
) -> PhasePoint:
    """Limit of reflection along a path approaching the exceptional point.

    The path holds the blowup ratio a / w fixed at the chart value: the base
    point moves along the curve with parameter a = value * eps while the
    direction approaches the isotropic point with conic chart value w = eps.
    The reflected directions converge to a point of the direction fiber over
    the tangency point.  The limit is Richardson-extrapolated by
    ``_richardson_limit``, which must certify it, and its final difference
    must be at most 1e-6; otherwise ExtrapolationError is raised.
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
    limit, final_diff, certified = _richardson_limit(samples)
    if not certified or final_diff > 1e-6:
        raise ExtrapolationError(
            f"reflection limit not certified (final difference {final_diff:.2e})"
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
        """Every chain's limit certified by ``_richardson_limit``
        (``cauchy_ok``), chart-prediction agreement where a prediction
        exists, and nonconstant dependence on the start where several
        starts were run.  The final Richardson difference only needs to be
        sane (below 1e-3); its size is diagnostic, the accuracy gate is the
        prediction."""
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


def _state(c, q) -> PhasePoint:
    """The state of normalized coordinate rows c and q."""
    return PhasePoint(ProjPoint(tuple(c)), _direction(q))


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
    """Collate per-start runs (sample metadata, the Richardson limits of its
    chains as an (C, 4) array with their final differences and certificates,
    predicted limits).

    The prediction error is the Hausdorff distance between a start's limits
    and its predicted limits; the separation is the least Hausdorff distance
    between the limit sets of two starts.
    """
    limits = []
    pred_err = 0.0
    for _sample, rich, _, _, predicted in runs:
        group = tuple(_vector_to_phase(v) for v in rich.tolist())
        limits.append(group)
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
        samples=tuple(sample for sample, *_ in runs),
        limits=tuple(limits),
        predicted=tuple(tuple(predicted) for *_, predicted in runs),
        max_prediction_error=pred_err,
        min_pairwise_limit_distance=min([math.inf, *separations]),
        cauchy_ok=all(ok for _, _, _, certified, _ in runs for ok in certified.tolist()),
        max_final_diff=max([0.0, *(d for _, _, final, _, _ in runs for d in final.tolist())]),
    )


@dataclass(frozen=True)
class Experiment:
    """A checked confinement experiment: at a scratch point at infinity its
    affine starts c0 with their pencil offsets kappa(c0), at an isotropic
    one the sampled directions of the secants through it that give its
    starts."""

    scratch: ScratchPoint
    starts: tuple[ProjPoint, ...] = ()
    kappas: tuple[complex, ...] = ()
    directions: tuple[DirectionPoint, ...] = ()


def infinity_experiment(scratch: ScratchPoint, starts: list[ProjPoint]) -> Experiment:
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
    return Experiment(scratch, starts=tuple(starts), kappas=tuple(kappas))


def isotropic_experiment(scratch: ScratchPoint, n_samples: int = 5, seed: int = 0) -> Experiment:
    """Drive b^2 through an isotropic scratch point from sampled starts.

    Starts lie on the contracted curve: secant images of the tangency point's
    direction fiber, along directions drawn from the seed.  Each start is
    perturbed by rotating the direction, the near-scratch branch is followed
    through both steps, and the extrapolated limits must vary with the
    start.  That they lie on the direction fiber over the tangency point is
    a tested property, not a gate of ``ConfinementReport.passed``.
    """
    _require(scratch, "isotropic", basic=False)
    if n_samples < MIN_ISOTROPIC_STARTS:
        raise BlowupError(f"the isotropic experiment needs at least {MIN_ISOTROPIC_STARTS} starts")
    rng = random.Random(seed)
    thetas = [rng.uniform(0, 2 * math.pi) + 1j * rng.uniform(-0.5, 0.5) for _ in range(n_samples)]
    return Experiment(scratch, directions=tuple(rotate_direction(direction_point(1, 0, 1), t) for t in thetas))


def confinement_experiment_infinity_multi(
    curve: PlaneCurve, scratch: ScratchPoint, starts: list[ProjPoint], eps_list: list[float] | None = None
) -> ConfinementReport:
    """The report of ``infinity_experiment(scratch, starts)`` run alone."""
    return confinement_reports(curve, [infinity_experiment(scratch, starts)], eps_list)[0]


def confinement_experiment_isotropic(
    curve: PlaneCurve, scratch: ScratchPoint, n_samples: int = 5, seed: int = 0,
    eps_list: list[float] | None = None,
) -> ConfinementReport:
    """The report of ``isotropic_experiment(scratch, n_samples, seed)`` run alone."""
    return confinement_reports(curve, [isotropic_experiment(scratch, n_samples, seed)], eps_list)[0]


# what fails one experiment once its input is checked, the others still running
_FOLLOW_ERRORS = (BlowupError, *_ROW_ERRORS)


def confinement_reports(
    curve: PlaneCurve, experiments: list[Experiment], eps_list: list[float] | None = None
) -> list[ConfinementReport]:
    """The reports of several experiments, stepped as one: the isotropic
    start secants, the two billiard steps of ``_follow`` and the
    reflections of the chart predictions each run as one stack for all of
    them.  A state's step does not depend on the states stacked with it, so
    each report is the one its experiment gives alone; the first experiment
    in order that failed raises its error."""
    eps = default_eps_schedule() if eps_list is None else list(eps_list)
    x0s = _follower_starts(curve, experiments)
    outcomes = _follow(curve, [(ex.scratch, xs) for ex, xs in zip(experiments, x0s)], eps)
    predicted = _predictions(curve, experiments, outcomes)
    for outcome in outcomes:
        if not isinstance(outcome, list):
            raise outcome
    # every chain of every start extrapolated in one stack
    chains = [np.asarray(chains, dtype=complex).reshape(-1, len(eps), 4) for outcome in outcomes for chains, _ in outcome]
    rows = np.cumsum([0, *map(len, chains)])
    rich = _richardson_rows(np.concatenate([np.zeros((0, len(eps), 4)), *chains]))
    per_start = iter([tuple(a[i:j] for a in rich) for i, j in zip(rows, rows[1:])])
    reports = []
    for k, (ex, outcome) in enumerate(zip(experiments, outcomes)):
        if ex.kappas:
            samples = [{"c0": [[z.real, z.imag] for z in c0.coords], "kappa": [kappa0.real, kappa0.imag]}
                       for c0, kappa0 in zip(ex.starts, ex.kappas)]
        else:
            samples = [{"start": phase_point_json(x0)} for x0 in x0s[k]]
        reports.append(_report(ex.scratch, eps, [
            ({**sample, "nearest_branch_distance": distance}, *next(per_start), predicted.get((k, j), []))
            for j, (sample, (_, distance)) in enumerate(zip(samples, outcome))]))
    return reports


def _follower_starts(curve: PlaneCurve, experiments: list[Experiment]) -> list:
    """Per experiment the states its follower starts from, or the
    BranchLostError of too few: at infinity (c0, scratch direction) for
    each start c0; at an isotropic point, for each sampled direction, the
    first affine image away from the tangency point of the secant through
    it (one stacked call for all; a secant that raised gives none)."""
    rows = [(k, PhasePoint(ex.scratch.phase.c, q)) for k, ex in enumerate(experiments) for q in ex.directions]
    starts = [[PhasePoint(c=c0, q=ex.scratch.phase.q) for c0 in ex.starts] for ex in experiments]
    taken = set()
    if rows:
        src, images, _, _, _ = _secant_rows(curve, *_stack([x for _, x in rows]))
        for i, p in zip(src.tolist(), images.tolist()):
            (k, x), c = rows[i], ProjPoint(tuple(p))
            if i not in taken and not c.is_at_infinity and proj_distance(c, x.c) > 1e-3:
                taken.add(i)
                starts[k].append(PhasePoint(c, x.q))
    return [
        BranchLostError("could not sample enough starts on the contracted curve")
        if ex.directions and len(xs) < MIN_ISOTROPIC_STARTS else xs
        for ex, xs in zip(experiments, starts)
    ]


def _predictions(curve: PlaneCurve, experiments: list[Experiment], outcomes: list) -> dict:
    """The chart predictions per (experiment, start) of the infinity
    experiments before the first that failed: the secant limits of the
    negated pencil offsets in one ``_pencil_secants`` call, every point
    reflected in one stack."""
    params = []
    for k, (ex, outcome) in enumerate(zip(experiments, outcomes)):
        if not isinstance(outcome, list):
            break
        params += [((k, j), reflect_at_infinity_limit(curve, ExceptionalParam(ex.scratch, kappa0)))
                   for j, kappa0 in enumerate(ex.kappas)]
    points = [(key, p) for (key, _), images in zip(params, _pencil_secants(curve, [e for _, e in params]))
              for p in images.points()]
    predicted: dict = {}
    if points:
        images, _, failed = _reflect_rows(curve, *_stack([p for _, p in points]))
        if failed:
            raise failed[min(failed)]
        for (key, p), q in zip(points, images.tolist()):
            predicted.setdefault(key, []).append(PhasePoint(p.c, _direction(q)))
    return predicted


def _follow(curve: PlaneCurve, runs, eps) -> list:
    """Drive b^2 from each start of each run (scratch, x0s), its direction
    rotated by each eps in turn, through two stacked billiard steps for all
    of them: per run, per start in start order (chains, last distance to
    the scratch), or the error it raised or was given in place of x0s.

    At infinity the first step follows the reflected branch nearest the
    scratch state and the second keeps every reflected branch, continued
    chain by chain.  At an isotropic point both steps follow the branch
    whose base point, which reflection keeps, is nearest the tangency point;
    if that branch could not be reflected, reflecting it alone raises.  The
    (start, eps) rows are built, followed and continued as arrays, and a
    run's error is the first a loop over its starts, then eps, would meet.
    """
    n, out = len(eps), [x0s for _, x0s in runs]
    starts = [(k, x0) for k, (_, x0s) in enumerate(runs) if isinstance(x0s, list) for x0 in x0s]
    if not starts:
        return out
    x0 = np.array([x.c.coords + x.q.q for _, x in starts], dtype=complex)
    run = np.repeat([k for k, _ in starts], n)
    cq = np.hstack((np.repeat(x0[:, :3], n, axis=0), _rotated(x0[:, 3:], eps).reshape(-1, 3)))
    rows, pc, pq, errors = _kept(curve, runs, run, _step_rows(curve, cq[:, :3], cq[:, 3:]), False,
                                 "all first-step branches failed to reflect")
    for r in sorted(errors):
        if isinstance(out[run[r]], list):
            out[run[r]] = errors[r]
    picks = np.zeros((len(run), 6), dtype=complex)
    picks[rows] = np.hstack((pc, pq))
    alive = np.repeat([isinstance(out[k], list) for k in run[::n]], n)
    if not alive.any():
        return out
    picks, run = picks[alive], run[alive]
    rows, pc, pq, errors = _kept(curve, runs, run, _step_rows(curve, picks[:, :3], picks[:, 3:]), True,
                                 "all second-step branches failed to reflect")
    # the affine (x0, x1, q0, q1) of each kept child, in the slot of its rank in its state
    finals = np.zeros((len(run), curve.degree - 1, 4), dtype=complex)
    found = np.zeros(finals.shape[:2], dtype=bool)
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    finals[rows, rank] = _quot(np.hstack((pc[:, :2], pq[:, :2])), np.repeat(np.stack((pc[:, 2], pq[:, 2]), 1), 2, axis=1))
    found[rows, rank] = True
    shape = (len(run) // n, n, *finals.shape[1:])
    chains, has, lost_at = _chains(finals.reshape(shape), found.reshape(shape[:3]))
    first = {}  # start -> (eps, error) of its first failed second step
    for r in sorted(errors):
        first.setdefault(r // n, (r % n, errors[r]))
    for k in set(run.tolist()):
        out[k] = []
    for t, k in enumerate(run[::n].tolist()):
        if not isinstance(out[k], list):
            continue
        eps_at, error = first.get(t, (n, None))
        if lost_at[t] < eps_at:  # a step's error comes before the continuation at its eps
            error = BranchLostError("branch continuation lost a chain")
        if error is None:
            begin, last = (phase_distance(_state(y[:3], y[3:]), runs[k][0].phase)
                           for y in picks[[t * n, t * n + n - 1]].tolist())
            # the distance scales linearly in eps with a geometry-dependent constant,
            # so for far-out scratch points an absolute bound misfires: accept a small
            # final distance or a 50-fold contraction across the schedule
            if not (last < 1e-3 or last < begin / 50.0):
                error = BranchLostError(
                    f"nearest branch stayed {last:.2e} from the scratch point after {n - 1} halvings of eps; "
                    "a start must end within 1e-3 of it or 50 times closer than it began, "
                    "which takes about 6 halvings from 1e-2")
        out[k] = error or out[k] + [(chains[t][has[t]], last)]
    return out


def _kept(curve: PlaneCurve, runs, run: np.ndarray, step, every: bool, lost: str):
    """The followed children of one stacked billiard step, given as its
    ``_step_rows`` arrays with ``run`` the run of each state: their states,
    their (c, q) stacks and a map from a state to the error it fails with.

    A state whose step raised fails with its error.  At infinity the live
    child nearest the scratch state is followed, or with ``every`` each live
    one, and a state without one is lost; at an isotropic point the child
    whose base point is nearest the tangency point, reflected alone if it
    ended.  The nearest is the first child of least ``phase_distance`` or
    ``proj_distance``: numpy's chordal distances, within a few units of
    rounding of those, pick it unless another child is within 1e-12, and then
    the exact distances do.
    """
    src, p, q, _, reasons, _ = step
    scratch = [s.phase for s, _ in runs]
    at_inf = np.array([s.kind == "infinity" for s, _ in runs])[run]
    inf = at_inf[src]
    live = np.array([why is None for why in reasons], dtype=bool)
    raised = np.array([isinstance(why, _ROW_ERRORS) for why in reasons], dtype=bool)
    errors = {int(src[j]): reasons[j] for j in np.flatnonzero(raised).tolist()}
    lost_states = at_inf.copy()
    lost_states[src[live | raised]] = False
    errors.update((i, BranchLostError(lost)) for i in np.flatnonzero(lost_states).tolist())
    keep = inf & live & every
    near = np.flatnonzero(np.where(inf, live, ~raised) & ~keep)
    head = np.ones(len(near), dtype=bool)  # the first candidate of each state
    head[1:] = src[near[1:]] != src[near[:-1]]
    chosen = near[head]
    if not head.all():  # some state has several candidates: the nearest goes first
        target = np.array([x.c.coords + x.q.q for x in scratch], dtype=complex)[run[src[near]]]
        dist = _chordal(p[near], target[:, :3])
        dist = np.where(inf[near], np.maximum(dist, _chordal(q[near], target[:, 3:])), dist)
        order = np.lexsort((dist, src[near]))
        near, dist = near[order], dist[order]
        chosen = near[head]
        for i in src[near[1:][~head[1:] & head[:-1] & (dist[1:] - dist[:-1] <= 1e-12)]].tolist():
            x = scratch[run[i]]

            def distance(j):
                if at_inf[i]:
                    return phase_distance(_state(p[j].tolist(), q[j].tolist()), x)
                return proj_distance(ProjPoint(tuple(p[j].tolist())), x.c)

            chosen[np.searchsorted(src[chosen], i)] = min(np.sort(near[src[near] == i]).tolist(), key=distance)
    keep[chosen] = True
    q = q.copy()
    for j in np.flatnonzero(keep & ~live).tolist():  # an isotropic pick that ended
        try:
            q[j] = reflect(curve, _state(p[j].tolist(), q[j].tolist())).images[0].point.q.q
        except _FOLLOW_ERRORS as exc:
            errors[int(src[j])], keep[j] = exc, False
    return src[keep], p[keep], q[keep], errors


def _chains(finals: np.ndarray, found: np.ndarray):
    """The chains of each start across the eps schedule, from (S, n, W, 4)
    stacks of the affine (x0, x1, q0, q1) of its kept second-step children
    and of which of the W slots hold one: (S, W, n, 4) chains, which chains
    each start has, and per start the first eps at which a chain found no
    value (n where none did).

    A start has a chain per value at its first eps, in (re, im) order of x0;
    at each later eps each chain in turn takes the unused value nearest its
    last one in the max norm of the difference, the first of equally near.
    """
    count, n, width, _ = finals.shape
    x0 = finals[:, 0, :, 0]
    order = np.lexsort((x0.imag, x0.real, ~found[:, 0]))
    chains = np.zeros((count, width, n, 4), dtype=complex)
    chains[:, :, 0] = np.take_along_axis(finals[:, 0], order[..., None], axis=1)
    has = np.take_along_axis(found[:, 0], order, axis=1)
    lost_at = np.full(count, n)
    for i in range(1, n):
        free = found[:, i].copy()
        for m in range(width):
            gap = finals[:, i] - chains[:, m, i - 1, None]
            j = np.where(free, np.hypot(gap.real, gap.imag).max(axis=-1), np.inf).argmin(axis=1)
            take = has[:, m] & free.any(axis=1)
            lost_at[has[:, m] & ~take] = np.minimum(lost_at[has[:, m] & ~take], i)
            chains[take, m, i] = finals[take, i, j[take]]
            free[take, j[take]] = False
    return chains, has, lost_at


# ---------------------------------------------------------------------------
# array arithmetic as CPython computes it: numpy's complex multiply, divide
# and abs round differently for many operands, these forms on the float64
# parts (and np.hypot for abs) do not, so the follower's bytes are a loop's
# ---------------------------------------------------------------------------


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _mul(a, b) -> np.ndarray:
    """a * b elementwise, as CPython multiplies complex numbers."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _quot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b elementwise, as CPython divides complex numbers (Smith's method)."""
    if not np.all(b):
        raise ZeroDivisionError("complex division by zero")
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_re = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_re, bi, br) / np.where(by_re, br, bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    return _complex(np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
                    np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom)


def _rotated(q: np.ndarray, eps) -> np.ndarray:
    """``rotate_direction(q, e).q`` for each row of an (S, 3) stack of conic
    points and each e of eps, as an (S, len(eps), 3) array, with cos e and
    sin e taken once per e; a real rotation keeps the conic to rounding.
    Each row is normalized as ``proj_point`` does."""
    cos = np.array([cmath.cos(e) for e in eps])
    sin = np.array([cmath.sin(e) for e in eps])
    q0, q1 = q[:, None, 0], q[:, None, 1]
    v = np.stack((_mul(cos, q0) - _mul(sin, q1), _mul(sin, q0) + _mul(cos, q1),
                  np.broadcast_to(q[:, None, 2], (len(q), len(eps)))), axis=-1)
    pivot = np.hypot(v.real, v.imag).argmax(axis=-1)[..., None]
    v = _quot(v, np.take_along_axis(v, pivot, axis=-1))
    np.put_along_axis(v, pivot, 1, axis=-1)
    return v


def _chordal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``proj_distance`` of the rows of two (K, 3) stacks, to rounding."""
    return np.linalg.norm(np.cross(a, b), axis=-1) / (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))
