"""Phase space and the three correspondences: secant, reflection, billiards.

States are pairs (c, q) with c on the table curve and q on the direction
conic D : Q0^2 + Q1^2 = Q2^2.  The secant step keeps q and replaces c by the
other d-1 intersections of the line through c with direction [Q0 : Q1]; the
reflection step keeps c and replaces q by the second intersection of D with
the line through q in the normal direction at c.  A billiard step is the
composite, so it is (d-1)-valued and every operation here returns explicit
branch multisets.

Multivaluedness is handled deterministically: the images inside a BranchSet
are sorted lexicographically by the real and imaginary parts of the first
two point coordinates, so identical inputs always produce identical output
order.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .curve import (
    ON_CURVE_TOL,
    SINGULAR_GRADIENT_TOL,
    CurveError,
    PlaneCurve,
    ProjPoint,
    direction_distance,
    on_curve_residual,
    point_order_key,
    proj_distance,
    proj_point,
    proj_points,
    tangent_at,
)
from .numerics import COARSE_CLUSTER_REL_TOL, LEADING_ZERO_TOL, ComplexPoly, RootCluster
from .numerics import find_roots, monic_roots

__all__ = [
    "DirectionPoint",
    "PhasePoint",
    "Branch",
    "TerminatedBranch",
    "BranchSet",
    "OrbitNode",
    "OrbitTree",
    "PhaseError",
    "ScratchPointError",
    "InfinityBasePointError",
    "LineInCurveError",
    "NoRealReturnError",
    "direction_point",
    "direction_from_slope",
    "rotate_direction",
    "conic_residual",
    "phase_point",
    "phase_distance",
    "phase_point_json",
    "line_point",
    "line_intersections",
    "secant",
    "reflect",
    "billiard_step",
    "billiard_steps",
    "real_billiard_step",
    "orbit_tree",
    "orbit_tree_jsonl",
    "orbit_step_json",
]

CONIC_TOL = 1e-10
ISOTROPIC_Q2_TOL = 1e-8
SCRATCH_HARD_TOL = 1e-9
SCRATCH_SOFT_TOL = 1e-5
MAX_ORBIT_NODES = 500000


class PhaseError(ValueError):
    pass


class ScratchPointError(PhaseError):
    """The state is (numerically) an indeterminacy point of the requested step."""


class InfinityBasePointError(PhaseError):
    """Reflection requested at a base point on the line at infinity."""


class LineInCurveError(PhaseError):
    """The secant line lies inside the curve."""


class NoRealReturnError(PhaseError):
    """The real ray never re-meets the real curve."""


# ---------------------------------------------------------------------------
# direction conic
# ---------------------------------------------------------------------------


def conic_residual(q0, q1, q2) -> float:
    num = abs(q0 * q0 + q1 * q1 - q2 * q2)
    den = max(1.0, abs(q0) ** 2 + abs(q1) ** 2 + abs(q2) ** 2)
    return num / den


@dataclass(frozen=True)
class DirectionPoint:
    """Point of the conic D, normalized so the max-magnitude coordinate is 1."""

    q: tuple[complex, complex, complex]
    is_isotropic: bool

    def affine(self) -> tuple[complex, complex]:
        return self.q[0] / self.q[2], self.q[1] / self.q[2]

    @property
    def slope_pair(self) -> tuple[complex, complex]:
        return self.q[0], self.q[1]

    def conjugate(self) -> "DirectionPoint":
        return direction_point(*(z.conjugate() for z in self.q))


def direction_point(q0, q1, q2) -> DirectionPoint:
    p = proj_point(q0, q1, q2)
    v = p.coords
    resid = conic_residual(*v)
    if resid > CONIC_TOL:
        raise PhaseError(f"point {v} is not on the direction conic (residual {resid:.2e})")
    return DirectionPoint(q=v, is_isotropic=abs(v[2]) < ISOTROPIC_Q2_TOL)


def direction_from_slope(u, branch: int = 0) -> DirectionPoint:
    """One of the two conic points above the slope [u0 : u1].

    The fiber is cut by w = u0^2 + u1^2: branch 0 takes the principal square
    root of w (cut along the negative real axis), branch 1 its negation.
    Isotropic slopes are ramification points and yield the unique Q2 = 0
    point regardless of branch.
    """
    u0, u1 = complex(u[0]), complex(u[1])
    if u0 == 0 and u1 == 0:
        raise ValueError("slope pair cannot be zero")
    w = u0 * u0 + u1 * u1
    norm2 = abs(u0) ** 2 + abs(u1) ** 2
    if abs(w) / norm2 < 1e-14:
        return direction_point(u0, u1, 0)
    root = cmath.sqrt(w)
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    if branch == 1:
        root = -root
    return direction_point(u0, u1, root)


def rotate_direction(q: DirectionPoint, theta: complex) -> DirectionPoint:
    """Move along D by the rotation of (complex) angle theta; exact on the conic."""
    c, s = cmath.cos(theta), cmath.sin(theta)
    q0, q1, q2 = q.q
    return direction_point(c * q0 - s * q1, s * q0 + c * q1, q2)


def conic_log(base: DirectionPoint, other: DirectionPoint) -> complex:
    """Rotation angle taking ``base`` to ``other`` (principal branch).

    Exact chart on the affine conic: with z = q0 + i q1 (never 0 on the
    affine part), rotation by theta multiplies z by exp(i theta).
    """
    b0, b1 = base.affine()
    o0, o1 = other.affine()
    zb = b0 + 1j * b1
    zo = o0 + 1j * o1
    return -1j * cmath.log(zo / zb)


# ---------------------------------------------------------------------------
# phase points and branch sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhasePoint:
    c: ProjPoint
    q: DirectionPoint


def phase_point(curve: PlaneCurve, c: ProjPoint, q: DirectionPoint) -> PhasePoint:
    resid = on_curve_residual(curve, c)
    if resid > ON_CURVE_TOL:
        raise PhaseError(f"base point residual {resid:.2e} exceeds {ON_CURVE_TOL}")
    return PhasePoint(c=c, q=q)


def phase_distance(x: PhasePoint, y: PhasePoint) -> float:
    dq = proj_distance(proj_point(*x.q.q), proj_point(*y.q.q))
    return max(proj_distance(x.c, y.c), dq)


def phase_point_json(x: PhasePoint) -> dict:
    """JSON form of a state: the coordinates of c and q as [re, im] pairs."""
    return {
        "c": [[z.real, z.imag] for z in x.c.coords],
        "q": [[z.real, z.imag] for z in x.q.q],
    }


@dataclass(frozen=True)
class Branch:
    point: PhasePoint
    multiplicity: int


@dataclass(frozen=True)
class TerminatedBranch:
    point: PhasePoint
    multiplicity: int
    reason: str


@dataclass(frozen=True)
class BranchSet:
    """Multiset image of one correspondence step.

    ``images`` and ``terminated`` together carry total multiplicity d - 1
    for secant and billiard steps and 1 for reflection.  ``ill_conditioned``
    is set when the source sits within the soft guard band of a scratch
    point; results are still returned.
    """

    source: PhasePoint
    op_tag: str
    images: tuple[Branch, ...]
    terminated: tuple[TerminatedBranch, ...] = ()
    ill_conditioned: bool = False

    def total_multiplicity(self) -> int:
        return sum(b.multiplicity for b in self.images) + sum(
            t.multiplicity for t in self.terminated
        )

    def points(self) -> list[PhasePoint]:
        return [b.point for b in self.images]


def _stack(xs) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 3) arrays of base points and of directions of a list of states."""
    cq = np.array([x.c.coords + x.q.q for x in xs], dtype=complex).reshape(-1, 6)
    return cq[:, :3], cq[:, 3:]


def _direction(q) -> DirectionPoint:
    """The DirectionPoint of a normalized conic point given as a coordinate list."""
    return DirectionPoint(q=tuple(q), is_isotropic=abs(q[2]) < ISOTROPIC_Q2_TOL)


def _one(result):
    """The result of a one-state call of a stacked step, or raise its PhaseError."""
    if isinstance(result, PhaseError):
        raise result
    return result


# ---------------------------------------------------------------------------
# scratch proximity
# ---------------------------------------------------------------------------


def secant_scratch_proximity(curve: PlaneCurve, x: PhasePoint) -> float:
    """Distance in chart coordinates to the secant indeterminacy condition
    (base point at infinity with the line direction equal to its tangent)."""
    return _scratch_proximity(curve, x.c, x.q.slope_pair, abs(x.c.coords[2]))


def reflect_scratch_proximity(curve: PlaneCurve, x: PhasePoint) -> float:
    """Distance to the reflection indeterminacy condition (isotropic q equal
    to the tangent direction at an isotropic tangency point)."""
    return _scratch_proximity(curve, x.c, x.q.slope_pair, abs(x.q.q[2]))


def _scratch_proximity(curve: PlaneCurve, c: ProjPoint, slope, dist: float) -> float:
    if dist > SCRATCH_SOFT_TOL:
        return dist
    try:
        td = tangent_at(curve, c)
    except CurveError:
        return dist
    return max(dist, direction_distance(slope, td.tangent))


# ---------------------------------------------------------------------------
# line intersections
# ---------------------------------------------------------------------------


def line_point(base, e, t) -> ProjPoint:
    """The point base + t * e of the line through base and a second point e.

    When e lies at infinity (e[2] == 0) the third coordinate is base[2]
    itself rather than base[2] + t * 0, which keeps the sign of a zero
    coordinate.
    """
    third = base[2] if e[2] == 0 else base[2] + t * e[2]
    return proj_point(base[0] + t * e[0], base[1] + t * e[1], third)


def line_intersections(
    curve: PlaneCurve, base, e, *, remove: int = 0
) -> tuple[list[RootCluster], int]:
    """Intersections of the curve with the line base + t * e.

    The restriction of the curve form is a degree-d polynomial in t.  A line
    inside the curve is refused; ``remove`` (0, 1 or 2) copies of a known
    root at t = 0 are divided out by dropping the low coefficients, which
    must sit at the residual level of the base point; top coefficients below
    1e-9 of the line scale count as intersections at e itself (t = infinity,
    the direction point [D0 : D1 : 0] when e = (D0, D1, 0)).  Returns the
    remaining parameter clusters in ``find_roots`` order (map them to points
    with ``line_point``) and the multiplicity at e.
    """
    d = curve.degree
    poly = curve.restrict_to_line(base, e)
    line_scale = max(abs(c) for c in poly.coeffs)
    if line_scale <= 1e-12 * max(1.0, curve.scale()):
        raise LineInCurveError("the line lies in the curve")
    coeffs = list(poly.coeffs) + [0j] * (d + 1 - len(poly.coeffs))
    gates = (1e-6, 1e-5)[:remove]
    if any(abs(c) > g * line_scale for c, g in zip(coeffs, gates)):
        raise PhaseError(f"the line does not meet the curve {remove} times at the base point")
    body = coeffs[remove:]
    eff = len(body)
    while eff > 0 and abs(body[eff - 1]) <= 1e-9 * line_scale:
        eff -= 1
    roots = find_roots(ComplexPoly(body[:eff])) if eff >= 2 else []
    return roots, (d - remove) - max(eff - 1, 0)


# ---------------------------------------------------------------------------
# secant
# ---------------------------------------------------------------------------


def _near_infinity_band(d: int) -> float:
    """Base points with |X2| below this parametrize their secant line from
    the point of the line Hermitian-orthogonal to them.

    The straightforward parametrization c + t * (Q0, Q1, 0) of a line through
    a base point near the infinity line evaluates the curve form where it
    nearly vanishes as a whole, which loses about eps_machine / |X2|^d of
    accuracy; the band is sized so that error stays two orders below the
    1e-8 residual gates.
    """
    return max(1e-2, 1e-4 ** (1.0 / d))


def secant(curve: PlaneCurve, x: PhasePoint) -> BranchSet:
    """The d-1 other intersections of the line through c with direction [q].

    The line is parametrized from its base point as c + t * e, so the base
    root is t = 0 and exactly one copy of it is removed by dropping the
    constant coefficient; a tangent line returns the base point itself
    among the images.  Outside the near-infinity band e is the direction
    point D = (Q0, Q1, 0).  Inside it (X2 = 0 included) that
    parametrization would be catastrophically ill-conditioned, since the
    restricted coefficients all shrink with the distance to infinity while
    the evaluation noise does not; there e is the point of the same line
    that is Hermitian-orthogonal to c, e = D (c^H c) - c (c^H D), which
    keeps the parametrization well scaled along the whole line.
    Intersections at e show up as a degree drop and are restored
    explicitly, so images may lie at infinity.

    This is the one-state call of the stacked step ``_secant_rows``.
    """
    images, ill = _secant_rows(curve, [x], *_stack([x]))
    branches = tuple(Branch(PhasePoint(c=ProjPoint(p), q=x.q), m) for p, m in _one(images[0]))
    return BranchSet(source=x, op_tag="secant", images=branches, ill_conditioned=ill[0])


def _secant_rows(curve: PlaneCurve, xs, c: np.ndarray, q: np.ndarray) -> tuple[list, list]:
    """Secant images of the states xs, with (N, 3) stacks c and q: per state
    its (coords, multiplicity) pairs in point order or the PhaseError it
    raised, and its ill_conditioned flag.  All states take the stacked path
    (base root t = 0 dropped, the others from ``monic_roots``); a state
    with |X2| <= 1e-5, which needs the scratch-proximity check, or failing
    a gate of ``line_intersections`` or ``find_roots``' coarse cluster
    radius, takes the per-state code ``_secant_one``."""
    d = curve.degree
    line = q.copy()
    line[:, 2] = 0
    band = np.abs(c[:, 2]) < _near_infinity_band(d)
    if band.any():
        cb, db = c[band], line[band]
        e = (db * np.einsum("mk,mk->m", cb.conj(), cb)[:, None]
             - cb * np.einsum("mk,mk->m", cb.conj(), db)[:, None])
        # an exact scratch point gives e = 0, which proximity refuses later
        nonzero = np.abs(e).max(axis=1) > 0
        e[nonzero] = proj_points(e[nonzero])
        line[band] = e
    coeffs = curve.restrict_to_lines(c, line)
    mag = np.abs(coeffs)
    top = mag.max(axis=1)
    ok = (
        (np.abs(c[:, 2]) > SCRATCH_SOFT_TOL)
        & (top > 1e-12 * max(1.0, curve.scale()))
        & (mag[:, 0] <= 1e-6 * top)
        & (mag[:, -1] > np.maximum(1e-9 * top, LEADING_ZERO_TOL))
    )
    with np.errstate(all="ignore"):
        t = monic_roots(np.where(ok[:, None], coeffs[:, 1:-1] / coeffs[:, -1:], 0))
        if d > 2:
            gap = np.abs(t[:, :, None] - t[:, None, :]) + np.diag(np.full(d - 1, np.inf))
            ok &= gap.min(axis=(1, 2)) > COARSE_CLUSTER_REL_TOL * (1.0 + np.abs(t).max(axis=1))
        pts = c[:, None, :] + t[:, :, None] * line[:, None, :]
        pts[:, :, 2] = np.where(line[:, None, 2] == 0, c[:, None, 2], pts[:, :, 2])
        pts = proj_points(pts.reshape(-1, 3)).reshape(len(c), d - 1, 3).tolist()
    images, ill = [], [False] * len(xs)
    for i, clear in enumerate(ok.tolist()):
        if clear:
            images.append([(tuple(p), 1) for p in sorted(pts[i], key=point_order_key)])
            continue
        try:
            found, ill[i] = _secant_one(curve, xs[i], tuple(line[i].tolist()))
        except PhaseError as exc:
            found = exc
        images.append(found)
    return images, ill


def _secant_one(curve: PlaneCurve, x: PhasePoint, e) -> tuple[list, bool]:
    """The per-state secant on the line x.c + t * e: (coords, multiplicity)
    pairs in point order, and the ill_conditioned flag."""
    prox = secant_scratch_proximity(curve, x)
    if prox < SCRATCH_HARD_TOL:
        raise ScratchPointError(
            f"secant source is a scratch point at infinity (proximity {prox:.2e})"
        )
    d = curve.degree
    base = x.c.coords
    roots, at_e = line_intersections(curve, base, e, remove=1)
    images = [(line_point(base, e, r.value).coords, r.multiplicity) for r in roots]
    if at_e > 0:
        images.insert(0, (proj_point(*e).coords, at_e))
    total = sum(m for _, m in images)
    if total != d - 1:
        raise PhaseError(f"secant images carry multiplicity {total}, not d - 1 = {d - 1}")
    return sorted(images, key=lambda im: point_order_key(im[0])), prox < SCRATCH_SOFT_TOL


# ---------------------------------------------------------------------------
# reflect
# ---------------------------------------------------------------------------


def reflect(curve: PlaneCurve, x: PhasePoint) -> BranchSet:
    """Reflection of the direction across the tangent line at the base point.

    The computation runs in the null coordinates Z = Q0 + i Q1,
    W = Q0 - i Q1 of the bilinear form, where reflection across the tangent
    direction t is the exact product formula

        (V_z, V_w) -> (V_w T_z / T_w,  V_z T_w / T_z),

    with T_z, T_w the null components of t.  The product of the image
    components equals V_z V_w, so the image is on the conic to rounding
    accuracy, and there is no cancellation even arbitrarily close to
    isotropic configurations.  Isotropic q (one null component exactly
    zero) and isotropic tangents (the image escapes to an infinity point of
    the conic) are limits of the same formula.

    This is the one-state call of the stacked step ``_reflect_rows``.
    """
    images, ill, errors = _reflect_rows(curve, *_stack([x]))
    if errors:
        raise errors[0]
    image = PhasePoint(c=x.c, q=_direction(images[0].tolist()))
    return BranchSet(source=x, op_tag="reflect", images=(Branch(image, 1),), ill_conditioned=ill[0])


# (F, T_z, T_w) from (F, dF/dX0, dF/dX1, dF/dX2), T_z, T_w the null components of
# the tangent [dF/dX1 : -dF/dX0]; (V_z, V_w, Q2) from q; q from (R_z, R_w, Q2)
_TANGENT_NULL = np.array([[1, 0, 0], [0, -1j, 1j], [0, 1, 1], [0, 0, 0]])
_DIRECTION_NULL = np.array([[1, 1, 0], [1j, -1j, 0], [0, 0, 1]])
_NULL_DIRECTION = np.array([[0.5, -0.5j, 0], [0.5, 0.5j, 0], [0, 0, 1]])
_CONIC_SIGNS = np.array([1, 1, -1])  # Q0^2 + Q1^2 - Q2^2
# a row takes the stacked path when magnitude * sign > bound for |c2|, |q2|,
# |F|, |T_z|, |T_w| (over the curve scale), |T_z / T_w|, |T_w / T_z| and the
# conic residual of its image
_REFLECT_SIGNS = np.array([1, 1, -1, 1, 1, 1, 1, -1])
_REFLECT_BOUNDS = np.array([ISOTROPIC_Q2_TOL, SCRATCH_SOFT_TOL, -ON_CURVE_TOL,
                            2 * SINGULAR_GRADIENT_TOL, 2 * SINGULAR_GRADIENT_TOL,
                            1e-15, 1e-15, -CONIC_TOL])


def _reflect_rows(curve: PlaneCurve, c: np.ndarray, q: np.ndarray):
    """Reflections of the states with (M, 3) stacks c and q by the product
    formula, all rows at once: the normalized images, the ill_conditioned
    flags and a map from a row to the PhaseError it raised.  A row outside
    the (conservative) bounds gets a single state's checks, in its order."""
    # einsum, not BLAS products, so that no row depends on the rows stacked with it
    f_t = np.einsum("mk,kj->mj", curve.form_values(c, grad=True),
                    _TANGENT_NULL / max(1.0, curve.scale()))
    v = np.einsum("mk,kj->mj", q, _DIRECTION_NULL)
    # the smaller null component of q is recovered from the conic relation
    # V_z V_w = Q2^2, which avoids the subtractive cancellation it carries
    v_mag = np.abs(v[:, :2])
    small = v_mag < 1e-3 * v_mag[:, ::-1]
    with np.errstate(all="ignore"):
        if small.any():
            v[:, :2] = np.where(small, v[:, 2:] * v[:, 2:] / v[:, 1::-1], v[:, :2])
        ratio = f_t[:, 1:] / f_t[:, :0:-1]
        v[:, :2] = v[:, 1::-1] * ratio
        images = proj_points(np.einsum("mk,kj->mj", v, _NULL_DIRECTION))
    conic = np.einsum("mk,k->m", images * images, _CONIC_SIGNS)
    mags = np.abs(np.concatenate((c[:, 2:], q[:, 2:], f_t, ratio, conic[:, None]), axis=1))
    ok = mags * _REFLECT_SIGNS > _REFLECT_BOUNDS
    ill, errors = [False] * len(c), {}
    if ok.all():
        return images, ill, errors
    for r in np.flatnonzero(~ok.all(axis=1)).tolist():
        base = ProjPoint(tuple(c[r].tolist()))
        q0, q1, q2 = q[r].tolist()
        tz, tw = mags[r, 3:5].tolist()
        try:
            if abs(base.coords[2]) < ISOTROPIC_Q2_TOL:
                raise InfinityBasePointError("reflection base point lies at infinity")
            prox = _scratch_proximity(curve, base, (q0, q1), abs(q2))
            if prox < SCRATCH_HARD_TOL:
                raise ScratchPointError(
                    f"reflection source is an isotropic scratch point (proximity {prox:.2e})"
                )
            ill[r] = prox < SCRATCH_SOFT_TOL
            tangent_at(curve, base)
            if min(tz, tw) < 1e-15 * max(tz, tw):
                # tangent direction [1 : -i] (or [1 : i]): the image is that isotropic point
                images[r] = (1, -1j, 0) if tw < tz else (1, 1j, 0)
            images[r] = direction_point(*images[r].tolist()).q
        except PhaseError as exc:
            errors[r] = exc
    return images, ill, errors


# ---------------------------------------------------------------------------
# billiards
# ---------------------------------------------------------------------------


_TERMINATIONS = {InfinityBasePointError: "image_at_infinity", ScratchPointError: "isotropic_scratch"}


def billiard_step(curve: PlaneCurve, x: PhasePoint) -> BranchSet:
    """Secant followed by reflection on every branch.

    Branches whose secant image cannot be reflected (image at infinity, or
    an isotropic scratch point downstream) are returned as terminated
    branches with a reason, so multiplicity bookkeeping stays exact.  This
    is the one-state call of the stacked step ``billiard_steps``.
    """
    return _one(billiard_steps(curve, [x])[0])


def billiard_steps(curve: PlaneCurve, xs) -> list:
    """Billiard steps of the states xs (each a BranchSet or the PhaseError
    it raised): one stacked secant, one stacked reflection of all images.
    Each state's step is bitwise the one ``billiard_step`` gives it alone."""
    if not xs:
        return []
    c, q = _stack(xs)
    images, ill = _secant_rows(curve, xs, c, q)
    rows = [(i, p, m) for i, im in enumerate(images) if isinstance(im, list) for p, m in im]
    points = np.array([p for _, p, _ in rows], dtype=complex).reshape(-1, 3)
    directions, _, errors = _reflect_rows(curve, points, q[[i for i, _, _ in rows]])
    steps = [im if isinstance(im, PhaseError) else ([], []) for im in images]
    for r, ((i, p, m), direction) in enumerate(zip(rows, directions.tolist())):
        exc = errors.get(r)
        reason = _TERMINATIONS.get(type(exc))
        if isinstance(steps[i], PhaseError):
            continue
        if exc is None:
            steps[i][0].append(Branch(PhasePoint(ProjPoint(p), _direction(direction)), m))
        elif reason:
            steps[i][1].append(TerminatedBranch(PhasePoint(ProjPoint(p), xs[i].q), m, reason))
        else:
            steps[i] = exc
    return [
        step if isinstance(step, PhaseError)
        else BranchSet(x, "billiard", tuple(step[0]), tuple(step[1]), flag)
        for x, step, flag in zip(xs, steps, ill)
    ]


def real_billiard_step(curve: PlaneCurve, x: PhasePoint) -> PhasePoint:
    """The classical billiard map: first positive real return, then reflect.

    Requires a real curve and real state with q affine.  Among real
    intersections of the ray c + t q with t > 0, the smallest t is taken.
    """
    c = x.c.coords
    if abs(c[2]) < ISOTROPIC_Q2_TOL:
        raise InfinityBasePointError("real step needs an affine base point")
    if x.q.is_isotropic:
        raise PhaseError("real step needs an affine direction")
    # the ray is directed: use affine representatives of both the base point
    # and the direction, so projective rescaling cannot flip its sign
    q0, q1 = x.q.affine()
    base = (c[0] / c[2], c[1] / c[2], 1.0)
    direction = (q0, q1, 0)
    roots, _ = line_intersections(curve, base, direction, remove=1)
    ahead = [
        r.value.real
        for r in roots
        if abs(r.value.imag) <= 1e-8 * (1 + abs(r.value)) and r.value.real > 1e-10
    ]
    if not ahead:
        raise NoRealReturnError("no real intersection with positive ray parameter")
    landing = line_point(base, direction, min(ahead))
    hit = PhasePoint(c=landing, q=x.q)
    return reflect(curve, hit).images[0].point


# ---------------------------------------------------------------------------
# orbit trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitNode:
    point: PhasePoint
    parent_index: int  # index into the previous level; -1 for the root
    multiplicity: int
    terminated_reason: str | None = None


@dataclass(frozen=True)
class OrbitTree:
    root: PhasePoint
    depth: int
    levels: tuple[tuple[OrbitNode, ...], ...]

    def level_mass(self, k: int) -> int:
        return sum(n.multiplicity for n in self.levels[k] if n.terminated_reason is None)

    def leaves_with_multiplicity(self) -> int:
        return self.level_mass(self.depth)


def orbit_tree(curve: PlaneCurve, x: PhasePoint, depth: int) -> OrbitTree:
    """Breadth-first expansion of the billiard correspondence to ``depth`` levels.

    Branches that hit scratch points are kept as terminated nodes with a
    reason rather than silently dropped, so the surviving mass at level k
    plus terminated mass accounts for the full (d-1)^k count.  A tree whose
    node bound sum_{k <= depth} (d-1)^k exceeds MAX_ORBIT_NODES is refused
    before any step is taken.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    bound, width = 0, 1
    for _level in range(depth + 1):
        bound += width
        if bound > MAX_ORBIT_NODES:
            raise PhaseError(f"orbit tree exceeds {MAX_ORBIT_NODES} nodes")
        width *= curve.degree - 1
    levels: list[tuple[OrbitNode, ...]] = [(OrbitNode(x, -1, 1),)]
    for _level in range(depth):
        prev = levels[-1]
        live = [idx for idx, node in enumerate(prev) if node.terminated_reason is None]
        nxt: list[OrbitNode] = []
        for idx, step in zip(live, billiard_steps(curve, [prev[idx].point for idx in live])):
            node = prev[idx]
            if isinstance(step, PhaseError):
                nxt.append(OrbitNode(node.point, idx, node.multiplicity, type(step).__name__))
                continue
            for br in step.images:
                nxt.append(OrbitNode(br.point, idx, node.multiplicity * br.multiplicity))
            for tb in step.terminated:
                nxt.append(
                    OrbitNode(tb.point, idx, node.multiplicity * tb.multiplicity, tb.reason)
                )
        levels.append(tuple(nxt))
    return OrbitTree(root=x, depth=depth, levels=tuple(levels))


# orbit lines as json.dumps(obj, sort_keys=True) writes them: finite floats by float.__repr__
_PAIRS = "[[{}, {}], [{}, {}], [{}, {}]]"
_NODE_LINE = '{{"c": ' + _PAIRS + ', "level": {}, "mult": {}, "parent_index": {}, "q": ' + _PAIRS
_STEP_LINE = '{{"c": ' + _PAIRS + ', "q": ' + _PAIRS + ', "step": {}}}'
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _coord_reprs(x: PhasePoint) -> list[str]:
    """The real and imaginary parts of c, then of q, as json writes them."""
    (a, b, c), (d, e, f) = x.c.coords, x.q.q
    parts = (a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag, e.real, e.imag, f.real, f.imag)
    return [_NONFINITE.get(r, r) for r in map(float.__repr__, parts)]


def orbit_tree_jsonl(tree: OrbitTree) -> list[str]:
    """One JSON object per node: level, parent, coordinates, multiplicity."""
    import json

    lines = []
    for level, nodes in enumerate(tree.levels):
        for node in nodes:
            r = _coord_reprs(node.point)
            line = _NODE_LINE.format(*r[:6], level, node.multiplicity, node.parent_index, *r[6:])
            if node.terminated_reason is not None:
                line += ', "terminated_reason": ' + json.dumps(node.terminated_reason)
            lines.append(line + "}")
    return lines


def orbit_step_json(step: int, x: PhasePoint) -> str:
    """One real-orbit line: ``json.dumps({"step": step, **phase_point_json(x)}, sort_keys=True)``."""
    return _STEP_LINE.format(*_coord_reprs(x), step)
