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
from itertools import repeat

import numpy as np

from .curve import (
    ON_CURVE_TOL,
    SINGULAR_GRADIENT_TOL,
    CurveError,
    PlaneCurve,
    ProjPoint,
    on_curve_residual,
    point_order_key,
    proj_distance,
    proj_point,
    proj_points,
    tangent_at,
)
from .numerics import ComplexPoly, NonConvergenceError, RootCluster, find_roots, root_rows

__all__ = [
    "DirectionPoint",
    "PhasePoint",
    "Branch",
    "TerminatedBranch",
    "BranchSet",
    "OrbitNode",
    "OrbitLevel",
    "OrbitTree",
    "PhaseError",
    "ScratchPointError",
    "InfinityBasePointError",
    "LineInCurveError",
    "OffCurveError",
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


class OffCurveError(PhaseError):
    """A reflection's base point is off the curve or singular: the step
    that produced it lost the curve (a numerical failure, not bad input)."""


# the errors a stacked step records as one state's own
_ROW_ERRORS = (PhaseError, NonConvergenceError)


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


# ---------------------------------------------------------------------------
# scratch proximity
# ---------------------------------------------------------------------------


def secant_scratch_proximity(curve: PlaneCurve, x: PhasePoint) -> float:
    """Distance in chart coordinates to the secant indeterminacy condition
    (base point at infinity with the line direction equal to its tangent)."""
    dist = abs(x.c.coords[2])
    if dist > SCRATCH_SOFT_TOL:
        return dist
    return float(_proximity_rows(curve, np.array([x.c.coords]), np.array([x.q.slope_pair]), np.array([dist]))[0])


def _proximity_rows(curve: PlaneCurve, c: np.ndarray, slopes: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Scratch proximity of the rows of an (M, 3) stack c of base points with
    (M, 2) slopes and distances dist (each at most SCRATCH_SOFT_TOL) by
    ``tangent_at``'s rules: dist where the base point is off the curve or
    singular or has the line at infinity as tangent, else the larger of dist
    and the direction distance of the slope to the tangent [F1 : -F0]."""
    f = curve.form_values(c, grad=True)
    g = np.abs(f[:, 1:3])
    # a singular point also has max(|F0|, |F1|) below the gradient tolerance
    tangent = (np.abs(f[:, 0]) <= ON_CURVE_TOL) & (g.max(axis=1) >= SINGULAR_GRADIENT_TOL)
    with np.errstate(all="ignore"):
        turn = (np.abs(slopes[:, 0] * f[:, 1] + slopes[:, 1] * f[:, 2])
                / (np.linalg.norm(slopes, axis=1) * np.linalg.norm(g, axis=1)))
    return np.where(tangent, np.maximum(dist, turn), dist)


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

    The restriction of the curve form is a degree-d polynomial in t, which
    ``_line_roots`` resolves.  Returns the remaining parameter clusters in
    ``find_roots`` order (map them to points with ``line_point``) and the
    multiplicity at e.
    """
    return _line_roots(curve.restrict_to_line(base, e).coeffs, curve.degree, remove)


def _line_roots(poly, d: int, remove: int) -> tuple[list[RootCluster], int]:
    """The roots of a line's restriction, given by its ascending coefficients
    poly (at most d + 1), from ``find_roots``, the one-row root rule.  A line
    inside the curve is refused; ``remove`` (0, 1 or 2) copies of a known
    root at t = 0 are divided out by dropping the low coefficients, which
    must sit at the residual level of the base point; top coefficients below
    1e-9 of the line scale count as intersections at e itself (t = infinity,
    the direction point [D0 : D1 : 0] when e = (D0, D1, 0)).  The stacked
    secant sends here only its rows that fail one of these gates."""
    line_scale = max(abs(c) for c in poly)
    if line_scale <= 1e-12:
        raise LineInCurveError("the line lies in the curve")
    coeffs = list(poly) + [0j] * (d + 1 - len(poly))
    gates = (1e-6, 1e-5)[:remove]
    if any(abs(c) > g * line_scale for c, g in zip(coeffs, gates)):
        raise PhaseError(f"the line does not meet the curve {remove} times at the base point")
    body = coeffs[remove:]
    eff = len(body)
    while eff > 0 and abs(body[eff - 1]) <= 1e-9 * line_scale:
        eff -= 1
    roots = find_roots(ComplexPoly(body[:eff])) if eff >= 2 else []
    return roots, (d - remove) - max(eff - 1, 0)


def _line_rows(curve: PlaneCurve, bases, directions) -> list:
    """``line_intersections`` of each line base + t * e of two (N, 3) stacks:
    its roots as (value, multiplicity) pairs in ``find_roots`` order and its
    multiplicity at e, or the PhaseError or NonConvergenceError it raised.

    Every line is restricted in one ``restrict_to_lines`` call.  The rows of
    each degree left after the top trim of ``_line_roots`` are made monic by
    Python complex division, as ``find_roots`` does, and solved in one
    ``_stack_roots`` call, so every value is bitwise that of
    ``line_intersections``; ``_line_roots`` resolves the other rows (a line
    in the curve or meeting it only at e, a non-finite coefficient)."""
    d = curve.degree
    coeffs = curve.restrict_to_lines(bases, directions)
    mag = np.hypot(coeffs.real, coeffs.imag)  # abs as Python computes it
    top = mag.max(axis=1)
    kept = mag > 1e-9 * top[:, None]
    degree = np.where((1e-12 < top) & (top < np.inf), d - kept[:, ::-1].argmax(axis=1), 0)
    rows = coeffs.tolist()
    out = [None] * len(rows)
    for n in sorted(set(degree.tolist()) - {0}):  # not np.unique, which imports numpy.ma
        at = np.flatnonzero(degree == n).tolist()
        values, mult, failed = _stack_roots(np.array([[c / rows[i][n] for c in rows[i][:n]] for i in at]))
        for k, (i, v, m) in enumerate(zip(at, values.tolist(), mult.tolist())):
            out[i] = failed.get(k) or (sorted(((z, j) for z, j in zip(v, m) if j), key=lambda r: (r[0].real, r[0].imag)), d - n)
    for i in np.flatnonzero(degree == 0).tolist():
        try:
            roots, at_e = _line_roots(rows[i], d, 0)
            out[i] = ([(r.value, r.multiplicity) for r in roots], at_e)
        except _ROW_ERRORS as exc:
            out[i] = exc
    return out


def _stack_roots(monic: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """``root_rows`` of a stack of monic rows, and a map from each row whose
    eigenvalue iteration fails to its NonConvergenceError: when the stack
    fails, its rows are solved one at a time, bitwise as in the stack (a
    row's roots depend on that row alone), so an error is that row's own."""
    try:
        return (*root_rows(monic), {})
    except NonConvergenceError:
        pass
    values, mult, failed = np.zeros(monic.shape, dtype=complex), np.zeros(monic.shape, dtype=int), {}
    for k in range(len(monic)):
        try:
            (values[k],), (mult[k],) = root_rows(monic[k : k + 1])
        except NonConvergenceError as exc:
            failed[k] = exc
    return values, mult, failed


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
    _, images, mult, ill, errors = _secant_rows(curve, *_stack([x]))
    if errors:
        raise errors[0]
    branches = tuple(Branch(PhasePoint(ProjPoint(tuple(p)), x.q), m)
                     for p, m in zip(images.tolist(), mult.tolist()))
    return BranchSet(source=x, op_tag="secant", images=branches, ill_conditioned=ill[0])


def _secant_rows(curve: PlaneCurve, c: np.ndarray, q: np.ndarray):
    """Secant images of the states with (N, 3) stacks c and q, as arrays of
    their images: source row, (K, 3) image points and multiplicities, each
    state's images in point order; then the ill_conditioned flags and a map
    from a state to the PhaseError or NonConvergenceError it raised.

    Every line is restricted in one ``restrict_to_lines`` call, and states
    with |X2| <= SCRATCH_SOFT_TOL get their ``_proximity_rows`` (flagged
    ill_conditioned below SCRATCH_SOFT_TOL).  A row's images and
    multiplicities are its roots in one ``_stack_roots`` call (base root
    t = 0 dropped), a tangent line's double image included, and a row whose
    eigenvalue iteration fails raises its own NonConvergenceError, unless
    the row is in the hard band (proximity below SCRATCH_HARD_TOL), which
    raises ScratchPointError, or fails a gate of ``_line_roots``: a line in
    the curve, a base root that does not vanish, or a degree drop.  Those
    rows send their coefficients to ``_line_roots``."""
    d = curve.degree
    line = q.copy()
    line[:, 2] = 0
    prox = np.abs(c[:, 2])
    band = prox < _near_infinity_band(d)
    if band.any():
        cb, db = c[band], line[band]
        e = (db * np.einsum("mk,mk->m", cb.conj(), cb)[:, None]
             - cb * np.einsum("mk,mk->m", cb.conj(), db)[:, None])
        # an exact scratch point gives e = 0, which proximity refuses later
        nonzero = np.abs(e).max(axis=1) > 0
        e[nonzero] = proj_points(e[nonzero])
        line[band] = e
        near = prox <= SCRATCH_SOFT_TOL
        if near.any():
            prox[near] = _proximity_rows(curve, c[near], q[near, :2], prox[near])
    ill = (prox < SCRATCH_SOFT_TOL).tolist()
    coeffs = curve.restrict_to_lines(c, line)
    mag = np.abs(coeffs)
    top = mag.max(axis=1)
    ok = (
        (prox >= SCRATCH_HARD_TOL)
        & (top > 1e-12)
        & (mag[:, 0] <= 1e-6 * top)
        & (mag[:, -1] > 1e-9 * top)
    )
    gated = np.flatnonzero(~ok).tolist()
    t, m, failed = _stack_roots(coeffs[ok, 1:-1] / coeffs[ok, -1:])
    errors = {}
    if failed:
        errors = dict(zip(np.flatnonzero(ok)[list(failed)].tolist(), failed.values()))
        t, m = np.delete(t, list(failed), axis=0), np.delete(m, list(failed), axis=0)
        ok[list(errors)] = False
    cs, ls = c[ok], line[ok]
    pts = cs[:, None, :] + t[:, :, None] * ls[:, None, :]
    pts[:, :, 2] = np.where(ls[:, None, 2] == 0, cs[:, None, 2], pts[:, :, 2])
    pts = proj_points(pts.reshape(-1, 3)).reshape(len(t), d - 1, 3)
    if d > 2:
        # point_order_key on each state's images: a stable sort on (re X0, im X0, re X1, im X1)
        order = np.arange(len(pts))[:, None], np.lexsort(np.moveaxis(pts.view(float)[:, :, 3::-1], -1, 0))
        pts, m = pts[order], m[order]
    src = np.repeat(np.flatnonzero(ok), d - 1)
    images, mult = pts.reshape(-1, 3), m.ravel()
    if not mult.all():  # the count-0 slots of merged clusters hold no image
        src, images, mult = src[mult > 0], images[mult > 0], mult[mult > 0]
    if not gated:
        return src, images, mult, ill, errors
    rows = []
    for i in gated:
        try:
            if prox[i] < SCRATCH_HARD_TOL:
                raise ScratchPointError(
                    f"secant source is a scratch point at infinity (proximity {prox[i]:.2e})"
                )
            roots, at_e = _line_roots(coeffs[i].tolist(), d, 1)
        except _ROW_ERRORS as exc:
            errors[i] = exc
            continue
        base, e = c[i].tolist(), line[i].tolist()
        found = [(proj_point(*e).coords, at_e)] if at_e else []
        found += [(line_point(base, e, r.value).coords, r.multiplicity) for r in roots]
        rows += [(i, p, m) for p, m in sorted(found, key=lambda im: point_order_key(im[0]))]
    if rows:
        i, p, m = zip(*rows)
        src, images, mult = np.append(src, i), np.concatenate((images, p)), np.append(mult, m)
        back = np.argsort(src, kind="stable")
        src, images, mult = src[back], images[back], mult[back]
    return src, images, mult, ill, errors


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
# |F|, |T_z|, |T_w|, |T_z / T_w|, |T_w / T_z| and the conic residual of its image
_REFLECT_SIGNS = np.array([1, 1, -1, 1, 1, 1, 1, -1])
_REFLECT_BOUNDS = np.array([ISOTROPIC_Q2_TOL, SCRATCH_SOFT_TOL, -ON_CURVE_TOL,
                            2 * SINGULAR_GRADIENT_TOL, 2 * SINGULAR_GRADIENT_TOL,
                            1e-15, 1e-15, -CONIC_TOL])


def _reflect_rows(curve: PlaneCurve, c: np.ndarray, q: np.ndarray):
    """Reflections of the states with (M, 3) stacks c and q by the product
    formula, all rows at once: the normalized images, the ill_conditioned
    flags and a map from a row to the PhaseError it raised.  A row with
    |q2| <= SCRATCH_SOFT_TOL that passes every other bound stays stacked
    unless its ``_proximity_rows`` lies in the hard band; any other row
    outside the (conservative) bounds gets a single state's checks, in its
    order: base point at infinity, hard band, off the curve or singular
    (that row's OffCurveError), isotropic tangent."""
    # einsum, not BLAS products, so that no row depends on the rows stacked with it
    f_t = np.einsum("mk,kj->mj", curve.form_values(c, grad=True), _TANGENT_NULL)
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
    prox, near = mags[:, 1].copy(), ~ok[:, 1]
    if near.any():
        # |q2| <= SCRATCH_SOFT_TOL: the row stays unless its proximity is in the hard band
        prox[near] = _proximity_rows(curve, c[near], q[near, :2], prox[near])
        ok[:, 1], ill = prox >= SCRATCH_HARD_TOL, (prox < SCRATCH_SOFT_TOL).tolist()
    for r in np.flatnonzero(~ok.all(axis=1)).tolist():
        tz, tw = mags[r, 3:5].tolist()
        try:
            if mags[r, 0] < ISOTROPIC_Q2_TOL:
                raise InfinityBasePointError("reflection base point lies at infinity")
            if prox[r] < SCRATCH_HARD_TOL:
                raise ScratchPointError(
                    f"reflection source is an isotropic scratch point (proximity {prox[r]:.2e})"
                )
            try:
                tangent_at(curve, ProjPoint(tuple(c[r].tolist())))
            except CurveError as exc:
                raise OffCurveError(str(exc)) from exc
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
    step = billiard_steps(curve, [x])[0]
    if isinstance(step, _ROW_ERRORS):
        raise step
    return step


def billiard_steps(curve: PlaneCurve, xs) -> list:
    """Billiard steps of the states xs (each a BranchSet or the PhaseError
    or NonConvergenceError it raised), built from the arrays of the stacked
    step ``_step_rows``.  Each state's step is bitwise the one
    ``billiard_step`` gives it alone."""
    if not xs:
        return []
    src, images, directions, mult, reasons, ill = _step_rows(curve, *_stack(xs))
    steps = [([], []) for _ in xs]
    for i, p, q, m, reason in zip(src.tolist(), images.tolist(), directions.tolist(),
                                  mult.tolist(), reasons):
        if reason is None:
            steps[i][0].append(Branch(PhasePoint(ProjPoint(tuple(p)), _direction(q)), m))
        elif isinstance(reason, _ROW_ERRORS):
            steps[i] = reason
        else:
            steps[i][1].append(TerminatedBranch(PhasePoint(ProjPoint(tuple(p)), xs[i].q), m, reason))
    return [
        step if isinstance(step, _ROW_ERRORS)
        else BranchSet(x, "billiard", tuple(step[0]), tuple(step[1]), flag)
        for x, step, flag in zip(xs, steps, ill)
    ]


def _step_rows(curve: PlaneCurve, c: np.ndarray, q: np.ndarray):
    """Billiard steps of the states with (N, 3) stacks c and q, one stacked
    secant and one stacked reflection, as arrays of their children: source
    row, (K, 3) points and directions, multiplicities and reasons; then the
    ill_conditioned flags.  A state's children are its live branches (reason
    None), then its terminated ones (reason a string, direction the
    source's), each in point order; a state whose step raised has one child
    instead, itself with the error as reason."""
    src, images, mult, ill, errors = _secant_rows(curve, c, q)
    directions, _, failed = _reflect_rows(curve, images, q[src])
    reasons = [None] * len(src)
    if not failed and not errors:
        return src, images, directions, mult, reasons, ill
    for r, exc in failed.items():
        reasons[r] = _TERMINATIONS.get(type(exc))
        if reasons[r] is None:
            errors.setdefault(int(src[r]), exc)
    ended = np.array([reason is not None for reason in reasons], dtype=bool)
    directions[ended] = q[src[ended]]
    keep, bad = ~np.isin(src, list(errors)), np.array(sorted(errors), dtype=int)
    ones = np.ones(len(bad), dtype=int)
    src = np.append(src[keep], bad)
    order = np.lexsort((np.append(ended[keep], ones), src))
    reasons = [r for r, k in zip(reasons, keep) if k] + [errors[i] for i in bad.tolist()]
    return (src[order], np.concatenate((images[keep], c[bad]))[order],
            np.concatenate((directions[keep], q[bad]))[order],
            np.append(mult[keep], ones)[order], [reasons[r] for r in order.tolist()], ill)


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


@dataclass(frozen=True, eq=False)
class OrbitLevel:
    """One level of an orbit tree as arrays: (N, 3) stacks of base points c
    and directions q, parent indices into the previous level (-1 for the
    root), multiplicities, and per node the terminated reason (None while
    live).  Iterating it builds OrbitNodes on demand."""

    c: np.ndarray
    q: np.ndarray
    parent: np.ndarray
    mult: np.ndarray
    reason: tuple[str | None, ...]

    def __len__(self) -> int:
        return len(self.reason)

    def __iter__(self):
        for c, q, parent, mult, reason in zip(self.c.tolist(), self.q.tolist(), self.parent.tolist(),
                                              self.mult.tolist(), self.reason):
            yield OrbitNode(PhasePoint(ProjPoint(tuple(c)), _direction(q)), parent, mult, reason)

    def live(self) -> np.ndarray:
        return np.array([reason is None for reason in self.reason], dtype=bool)


@dataclass(frozen=True)
class OrbitTree:
    root: PhasePoint
    depth: int
    levels: tuple[OrbitLevel, ...]

    def level_mass(self, k: int) -> int:
        level = self.levels[k]
        return int(level.mult[level.live()].sum())

    def leaves_with_multiplicity(self) -> int:
        return self.level_mass(self.depth)


def orbit_tree(curve: PlaneCurve, x: PhasePoint, depth: int) -> OrbitTree:
    """Breadth-first expansion of the billiard correspondence to ``depth`` levels.

    Branches that hit scratch points are kept as terminated nodes with a
    reason rather than silently dropped, so the surviving mass at level k
    plus terminated mass accounts for the full (d-1)^k count; a state whose
    step raised is kept as one terminated node named after its error.  Each
    level is one ``_step_rows`` call on the live nodes of the level before.
    A tree whose node bound sum_{k <= depth} (d-1)^k exceeds MAX_ORBIT_NODES
    is refused before any step is taken.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    bound, width = 0, 1
    for _level in range(depth + 1):
        bound += width
        if bound > MAX_ORBIT_NODES:
            raise PhaseError(f"orbit tree exceeds {MAX_ORBIT_NODES} nodes")
        width *= curve.degree - 1
    level = OrbitLevel(*_stack([x]), np.array([-1]), np.array([1]), (None,))
    levels = [level]
    for _level in range(depth):
        live = np.flatnonzero(level.live())
        src, images, directions, mult, reasons, _ = _step_rows(curve, level.c[live], level.q[live])
        reasons = [type(r).__name__ if isinstance(r, _ROW_ERRORS) else r for r in reasons]
        parent = live[src]
        level = OrbitLevel(images, directions, parent, level.mult[parent] * mult, tuple(reasons))
        levels.append(level)
    return OrbitTree(root=x, depth=depth, levels=tuple(levels))


# orbit lines as json.dumps(obj, sort_keys=True) writes them: finite floats by float.__repr__
_PAIRS = "[[{}, {}], [{}, {}], [{}, {}]]"
_NODE_LINE = '{{"c": ' + _PAIRS + ', "level": {}, "mult": {}, "parent_index": {}, "q": ' + _PAIRS + "{}"
_STEP_LINE = '{{"c": ' + _PAIRS + ', "q": ' + _PAIRS + ', "step": {}}}'
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# nodes written per block: bounds the float strings alive at once (peak memory)
_WRITE_ROWS = 256


def _float_reprs(values: np.ndarray) -> list[str]:
    """The real and imaginary parts of every entry of a complex array, in
    order, as json writes them."""
    reprs = list(map(float.__repr__, values.view(float).ravel().tolist()))
    return reprs if np.isfinite(values).all() else [_NONFINITE.get(r, r) for r in reprs]


def orbit_tree_jsonl(tree: OrbitTree) -> list[str]:
    """One JSON object per node: level, parent, coordinates, multiplicity,
    and the terminated reason of a terminated node; each block of a level
    is written column by column from its arrays."""
    import json

    lines = []
    for k, level in enumerate(tree.levels):
        for start in range(0, len(level), _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            r = _float_reprs(np.concatenate((level.c[rows], level.q[rows]), axis=1))
            ends = ["}" if why is None else ', "terminated_reason": ' + json.dumps(why) + "}"
                    for why in level.reason[rows]]
            lines += map(_NODE_LINE.format, *(r[j::12] for j in range(6)), repeat(k, len(ends)),
                         level.mult[rows].tolist(), level.parent[rows].tolist(),
                         *(r[j::12] for j in range(6, 12)), ends)
    return lines


def orbit_step_json(step: int, x: PhasePoint) -> str:
    """One real-orbit line: ``json.dumps({"step": step, **phase_point_json(x)}, sort_keys=True)``."""
    return _STEP_LINE.format(*_float_reprs(np.array(x.c.coords + x.q.q, dtype=complex)), step)
