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
from dataclasses import dataclass, replace

from .curve import (
    ON_CURVE_TOL,
    CurveError,
    PlaneCurve,
    ProjPoint,
    direction_distance,
    on_curve_residual,
    point_order_key,
    proj_distance,
    proj_point,
    tangent_at,
)
from .numerics import ComplexPoly, RootCluster, deflate_root, find_roots

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
    "real_billiard_step",
    "orbit_tree",
    "orbit_tree_jsonl",
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


def _sorted_branches(branches) -> tuple[Branch, ...]:
    return tuple(sorted(branches, key=lambda b: point_order_key(b.point.c.coords)))


# ---------------------------------------------------------------------------
# scratch proximity
# ---------------------------------------------------------------------------


def secant_scratch_proximity(curve: PlaneCurve, x: PhasePoint) -> float:
    """Distance in chart coordinates to the secant indeterminacy condition
    (base point at infinity with the line direction equal to its tangent)."""
    return _scratch_proximity(curve, x, abs(x.c.coords[2]))


def reflect_scratch_proximity(curve: PlaneCurve, x: PhasePoint) -> float:
    """Distance to the reflection indeterminacy condition (isotropic q equal
    to the tangent direction at an isotropic tangency point)."""
    return _scratch_proximity(curve, x, abs(x.q.q[2]))


def _scratch_proximity(curve: PlaneCurve, x: PhasePoint, dist: float) -> float:
    if dist > SCRATCH_SOFT_TOL:
        return dist
    try:
        td = tangent_at(curve, x.c)
    except CurveError:
        return dist
    return max(dist, direction_distance(x.q.slope_pair, td.tangent))


# ---------------------------------------------------------------------------
# line intersections
# ---------------------------------------------------------------------------


def line_point(base, direction, t) -> ProjPoint:
    """The point base + t * direction of a line whose direction lies at infinity.

    The third coordinate is base[2] itself rather than base[2] + t * 0, which
    keeps the sign of a zero coordinate.
    """
    return proj_point(base[0] + t * direction[0], base[1] + t * direction[1], base[2])


def line_intersections(
    curve: PlaneCurve, base, direction, *, remove: int = 0
) -> tuple[list[RootCluster], int]:
    """Intersections of the curve with the line base + t * (D0, D1, 0).

    The restriction of the curve form is a degree-d polynomial in t.  A line
    inside the curve is refused; ``remove`` (0, 1 or 2) copies of a known
    root at t = 0 are divided out; top coefficients below 1e-9 of the line
    scale count as intersections at the direction point [D0 : D1 : 0].
    Returns the remaining parameter clusters in ``find_roots`` order (map
    them to points with ``line_point``) and the multiplicity at the
    direction point.
    """
    body, at_direction = _line_polynomial(curve, base, direction, remove, 1e-9)
    return _line_roots(body), at_direction


def _line_polynomial(curve, base, direction, remove, trim):
    d = curve.degree
    poly = curve.restrict_to_line(base, direction)
    line_scale = max(abs(c) for c in poly.coeffs)
    if line_scale <= 1e-12 * max(1.0, curve.scale()):
        raise LineInCurveError("the line lies in the curve")
    coeffs = list(poly.coeffs) + [0j] * (d + 1 - len(poly.coeffs))
    # a known root at t = 0 is removed by dropping the low coefficients,
    # which must sit at the residual level of the base point
    gates = (1e-6, 1e-5)[:remove]
    if any(abs(c) > g * line_scale for c, g in zip(coeffs, gates)):
        raise PhaseError(f"the line does not meet the curve {remove} times at the base point")
    body = coeffs[remove:]
    eff = len(body)
    while eff > 0 and abs(body[eff - 1]) <= trim * line_scale:
        eff -= 1
    return body[:eff], (d - remove) - max(eff - 1, 0)


def _line_roots(coeffs) -> list[RootCluster]:
    return find_roots(ComplexPoly(coeffs)) if len(coeffs) >= 2 else []


# ---------------------------------------------------------------------------
# secant
# ---------------------------------------------------------------------------


def _near_infinity_band(d: int) -> float:
    """Base points with |X2| below this are parametrized from an affine anchor.

    The straightforward parametrization of a line through a base point near
    the infinity line evaluates the curve form where it nearly vanishes as a
    whole, which loses about eps_machine / |X2|^d of accuracy; the band is
    sized so that error stays two orders below the 1e-8 residual gates.
    """
    return max(1e-2, 1e-4 ** (1.0 / d))


def secant(curve: PlaneCurve, x: PhasePoint) -> BranchSet:
    """The d-1 other intersections of the line through c with direction [q].

    The line is parametrized as base + t * (Q0, Q1, 0); the restriction of
    the curve form is a degree-d polynomial in t.  Exactly one copy of the
    base-point root is removed, so a tangent line returns the base point
    itself among the images.  Intersections at the direction point
    [Q0 : Q1 : 0] show up as a degree drop and are restored explicitly, so
    images may lie at infinity.

    A base point close to (but not on) the infinity line would make the
    straightforward parametrization catastrophically ill-conditioned: the
    restricted coefficients all shrink with the distance to infinity while
    the evaluation noise does not.  In that band the same line is re-anchored
    at an affine point computed from the well-conditioned line offset
    cross(q, c) / c2, and the base root is removed by cluster matching
    instead of a coefficient shift.
    """
    prox = secant_scratch_proximity(curve, x)
    if prox < SCRATCH_HARD_TOL:
        raise ScratchPointError(
            f"secant source is a scratch point at infinity (proximity {prox:.2e})"
        )
    ill = prox < SCRATCH_SOFT_TOL

    d = curve.degree
    q0, q1, _ = x.q.q
    c2 = x.c.coords[2]
    direction = (q0, q1, 0)
    if ISOTROPIC_Q2_TOL < abs(c2) < _near_infinity_band(d):
        base, roots, at_direction = _secant_roots_reanchored(curve, x)
    else:
        base = x.c.coords
        roots, at_direction = line_intersections(curve, base, direction, remove=1)

    branches = [
        Branch(PhasePoint(c=line_point(base, direction, r.value), q=x.q), r.multiplicity)
        for r in roots
    ]
    if at_direction > 0:
        branches.insert(0, Branch(PhasePoint(c=proj_point(q0, q1, 0), q=x.q), at_direction))
    out = BranchSet(
        source=x, op_tag="secant", images=_sorted_branches(branches), ill_conditioned=ill
    )
    if out.total_multiplicity() != d - 1:
        raise PhaseError(
            f"secant images carry multiplicity {out.total_multiplicity()}, not d - 1 = {d - 1}"
        )
    return out


def _secant_roots_reanchored(
    curve: PlaneCurve, x: PhasePoint
) -> tuple[tuple, list[RootCluster], int]:
    q0, q1, _ = x.q.q
    c0, c1, c2 = x.c.coords
    # affine equation of the line: perp . x = offset, with perp = (-q1, q0);
    # the cross product is formed from normalized O(1) coordinates, so the
    # offset/c2 ratio is computed without cancellation amplification
    offset = (q0 * c1 - q1 * c0) / c2
    norm2 = abs(q0) ** 2 + abs(q1) ** 2
    # anchor solves perp . a = offset with minimal Hermitian norm
    anchor = (
        offset * (-q1).conjugate() / norm2,
        offset * q0.conjugate() / norm2,
        1.0,
    )
    direction = (q0, q1, 0)
    # the far anchor inflates the line scale, so the trim is two orders finer
    body, at_direction = _line_polynomial(curve, anchor, direction, 0, 1e-11)

    # parameter of the base point on the re-anchored line
    ya = (c0 / c2, c1 / c2)
    if abs(q0) >= abs(q1):
        t_base = (ya[0] - anchor[0]) / q0
    else:
        t_base = (ya[1] - anchor[1]) / q1

    if abs(t_base) > 1e3:
        # the base parameter dwarfs the other roots; a single relative
        # cluster radius would merge them, so remove the base root first by
        # deflating the reversed polynomial at 1/t_base (stable for large
        # roots; the scalar factor the reversal introduces does not move
        # the remaining roots)
        quotient = deflate_root(ComplexPoly(body[::-1]), 1.0 / t_base, 1)
        return anchor, _line_roots(list(quotient.coeffs)[::-1]), at_direction

    roots = _line_roots(body)
    rels = [abs(r.value - t_base) / (1.0 + abs(t_base)) for r in roots]
    if not rels or min(rels) > 1e-3:
        raise PhaseError("could not locate the base point on the re-anchored line")
    i = rels.index(min(rels))
    roots[i] = replace(roots[i], multiplicity=roots[i].multiplicity - 1)
    return anchor, [r for r in roots if r.multiplicity > 0], at_direction


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
    """
    if abs(x.c.coords[2]) < ISOTROPIC_Q2_TOL:
        raise InfinityBasePointError("reflection base point lies at infinity")
    prox = reflect_scratch_proximity(curve, x)
    if prox < SCRATCH_HARD_TOL:
        raise ScratchPointError(
            f"reflection source is an isotropic scratch point (proximity {prox:.2e})"
        )
    ill = prox < SCRATCH_SOFT_TOL

    td = tangent_at(curve, x.c)
    t0, t1 = td.tangent
    q0, q1, q2 = x.q.q

    tz = t0 + 1j * t1
    tw = t0 - 1j * t1
    vz = q0 + 1j * q1
    vw = q0 - 1j * q1
    # the smaller null component of q is recovered from the conic relation
    # V_z V_w = Q2^2, which avoids the subtractive cancellation it carries
    if abs(vz) < 1e-3 * abs(vw):
        vz = q2 * q2 / vw
    elif abs(vw) < 1e-3 * abs(vz):
        vw = q2 * q2 / vz

    tscale = max(abs(tz), abs(tw))
    if abs(tw) < 1e-15 * tscale:
        # tangent direction [1 : -i]: image is that isotropic point
        image_q = direction_point(1, -1j, 0)
    elif abs(tz) < 1e-15 * tscale:
        image_q = direction_point(1, 1j, 0)
    else:
        rz = vw * tz / tw
        rw = vz * tw / tz
        image_q = direction_point((rz + rw) / 2, (rz - rw) / 2j, q2)

    branch = Branch(PhasePoint(c=x.c, q=image_q), 1)
    return BranchSet(source=x, op_tag="reflect", images=(branch,), ill_conditioned=ill)


# ---------------------------------------------------------------------------
# billiards
# ---------------------------------------------------------------------------


def billiard_step(curve: PlaneCurve, x: PhasePoint) -> BranchSet:
    """Secant followed by reflection on every branch.

    Branches whose secant image cannot be reflected (image at infinity, or
    an isotropic scratch point downstream) are returned as terminated
    branches with a reason, so multiplicity bookkeeping stays exact.
    """
    sec = secant(curve, x)
    images: list[Branch] = []
    terminated: list[TerminatedBranch] = []
    for br in sec.images:
        try:
            ref = reflect(curve, br.point)
        except InfinityBasePointError:
            terminated.append(
                TerminatedBranch(br.point, br.multiplicity, "image_at_infinity")
            )
            continue
        except ScratchPointError:
            terminated.append(
                TerminatedBranch(br.point, br.multiplicity, "isotropic_scratch")
            )
            continue
        images.append(Branch(ref.images[0].point, br.multiplicity))
    return BranchSet(
        source=x,
        op_tag="billiard",
        images=_sorted_branches(images),
        terminated=tuple(terminated),
        ill_conditioned=sec.ill_conditioned,
    )


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
        nxt: list[OrbitNode] = []
        for idx, node in enumerate(levels[-1]):
            if node.terminated_reason is not None:
                continue
            try:
                step = billiard_step(curve, node.point)
            except PhaseError as exc:
                nxt.append(
                    OrbitNode(node.point, idx, node.multiplicity, type(exc).__name__)
                )
                continue
            for br in step.images:
                nxt.append(OrbitNode(br.point, idx, node.multiplicity * br.multiplicity))
            for tb in step.terminated:
                nxt.append(
                    OrbitNode(tb.point, idx, node.multiplicity * tb.multiplicity, tb.reason)
                )
        levels.append(tuple(nxt))
    return OrbitTree(root=x, depth=depth, levels=tuple(levels))


def orbit_tree_jsonl(tree: OrbitTree) -> list[str]:
    """One JSON object per node: level, parent, coordinates, multiplicity."""
    import json

    lines = []
    for level, nodes in enumerate(tree.levels):
        for node in nodes:
            obj = {
                "level": level,
                "parent_index": node.parent_index,
                **phase_point_json(node.point),
                "mult": node.multiplicity,
            }
            if node.terminated_reason is not None:
                obj["terminated_reason"] = node.terminated_reason
            lines.append(json.dumps(obj, sort_keys=True))
    return lines
