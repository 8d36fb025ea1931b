"""Plane algebraic curves as billiard tables.

A curve is a homogeneous form F(X0, X1, X2) of degree d >= 2 with exact
Gaussian-rational coefficients.  Exactness is kept at the ingestion layer
only; all geometric evaluation (points, tangents, intersections) is complex
floating point, with residual tolerances scaled by the largest coefficient.

Conventions:

* projective points are normalized so the coordinate of largest magnitude
  is exactly 1;
* the tangent direction at a smooth point is [dF/dX1 : -dF/dX0] and the
  normal direction is the quarter turn [-t1 : t0];
* the isotropic directions are the pairs [1 : i] and [1 : -i], which are
  null for the bilinear form dx0^2 + dx1^2.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .numerics import ComplexPoly, find_roots

__all__ = [
    "PlaneCurve",
    "ProjPoint",
    "TangentData",
    "GenericityReport",
    "CurveError",
    "ContainsInfinityLineError",
    "SingularPointError",
    "DegenerateSystemError",
    "DegenerateNewtonError",
    "proj_point",
    "proj_points",
    "point_order_key",
    "proj_distance",
    "direction_distance",
    "evaluate",
    "on_curve_residual",
    "points_at_infinity",
    "tangent_at",
    "tangent_frame",
    "curve_point_near",
    "isotropic_tangency_points",
    "genericity_report",
    "curve_from_json",
    "curve_to_json",
    "curve_from_affine",
]

ON_CURVE_TOL = 1e-8
SINGULAR_GRADIENT_TOL = 1e-10
NEWTON_2D_TOL = 1e-10


class CurveError(ValueError):
    pass


class ContainsInfinityLineError(CurveError):
    """The form vanishes identically on the line at infinity."""


class SingularPointError(CurveError):
    """Gradient vanishes (or tangent undefined) at the requested point."""


class DegenerateSystemError(CurveError):
    """A resultant vanished identically; the curve contains a special line."""


class DegenerateNewtonError(CurveError):
    """The Newton transversal pairs to zero with the gradient."""


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjPoint:
    """Point of the projective plane, normalized so max-magnitude coord is 1."""

    coords: tuple[complex, complex, complex]

    @property
    def is_at_infinity(self) -> bool:
        return abs(self.coords[2]) < ON_CURVE_TOL

    def affine(self) -> tuple[complex, complex]:
        x0, x1, x2 = self.coords
        return x0 / x2, x1 / x2

    def conjugate(self) -> "ProjPoint":
        return proj_point(*(z.conjugate() for z in self.coords))


def proj_point(x0, x1, x2) -> ProjPoint:
    v = (complex(x0), complex(x1), complex(x2))
    mags = [abs(z) for z in v]
    big = max(mags)
    if big == 0.0:
        raise ValueError("projective point cannot be the zero triple")
    idx = mags.index(big)
    pivot = v[idx]
    coords = [z / pivot for z in v]
    coords[idx] = 1 + 0j  # z / z can leave imaginary noise
    return ProjPoint(tuple(coords))


def proj_points(v: np.ndarray) -> np.ndarray:
    """``proj_point`` on every row of an (M, 3) stack, as a new (M, 3) array."""
    pivots = np.abs(v).argmax(axis=1) + np.arange(0, v.size, 3)
    out = v / v.take(pivots)[:, None]
    out.put(pivots, 1)
    return out


def point_order_key(coords) -> tuple[float, float, float, float]:
    """Lexicographic order on the real and imaginary parts of the first two
    coordinates: the deterministic order of every point multiset."""
    return (coords[0].real, coords[0].imag, coords[1].real, coords[1].imag)


def proj_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Chordal (sine of Fubini-Study) distance between projective points:
    the norm of the three 2x2 minors of (p, q) over the product of norms."""
    a0, a1, a2 = p.coords
    b0, b1, b2 = q.coords
    wedge = math.hypot(abs(a0 * b1 - a1 * b0), abs(a0 * b2 - a2 * b0), abs(a1 * b2 - a2 * b1))
    na = math.hypot(abs(a0), abs(a1), abs(a2))
    nb = math.hypot(abs(b0), abs(b1), abs(b2))
    return wedge / (na * nb)


def direction_distance(u: tuple[complex, complex], v: tuple[complex, complex]) -> float:
    """Chordal distance between direction pairs in the projective line."""
    u0, u1 = complex(u[0]), complex(u[1])
    v0, v1 = complex(v[0]), complex(v[1])
    nu = math.hypot(abs(u0), abs(u1))
    nv = math.hypot(abs(v0), abs(v1))
    if nu == 0 or nv == 0:
        raise ValueError("zero direction")
    return abs(u0 * v1 - u1 * v0) / (nu * nv)


def normalize_pair(u0, u1) -> tuple[complex, complex]:
    u0, u1 = complex(u0), complex(u1)
    if abs(u0) == 0 and abs(u1) == 0:
        raise ValueError("zero direction pair")
    pivot = u0 if abs(u0) >= abs(u1) else u1
    return (u0 / pivot, u1 / pivot)


ISOTROPIC_PLUS = normalize_pair(1, 1j)
ISOTROPIC_MINUS = normalize_pair(1, -1j)


# ---------------------------------------------------------------------------
# homogeneous forms
# ---------------------------------------------------------------------------


class _Form:
    """Numeric homogeneous form: exponent rows and complex coefficients, and
    the same for (F, dF/dX0, dF/dX1, dF/dX2) over the monomials of degree d
    and d - 1 (a coefficient row per function), as rows v of flat indices
    v * (d + 1) + e_v into a table of powers."""

    __slots__ = ("exps", "coeffs", "degree", "scale", "roots", "_index", "_grad_index", "_grad_coeffs")

    def __init__(self, terms: dict[tuple[int, int, int], complex], degree: int):
        items = sorted((e, c) for e, c in terms.items() if c != 0)
        if items:
            self.exps = np.array([e for e, _ in items], dtype=np.int64)
            self.coeffs = np.array([c for _, c in items], dtype=complex)
        else:
            self.exps = np.zeros((0, 3), dtype=np.int64)
            self.coeffs = np.zeros(0, dtype=complex)
        self.degree = degree
        self.scale = float(np.max(np.abs(self.coeffs))) if len(items) else 0.0
        grad: dict[tuple[int, int, int], list[complex]] = {e: [c, 0j, 0j, 0j] for e, c in items}
        for e, c in items:
            for var in range(3):
                if e[var]:
                    low = tuple(k - (v == var) for v, k in enumerate(e))
                    grad.setdefault(low, [0j] * 4)[var + 1] += e[var] * c
        omega = cmath.exp(2j * math.pi / (degree + 1))
        self.roots = np.array([omega**j for j in range(degree + 1)])  # sample nodes of a line
        offsets = np.arange(3) * (degree + 1)
        self._index = (self.exps + offsets).T.copy()
        self._grad_index = (np.array(list(grad), dtype=np.int64).reshape(-1, 3) + offsets).T.copy()
        self._grad_coeffs = np.array(list(grad.values()), dtype=complex).reshape(-1, 4).T.copy()

    def values(self, points, grad: bool = False) -> np.ndarray:
        """F at each row of an (M, 3) stack of points, shape (M,); with
        ``grad`` the columns (F, dF/dX0, dF/dX1, dF/dX2), shape (M, 4)."""
        x = np.asarray(points, dtype=complex).reshape(-1, 3)
        table = (x[:, :, None] ** np.arange(self.degree + 1)).reshape(len(x), 3 * self.degree + 3)
        index, coeffs = (self._grad_index, self._grad_coeffs) if grad else (self._index, self.coeffs)
        mono = table.take(index[0], axis=1)
        mono *= table.take(index[1], axis=1)
        mono *= table.take(index[2], axis=1)
        # einsum sums each row on its own, so a row's value does not depend
        # on the rows stacked with it (a BLAS product's rounding does)
        return np.einsum("mk,...k->m...", mono, coeffs)


@dataclass(frozen=True)
class PlaneCurve:
    """Homogeneous plane curve of degree >= 2 with exact rational+i*rational coefficients.

    The exact coefficients are retained verbatim; the numeric form, with the
    table of its first partial derivatives, is built eagerly at construction,
    so instances are immutable and cheap to share.
    """

    degree: int
    coeffs: dict[tuple[int, int, int], tuple[Fraction, Fraction]]
    _form: _Form = field(repr=False, compare=False)

    @staticmethod
    def from_coeffs(degree: int, coeffs) -> "PlaneCurve":
        if degree < 2:
            raise CurveError("curve degree must be >= 2")
        exact: dict[tuple[int, int, int], tuple[Fraction, Fraction]] = {}
        numeric: dict[tuple[int, int, int], complex] = {}
        for key, val in coeffs.items():
            i, j, k = (int(v) for v in key)
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise CurveError(f"exponent triple {key} does not sum to degree {degree}")
            if isinstance(val, tuple):
                re, im = Fraction(val[0]), Fraction(val[1])
            elif isinstance(val, complex):
                re, im = Fraction(val.real), Fraction(val.imag)
            else:
                re, im = Fraction(val), Fraction(0)
            if re == 0 and im == 0:
                continue
            exact[(i, j, k)] = (re, im)
            numeric[(i, j, k)] = complex(float(re), float(im))
        if not exact:
            raise CurveError("curve form must have a nonzero coefficient")
        return PlaneCurve(degree, exact, _Form(numeric, degree))

    # numeric access -------------------------------------------------------

    def form_values(self, points, grad: bool = False) -> np.ndarray:
        """F, or with ``grad`` the columns (F, dF/dX0, dF/dX1, dF/dX2), at
        each row of an (M, 3) stack of points."""
        return self._form.values(points, grad)

    def form_value(self, x0, x1, x2) -> complex:
        return complex(self._form.values((x0, x1, x2))[0])

    def gradient(self, x0, x1, x2) -> tuple[complex, complex, complex]:
        return tuple(self._form.values((x0, x1, x2), grad=True)[0, 1:].tolist())

    def scale(self) -> float:
        return self._form.scale

    def restrict_to_line(self, base, direction) -> ComplexPoly:
        """Coefficients (ascending) of t -> F(base + t * direction)."""
        return ComplexPoly(list(self.restrict_to_lines([base], [direction])[0]))

    def restrict_to_lines(self, bases, directions) -> np.ndarray:
        """Ascending coefficients of t -> F(base + t * direction) for each row
        of two (N, 3) stacks, as an (N, d + 1) array.

        The form is sampled at t = omega^j, the (d + 1)-th roots of unity,
        all (d + 1) N points in one evaluation; the coefficients are the
        forward DFT of each line's samples over d + 1.
        """
        omega = self._form.roots
        b = np.asarray(bases, dtype=complex)
        v = np.asarray(directions, dtype=complex)
        samples = b[:, None, :] + omega[:, None] * v[:, None, :]
        vals = self._form.values(samples.reshape(-1, 3)).reshape(len(b), len(omega))
        return np.fft.fft(vals, axis=1) / len(omega)

    def affine_arrays(self):
        """(F, F_x, F_y) of the affine dehomogenization, as 2-d coefficient arrays."""
        d = self.degree
        out = np.zeros((3, d + 1, d + 1), dtype=complex)
        i, j, _ = self._form._grad_index - np.arange(3)[:, None] * (d + 1)
        for a, column in zip(out, self._form._grad_coeffs):
            np.add.at(a, (i, j), column)
        return out[0], out[1, :d, :d], out[2, :d, :d]


def curve_from_affine(degree: int, affine_coeffs) -> PlaneCurve:
    """Homogenize a dict {(i, j): rational or (re, im)} of affine monomials x^i y^j."""
    out = {}
    for (i, j), val in affine_coeffs.items():
        if i + j > degree:
            raise CurveError("affine monomial exceeds requested degree")
        out[(i, j, degree - i - j)] = val
    return PlaneCurve.from_coeffs(degree, out)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------


def evaluate(curve: PlaneCurve, p: ProjPoint) -> complex:
    return curve.form_value(*p.coords)


def on_curve_residual(curve: PlaneCurve, p: ProjPoint) -> float:
    return abs(evaluate(curve, p)) / max(1.0, curve.scale())


def points_at_infinity(curve: PlaneCurve) -> list[tuple[ProjPoint, int]]:
    """Roots of the binary form F(X0, X1, 0) as projective points with multiplicity."""
    d = curve.degree
    # term X0^(d-j) X1^j -> coefficient of s^j in F(1, s, 0)
    coeffs = [0j] * (d + 1)
    for e, c in zip(curve._form.exps, curve._form.coeffs):
        if int(e[2]) == 0:
            coeffs[int(e[1])] += complex(c)
    scale = max(1.0, curve.scale())
    if all(abs(c) <= 1e-12 * scale for c in coeffs):
        raise ContainsInfinityLineError("form vanishes on the line at infinity")
    poly = ComplexPoly(coeffs)
    out: list[tuple[ProjPoint, int]] = []
    deficiency = d - poly.degree
    if deficiency > 0:
        out.append((proj_point(0, 1, 0), deficiency))
    if poly.degree >= 1:
        for rc in find_roots(poly):
            out.append((proj_point(1, rc.value, 0), rc.multiplicity))
    out.sort(key=lambda pm: point_order_key(pm[0].coords))
    return out


@dataclass(frozen=True)
class TangentData:
    point: ProjPoint
    tangent: tuple[complex, complex]
    normal: tuple[complex, complex]


def tangent_at(curve: PlaneCurve, p: ProjPoint) -> TangentData:
    """Tangent and normal directions at a smooth point of the curve.

    The tangent direction is [dF/dX1 : -dF/dX0]; by the Euler relation this
    agrees with the point's own direction [X0 : X1] when the point lies on
    the line at infinity.
    """
    if on_curve_residual(curve, p) > ON_CURVE_TOL:
        raise CurveError(f"point {p.coords} is not on the curve")
    g = curve.gradient(*p.coords)
    scale = max(1.0, curve.scale())
    gnorm = math.sqrt(sum(abs(v) ** 2 for v in g))
    if gnorm / scale < SINGULAR_GRADIENT_TOL:
        raise SingularPointError(f"gradient vanishes at {p.coords}")
    if max(abs(g[0]), abs(g[1])) / scale < SINGULAR_GRADIENT_TOL:
        raise SingularPointError(
            f"tangent at {p.coords} is the line at infinity; direction undefined"
        )
    t = normalize_pair(g[1], -g[0])
    n = (-t[1], t[0])
    return TangentData(point=p, tangent=t, normal=n)


def tangent_frame(curve: PlaneCurve, p: ProjPoint):
    """Unit tangent tau and Newton transversal nu at an affine curve point.

    nu is the conjugate gradient, so the pairing grad F . nu = |grad F|
    never vanishes at a smooth point.
    """
    t0, t1 = tangent_at(curve, p).tangent
    norm = math.sqrt(abs(t0) ** 2 + abs(t1) ** 2)
    x0, x1 = p.affine()
    g = curve.gradient(x0, x1, 1.0)
    gnorm = math.sqrt(abs(g[0]) ** 2 + abs(g[1]) ** 2)
    return (t0 / norm, t1 / norm), (g[0].conjugate() / gnorm, g[1].conjugate() / gnorm)


def curve_point_near(curve: PlaneCurve, base, tau, nu, a: complex) -> ProjPoint:
    """Newton-correct the affine point base + a*tau back onto the curve along nu."""
    x0 = base[0] + a * tau[0]
    x1 = base[1] + a * tau[1]
    mu = 0j
    scale = max(1.0, curve.scale())
    for _ in range(60):
        px = x0 + mu * nu[0]
        py = x1 + mu * nu[1]
        f = curve.form_value(px, py, 1.0)
        if abs(f) < 1e-15 * scale:
            break
        g = curve.gradient(px, py, 1.0)
        deriv = g[0] * nu[0] + g[1] * nu[1]
        if abs(deriv) < 1e-14 * scale:
            raise DegenerateNewtonError("Newton correction onto the curve is degenerate")
        mu -= f / deriv
    return proj_point(x0 + mu * nu[0], x1 + mu * nu[1], 1.0)


# ---------------------------------------------------------------------------
# bivariate elimination
# ---------------------------------------------------------------------------


def _poly2_degrees(a: np.ndarray, tol: float) -> tuple[int, int]:
    big = float(np.max(np.abs(a))) if a.size else 0.0
    if big == 0.0:
        return -1, -1
    mask = np.abs(a) > tol * big
    if not mask.any():
        return -1, -1
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    return int(rows[-1]), int(cols[-1])


def _poly2_eval_y_coeffs(a: np.ndarray, x: complex) -> np.ndarray:
    """Coefficients in y of P(x, y), for a coefficient array a[i, j] of x^i y^j."""
    powers = x ** np.arange(a.shape[0])
    return powers @ a


def _sylvester_det(pc: np.ndarray, qc: np.ndarray) -> complex:
    m = len(pc) - 1
    n = len(qc) - 1
    if m < 0 or n < 0:
        return 0j
    size = m + n
    if size == 0:
        return 1 + 0j
    s = np.zeros((size, size), dtype=complex)
    for r in range(n):
        s[r, r : r + m + 1] = pc[::-1]
    for r in range(m):
        s[n + r, r : r + n + 1] = qc[::-1]
    return complex(np.linalg.det(s))


def _resultant_in_x(a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> ComplexPoly:
    """Resultant of two affine polynomials with respect to y, as a poly in x.

    Computed by evaluation at roots of unity and inverse FFT; entries are
    normalized first so the identically-zero test is meaningful.
    """
    dax, day = _poly2_degrees(a, tol)
    dbx, dby = _poly2_degrees(b, tol)
    if dax < 0 or dbx < 0:
        return ComplexPoly([0j])
    na = a[: dax + 1, : day + 1] / np.max(np.abs(a))
    nb = b[: dbx + 1, : dby + 1] / np.max(np.abs(b))
    bound = dax * dby + dbx * day + 1
    n = max(bound, 1)
    omega = np.exp(2j * math.pi / n)
    vals = np.empty(n, dtype=complex)
    for s in range(n):
        x = omega**s
        vals[s] = _sylvester_det(_poly2_eval_y_coeffs(na, x), _poly2_eval_y_coeffs(nb, x))
    coeffs = np.fft.fft(vals) / n
    return ComplexPoly(list(coeffs))


def _poly2_value(arr: np.ndarray, x: complex, y: complex) -> complex:
    px = x ** np.arange(arr.shape[0])
    py = y ** np.arange(arr.shape[1])
    return complex(px @ arr @ py)


def _newton_2d(a: np.ndarray, ax, ay, b: np.ndarray, bx, by, x, y, tol=NEWTON_2D_TOL):
    """Polish a common root of two affine polynomials with Newton's method."""
    for _ in range(60):
        f = _poly2_value(a, x, y)
        g = _poly2_value(b, x, y)
        j11 = _poly2_value(ax, x, y)
        j12 = _poly2_value(ay, x, y)
        j21 = _poly2_value(bx, x, y)
        j22 = _poly2_value(by, x, y)
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14:
            break
        dx = (f * j22 - g * j12) / det
        dy = (g * j11 - f * j21) / det
        x, y = x - dx, y - dy
        if max(abs(dx), abs(dy)) < tol * (1 + max(abs(x), abs(y))):
            break
    return x, y


def _partial_arrays(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dx = np.zeros_like(a)
    dy = np.zeros_like(a)
    for i in range(1, a.shape[0]):
        dx[i - 1, :] = i * a[i, :]
    for j in range(1, a.shape[1]):
        dy[:, j - 1] = j * a[:, j]
    return dx, dy


def _common_affine_roots(a: np.ndarray, b: np.ndarray) -> list[tuple[complex, complex, int]]:
    """Common affine roots of two polynomial coefficient arrays, with multiplicity.

    Eliminates y by a Sylvester resultant, then recovers y for each x root
    and polishes with a 2-variable Newton iteration.  Raises
    DegenerateSystemError if the resultant vanishes identically.
    """
    res = _resultant_in_x(a, b)
    if res.degree == 0 and abs(res.coeffs[0]) < 1e-10:
        raise DegenerateSystemError("resultant vanishes identically")
    if res.degree == 0:
        return []
    ax, ay = _partial_arrays(a)
    bx, by = _partial_arrays(b)
    scale_a = float(np.max(np.abs(a)))
    scale_b = float(np.max(np.abs(b)))
    out: list[tuple[complex, complex, int]] = []
    for rc in find_roots(res):
        xr = rc.value
        ycands = _y_candidates(a, b, xr, scale_a, scale_b)
        if not ycands:
            continue
        polished = []
        for y0 in ycands:
            x1, y1 = _newton_2d(a, ax, ay, b, bx, by, xr, y0)
            fa = abs(_poly2_value(a, x1, y1)) / max(1.0, scale_a)
            fb = abs(_poly2_value(b, x1, y1)) / max(1.0, scale_b)
            if fa < 1e-8 and fb < 1e-8:
                polished.append((x1, y1))
        if not polished:
            continue
        # deduplicate y values recovered twice
        uniq: list[tuple[complex, complex]] = []
        for pt in polished:
            if all(abs(pt[0] - u[0]) + abs(pt[1] - u[1]) > 1e-7 * (1 + abs(pt[0]) + abs(pt[1])) for u in uniq):
                uniq.append(pt)
        if len(uniq) == 1:
            out.append((uniq[0][0], uniq[0][1], rc.multiplicity))
        else:
            # several solutions share this x; split the multiplicity evenly
            m, rem = divmod(rc.multiplicity, len(uniq))
            for idx, (x1, y1) in enumerate(uniq):
                out.append((x1, y1, m + (1 if idx < rem else 0)))
    out.sort(key=point_order_key)
    return out


def _y_candidates(a, b, xr, scale_a, scale_b) -> list[complex]:
    pa = _poly2_eval_y_coeffs(a, xr)
    pb = _poly2_eval_y_coeffs(b, xr)
    cand: list[complex] = []
    poly_a = ComplexPoly(list(pa))
    if poly_a.degree >= 1:
        for rc in find_roots(poly_a):
            resid_b = abs(ComplexPoly(list(pb))(rc.value)) / max(
                1.0, scale_b * (1 + abs(rc.value)) ** max(1, len(pb) - 1)
            )
            if resid_b < 1e-5:
                cand.append(rc.value)
    if not cand:
        poly_b = ComplexPoly(list(pb))
        if poly_b.degree >= 1:
            for rc in find_roots(poly_b):
                resid_a = abs(poly_a(rc.value)) / max(
                    1.0, scale_a * (1 + abs(rc.value)) ** max(1, poly_a.degree)
                )
                if resid_a < 1e-5:
                    cand.append(rc.value)
    return cand


# ---------------------------------------------------------------------------
# isotropic tangencies and genericity
# ---------------------------------------------------------------------------


def isotropic_tangency_points(curve: PlaneCurve, sign: int) -> list[tuple[ProjPoint, int]]:
    """Affine points where the tangent direction is [1 : sign * i], with multiplicity.

    Solves {F = 0, F_x + sign*i*F_y = 0} in the affine chart by resultant
    elimination in y followed by two-variable Newton polishing.  A generic
    curve of degree d has d*(d-1) such points for each sign.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    f, fx, fy = curve.affine_arrays()
    g = fx + sign * 1j * fy
    sols = _common_affine_roots(f, g)
    return [(proj_point(x, y, 1), m) for x, y, m in sols]


@dataclass(frozen=True)
class GenericityReport:
    """The five checks with their diagnostics (``to_dict``), and the points at
    infinity and isotropic tangency points per sign that the checks found."""

    irreducible_heuristic: bool
    smooth: bool
    distinct_infinity_points: bool
    non_isotropic_infinity_tangents: bool
    simple_isotropic_tangencies: bool
    diagnostics: tuple[str, ...] = ()
    infinity_points: tuple[tuple[ProjPoint, int], ...] = ()
    isotropic_points: dict[int, list[tuple[ProjPoint, int]]] = field(default_factory=dict)

    def all_ok(self) -> bool:
        return (
            self.irreducible_heuristic
            and self.smooth
            and self.distinct_infinity_points
            and self.non_isotropic_infinity_tangents
            and self.simple_isotropic_tangencies
        )

    def to_dict(self) -> dict:
        return {
            "irreducible_heuristic": self.irreducible_heuristic,
            "smooth": self.smooth,
            "distinct_infinity_points": self.distinct_infinity_points,
            "non_isotropic_infinity_tangents": self.non_isotropic_infinity_tangents,
            "simple_isotropic_tangencies": self.simple_isotropic_tangencies,
            "diagnostics": list(self.diagnostics),
        }


def genericity_report(curve: PlaneCurve) -> GenericityReport:
    """Check the five positions a curve must be in general position for.

    The report is always produced; failures are recorded as diagnostics.
    Irreducibility is only checked heuristically: the test looks for a line
    factor through [1 : i : 0] or [1 : -i : 0] (an isotropic line), which is
    the failure mode the rest of the machinery cannot tolerate.
    """
    notes: list[str] = []

    try:
        inf_points = points_at_infinity(curve)
    except ContainsInfinityLineError:
        inf_points = None
    smooth = _check_smooth(curve, inf_points, notes)
    distinct_inf = _check_infinity(curve, inf_points, notes)
    non_iso_inf = True
    for p, _m in inf_points or []:
        for iso in (ISOTROPIC_PLUS, ISOTROPIC_MINUS):
            if direction_distance((p.coords[0], p.coords[1]), iso) < ON_CURVE_TOL:
                non_iso_inf = False
                notes.append(f"infinity point {p.coords} is an isotropic direction")

    simple_iso = True
    d = curve.degree
    iso_points = {}
    for sign in (1, -1):
        try:
            pts = iso_points[sign] = isotropic_tangency_points(curve, sign)
        except DegenerateSystemError:
            simple_iso = False
            notes.append(f"isotropic tangency system degenerate for sign {sign:+d}")
            continue
        total = sum(m for _, m in pts)
        if total != d * (d - 1):
            simple_iso = False
            notes.append(
                f"isotropic tangency count {total} != d(d-1) = {d * (d - 1)} for sign {sign:+d}"
            )
        if any(m != 1 for _, m in pts):
            simple_iso = False
            notes.append(f"multiple isotropic tangency for sign {sign:+d}")

    irred = _check_no_isotropic_line(curve, notes)

    return GenericityReport(
        irreducible_heuristic=irred,
        smooth=smooth,
        distinct_infinity_points=distinct_inf,
        non_isotropic_infinity_tangents=non_iso_inf,
        simple_isotropic_tangencies=simple_iso,
        diagnostics=tuple(notes),
        infinity_points=tuple(inf_points or ()),
        isotropic_points=iso_points,
    )


def _check_smooth(curve: PlaneCurve, inf_points, notes: list[str]) -> bool:
    f, fx, fy = curve.affine_arrays()
    scale = max(1.0, curve.scale())
    smooth = True
    try:
        candidates = _common_affine_roots(fx, fy)
    except DegenerateSystemError:
        notes.append("gradient components share a factor; curve is singular or non-reduced")
        return False
    for x, y, _m in candidates:
        gx0, gx1, gx2 = curve.gradient(x, y, 1)
        fval = abs(curve.form_value(x, y, 1))
        gnorm = math.sqrt(abs(gx0) ** 2 + abs(gx1) ** 2 + abs(gx2) ** 2)
        if fval / scale < 1e-7 and gnorm / scale < 1e-6:
            smooth = False
            notes.append(f"singular affine point near ({x:.6g}, {y:.6g})")
    if inf_points is None:
        return False  # _check_infinity notes it
    for p, _m in inf_points:
        g = curve.gradient(*p.coords)
        gnorm = math.sqrt(sum(abs(v) ** 2 for v in g))
        if gnorm / scale < 1e-8:
            smooth = False
            notes.append(f"singular point at infinity near {p.coords}")
    return smooth


def _check_infinity(curve: PlaneCurve, inf_points, notes: list[str]) -> bool:
    if inf_points is None:
        notes.append("curve contains the line at infinity")
        return False
    distinct = all(m == 1 for _, m in inf_points) and sum(m for _, m in inf_points) == curve.degree
    if not distinct:
        notes.append("points at infinity are not d distinct simple points")
    return distinct


def _check_no_isotropic_line(curve: PlaneCurve, notes: list[str]) -> bool:
    """Detect a line factor X1 = sign*i*X0 + c*X2 by a common-root test in c."""
    ok = True
    for sign in (1, -1):
        phis = _pencil_coefficient_polys(curve, sign)
        candidates = [p for p in phis if p.degree >= 1]
        if not candidates:
            continue
        pivot = min(candidates, key=lambda p: p.degree)
        scale = max(p.scale() for p in phis)
        for rc in find_roots(pivot):
            c = rc.value
            worst = max(
                abs(p(c)) / max(1.0, scale * (1 + abs(c)) ** max(1, p.degree))
                for p in phis
            )
            if worst < 1e-8:
                ok = False
                notes.append(
                    f"isotropic line factor through [1:{sign:+d}i:0] at offset c = {c:.6g}"
                )
    return ok


def _pencil_coefficient_polys(curve: PlaneCurve, sign: int) -> list[ComplexPoly]:
    """Coefficients of F(X0, sign*i*X0 + c*X2, X2) as polynomials in c."""
    d = curve.degree
    # coeffs_in_c[l][a] = coefficient of c^l * X0^a * X2^(d - a)
    table = np.zeros((d + 1, d + 1), dtype=complex)
    iu = 1j * sign
    for e, coef in zip(curve._form.exps, curve._form.coeffs):
        i, j, k = (int(v) for v in e)
        for l in range(j + 1):
            binom = math.comb(j, l)
            table[l, i + j - l] += coef * binom * (iu ** (j - l))
    return [ComplexPoly(list(table[:, a])) for a in range(d + 1)]


# ---------------------------------------------------------------------------
# JSON curve files
# ---------------------------------------------------------------------------


def curve_from_json(text: str) -> PlaneCurve:
    """Parse the exact-rational curve file format.

    Expected shape: {"degree": d, "coeffs": [{"i":..,"j":..,"k":..,
    "re":"p/q","im":"r/s"}, ...]}; "im" may be omitted.  Unknown fields are
    rejected.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CurveError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CurveError("curve file must be a JSON object")
    unknown = set(data) - {"degree", "coeffs"}
    if unknown:
        raise CurveError(f"unknown top-level fields: {sorted(unknown)}")
    if "degree" not in data or "coeffs" not in data:
        raise CurveError("curve file needs 'degree' and 'coeffs'")
    degree = data["degree"]
    if not isinstance(degree, int):
        raise CurveError("'degree' must be an integer")
    if not isinstance(data["coeffs"], list):
        raise CurveError("'coeffs' must be a list")
    coeffs = {}
    for entry in data["coeffs"]:
        if not isinstance(entry, dict):
            raise CurveError("each coefficient must be an object")
        unknown = set(entry) - {"i", "j", "k", "re", "im"}
        if unknown:
            raise CurveError(f"unknown coefficient fields: {sorted(unknown)}")
        try:
            key = (int(entry["i"]), int(entry["j"]), int(entry["k"]))
        except KeyError as exc:
            raise CurveError(f"coefficient missing exponent {exc}") from exc
        re = Fraction(str(entry.get("re", "0")))
        im = Fraction(str(entry.get("im", "0")))
        if key in coeffs:
            raise CurveError(f"duplicate exponent triple {key}")
        coeffs[key] = (re, im)
    return PlaneCurve.from_coeffs(degree, coeffs)


def curve_to_json(curve: PlaneCurve) -> str:
    entries = []
    for (i, j, k), (re, im) in sorted(curve.coeffs.items()):
        entry = {"i": i, "j": j, "k": k, "re": str(re)}
        if im != 0:
            entry["im"] = str(im)
        entries.append(entry)
    return json.dumps({"degree": curve.degree, "coeffs": entries}, indent=2)
