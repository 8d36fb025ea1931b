"""Plane algebraic curves as billiard tables.

A curve is a homogeneous form F(X0, X1, X2) of degree d >= 2 with exact
Gaussian-rational coefficients.  Exactness is kept at the ingestion layer
only; all geometric evaluation (points, tangents, intersections) is complex
floating point on F / top, top its largest coefficient part (divided exactly
at load), so every tolerance reads one frame and cF gives what F gives.

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
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .numerics import MAX_MATRIX_SIDE, ComplexPoly, NonConvergenceError, close_pairs, find_roots

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

# the largest degree whose lattice rank 2d^2 + 2 stays within MAX_MATRIX_SIDE, so
# the general char_poly remains an independent check over the accepted range;
# a curve file of higher degree is refused
MAX_SPECTRAL_DEGREE = math.isqrt((MAX_MATRIX_SIDE - 2) // 2)


class CurveError(ValueError):
    pass


class ContainsInfinityLineError(CurveError):
    """The form vanishes identically on the line at infinity."""


class SingularPointError(CurveError):
    """Gradient vanishes (or tangent undefined) at the requested point."""


class DegenerateSystemError(CurveError):
    """The polynomials of a common-root system share a factor (their Macaulay
    matrix is rank deficient): the curve has an isotropic line or a multiple component."""


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

    __slots__ = ("exps", "coeffs", "degree", "roots", "_index", "_grad_index", "_grad_coeffs")

    def __init__(self, terms: dict[tuple[int, int, int], complex], degree: int):
        items = sorted((e, c) for e, c in terms.items() if c != 0)
        if items:
            self.exps = np.array([e for e, _ in items], dtype=np.int64)
            self.coeffs = np.array([c for _, c in items], dtype=complex)
        else:
            self.exps = np.zeros((0, 3), dtype=np.int64)
            self.coeffs = np.zeros(0, dtype=complex)
        self.degree = degree
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
    so instances are immutable and cheap to share.  Every numeric value
    (``form_value(s)``, ``gradient``, ``restrict_to_line(s)``) is that of
    F / top (see ``from_coeffs``).
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
        if not exact:
            raise CurveError("curve form must have a nonzero coefficient")
        # top: the real or imaginary part of largest magnitude, on a tie the last
        # triple's, re first; F / top is bitwise that of cF for every rational c
        top = max((abs(v), e, -part, v) for e, pair in exact.items() for part, v in enumerate(pair))[3]
        for e, pair in exact.items():
            quotients = [float(v / top) for v in pair]  # exact division, then one rounding
            if any(v and abs(q) < sys.float_info.min for v, q in zip(pair, quotients)):
                raise CurveError(f"coefficient of {e} is below the float range of the largest")
            numeric[e] = complex(*quotients)
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
    return abs(evaluate(curve, p))


def points_at_infinity(curve: PlaneCurve) -> list[tuple[ProjPoint, int]]:
    """Roots of the binary form F(X0, X1, 0) as projective points with multiplicity."""
    d = curve.degree
    # term X0^(d-j) X1^j -> coefficient of s^j in F(1, s, 0)
    coeffs = [0j] * (d + 1)
    for e, c in zip(curve._form.exps, curve._form.coeffs):
        if int(e[2]) == 0:
            coeffs[int(e[1])] += complex(c)
    if all(abs(c) <= 1e-12 for c in coeffs):
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
    if math.hypot(*map(abs, g)) < SINGULAR_GRADIENT_TOL:
        raise SingularPointError(f"gradient vanishes at {p.coords}")
    if max(abs(g[0]), abs(g[1])) < SINGULAR_GRADIENT_TOL:
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
    with np.errstate(all="ignore"):  # a point past the float range is refused below
        for _ in range(60):
            px = x0 + mu * nu[0]
            py = x1 + mu * nu[1]
            f = curve.form_value(px, py, 1.0)
            if not cmath.isfinite(f):
                raise DegenerateNewtonError("Newton correction onto the curve left the float range")
            if abs(f) < 1e-15:
                break
            g = curve.gradient(px, py, 1.0)
            deriv = g[0] * nu[0] + g[1] * nu[1]
            if abs(deriv) < 1e-14:
                raise DegenerateNewtonError("Newton correction onto the curve is degenerate")
            mu -= f / deriv
    return proj_point(x0 + mu * nu[0], x1 + mu * nu[1], 1.0)


# ---------------------------------------------------------------------------
# common roots in isotropic coordinates
# ---------------------------------------------------------------------------
# In u = x + iy, w = x - iy, G(u, w, t) = F((u + w)/2, (u - w)/(2i), t) has
# F_x + iF_y = 2 G_w and F_x - iF_y = 2 G_u: the [1 : +i] tangencies solve
# {G, G_w}, the [1 : -i] ones {G, G_u} and the critical points {G_u, G_w}.

COMMON_ROOT_TOL = 1e-8  # residual gate of a polished common root
# fixed generic linear forms in (u, w, t): a chart h0, and h1, whose ratio to h0 separates roots
_FORMS = np.array([(0.3 + 0.1j, -0.2 + 0.25j, 1), (1, 0.6180339887 - 0.3j, 0.1 + 0.2j)])
# each system's rows (p, p_u, p_w, q, q_u, q_w) in the jet (G, G_u, G_w, G_uu, G_uw, G_ww)
_SYSTEMS = {1: (0, 1, 2, 2, 4, 5), -1: (0, 1, 2, 1, 3, 4), 0: (1, 3, 4, 2, 4, 5)}


@functools.lru_cache(maxsize=None)
def _monomials(degree: int):
    """Exponents (a, b) of u^a w^b over a + b <= degree, and their index table."""
    a, b = np.nonzero(np.add.outer(np.arange(degree + 1), np.arange(degree + 1)) <= degree)
    index = np.zeros((degree + 2, degree + 2), dtype=np.int64)
    index[a, b] = np.arange(len(a))
    return a, b, index


@functools.lru_cache(maxsize=None)
def _isotropic_maps(degree: int):
    """Over ``_monomials(degree)``: the matrix taking the coefficients of x^i y^j to
    those of u^a w^b, and the stacked matrices taking G's to those of its jet."""
    a, b, index = _monomials(degree)
    iso, (du, dw) = np.zeros((len(a), len(a)), dtype=complex), np.zeros((2, len(a), len(a)))
    for i, j in zip(a.tolist(), b.tolist()):  # x^i y^j = 2^-k (-i)^j (u + w)^i (u - w)^j
        row = np.convolve([math.comb(i, v) for v in range(i + 1)],
                          [math.comb(j, v) * (-1) ** v for v in range(j + 1)])
        c = np.arange(i + j + 1)
        iso[index[i + j - c, c], index[i, j]] = row * (-1j) ** j / 2 ** (i + j)
    du[index[a[a > 0] - 1, b[a > 0]], a > 0] = a[a > 0]
    dw[index[a[b > 0], b[b > 0] - 1], b > 0] = b[b > 0]
    return iso, np.concatenate([np.eye(len(a)), du, dw, du @ du, du @ dw, dw @ dw]).astype(complex)


def _isotropic_form(curve: PlaneCurve):
    """(jet, d, s): G's jet as rows over ``_monomials(d)``, in the plane u, w -> 2^s u,
    2^s w, where s matches the binary exponents of the norms of G's lowest and highest
    parts in (u, w), so that G(X) = F(2^j X) gives s - j."""
    a, b, index = _monomials(curve.degree)
    iso, jet = _isotropic_maps(curve.degree)
    f = np.zeros(len(a), dtype=complex)
    f[index[curve._form.exps[:, 0], curve._form.exps[:, 1]]] = curve._form.coeffs  # of x^i y^j
    g = iso @ f
    norms = np.sqrt(np.bincount(a + b, weights=np.abs(g) ** 2))
    k = np.flatnonzero(norms)
    e = np.frexp(norms[k])[1].astype(np.int64)
    s = math.floor((e[0] - e[-1]) / (k[-1] - k[0]) + 0.5) if len(k) > 1 else 0
    shift = s * (a + b) - (e + s * k).max()  # and the largest part's norm into [1/2, 1)
    g = np.ldexp(g.real, shift) + 1j * np.ldexp(g.imag, shift)
    return (jet @ g).reshape(6, -1), curve.degree, s


@functools.lru_cache(maxsize=None)
def _macaulay(degree: int, m: int, n: int):
    """For p and q of degrees m and n over ``_monomials(degree)``: the shape of
    their Macaulay matrix, the (rows, columns, sources) of its entries from p and
    from q, and its columns of u, w and t times each monomial of degree m + n - 2."""
    index, layout, start = _monomials(m + n - 1)[2], [], 0
    for deg in (m, n):  # the multiples of p, then of q
        (a, b, _), (sa, sb, _) = _monomials(deg), _monomials(m + n - 1 - deg)
        layout.append((np.repeat(np.arange(start, start + len(sa)), len(a)),
                       index[sa[:, None] + a, sb[:, None] + b].ravel(), np.tile(_monomials(degree)[2][a, b], len(sa))))
        start += len(sa)
    a, b, _ = _monomials(m + n - 2)
    return (start, index.max() + 1), layout, np.stack([index[a + 1, b], index[a, b + 1], index[a, b]])


def _common_roots(system: np.ndarray, degree: int) -> list[tuple[complex, complex, int]]:
    """Common affine roots (u, w, multiplicity) of p = system[0] and q = system[3],
    rows over ``_monomials(degree)``; rows 1, 2 and 4, 5 are their partials in u, w.

    Hiding u, the Sylvester matrix in w is a matrix polynomial whose block
    companion pencil has an infinite eigenvalue for each entry short of full
    degree.  Graded by degree, its rows are the Macaulay matrix of the multiples
    of p and q up to degree D = deg p + deg q - 1, whose null space is that pencil
    deflated: one vector of degree-D monomial values per root, for coprime p, q.
    A rank short of the rows, relative to the largest singular value, is a
    common factor: DegenerateSystemError (a LAPACK failure: NonConvergenceError).
    Each eigenvector of multiplication by h1/h0 is read as [u : w : t] at its
    largest degree-(D - 1) entry; finite points are Newton-polished, gated by
    residual and clustered.
    """
    a, b, _ = _monomials(degree)
    sizes = np.abs(system[[0, 3]].T)
    m, n = np.where(sizes > 0, (a + b)[:, None], -1).max(axis=0).tolist()
    if min(m, n) < 0:
        raise DegenerateSystemError("a polynomial of the system vanishes identically")
    if min(m, n) == 0:
        return []
    shape, layout, shifts = _macaulay(degree, m, n)
    macaulay = np.zeros(shape, dtype=complex)
    for row, norm, (rows, columns, sources) in zip(system[[0, 3]], sizes.max(axis=0), layout):
        macaulay[rows, columns] = row[sources] / norm
    try:
        _, sv, vh = np.linalg.svd(macaulay)
        if sv[-1] <= sv[0] * shape[1] * np.finfo(float).eps:
            raise DegenerateSystemError("the polynomials of the system share a factor")
        uwt = vh[shape[0]:].T.conj()[shifts]
        chart, separator = (_FORMS @ uwt.reshape(3, -1)).reshape(2, *uwt.shape[1:])
        ub, sb, vbh = np.linalg.svd(chart, full_matrices=False)
        with np.errstate(all="ignore"):  # a zero sb (a root on h0 = 0) makes eig raise
            times = (vbh.T.conj() / sb) @ (ub.T.conj() @ separator)
        _, vecs = np.linalg.eig(times)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"common roots: {exc}") from exc
    uwt = uwt @ vecs
    u, w, t = uwt[:, np.abs(uwt).sum(axis=0).argmax(axis=0), np.arange(len(vecs))]
    finite = np.abs(t) > ON_CURVE_TOL * np.maximum(np.abs(u), np.abs(w))  # the rest lie at infinity
    if not finite.any():
        return []
    points = np.stack([u[finite], w[finite]], axis=1) / t[finite, None]
    points, residual = _polished((a, b, system.T, sizes), points, m + n)
    return _clustered(points[residual <= COMMON_ROOT_TOL])


def _polished(terms, points, degrees):
    """Newton iterates of each (u, w) row, each kept while its residual falls and is
    above rounding noise, and their residuals: relative to the terms' summed
    magnitude, or to the largest coefficient if that is more."""
    a, b, cols, sizes = terms
    noise = 64.0 * degrees * np.finfo(float).eps
    best, low = points, np.full(len(points), np.inf)
    with np.errstate(all="ignore"):
        for _ in range(10):
            powers = points[:, :, None] ** np.arange(a[-1] + 1)
            mono = powers[:, 0, a] * powers[:, 1, b]
            f, fu, fw, g, gu, gw = (mono @ cols).T
            scale = np.maximum(np.abs(mono) @ sizes, sizes.max(axis=0))
            residual = np.maximum(abs(f) / scale[:, 0], abs(g) / scale[:, 1])
            better = residual < low
            best, low = np.where(better[:, None], points, best), np.where(better, residual, low)
            if not (better & (low > noise)).any():
                break
            step = np.stack([f * gw - g * fw, fu * g - gu * f], axis=1) / (fu * gw - fw * gu)[:, None]
            moving = better & (low > noise) & np.isfinite(step).all(axis=1)
            points = best - np.where(moving[:, None], step, 0)
    return best, low


def _clustered(points) -> list[tuple[complex, complex, int]]:
    """Points ``close_pairs`` with a group's first, as the group's centroid
    with its size as multiplicity."""
    if len(points) < 2:
        return [(u, w, 1) for u, w in points.tolist()]
    close = close_pairs(points)
    free, out = np.ones(len(points), dtype=bool), []
    for i in np.flatnonzero(close.sum(axis=1) > 1).tolist():
        if free[i]:
            group, free = close[i] & free, free & ~close[i]
            out.append((*points[group].mean(axis=0).tolist(), int(group.sum())))
    return out + [(u, w, 1) for u, w in points[free].tolist()]


def _isotropic_roots(form, sign: int) -> list[tuple[complex, complex, int]]:
    """Common affine roots (x, y, multiplicity), in ``point_order_key`` order, of
    {G, G_w} (sign +1), {G, G_u} (-1) or {G_u, G_w} (0); form is ``_isotropic_form``'s."""
    jet, degree, s = form
    roots = _common_roots(jet[list(_SYSTEMS[sign])], degree)
    uw = np.array([r[:2] for r in roots], dtype=complex).reshape(-1, 2)
    with np.errstate(all="ignore"):  # back from the balanced plane; a point past the float range is dropped
        uw = np.ldexp(uw.real, s) + 1j * np.ldexp(uw.imag, s)
    out = [((u + w) / 2, (u - w) / 2j, r[2]) for (u, w), r in zip(uw.tolist(), roots)
           if cmath.isfinite(u) and cmath.isfinite(w)]
    return sorted(out, key=point_order_key)


# ---------------------------------------------------------------------------
# isotropic tangencies and genericity
# ---------------------------------------------------------------------------


def isotropic_tangency_points(curve: PlaneCurve, sign: int) -> list[tuple[ProjPoint, int]]:
    """Affine points where the tangent direction is [1 : sign * i], with multiplicity:
    the common roots of {G, G_w} (sign +1) or {G, G_u} (sign -1) by ``_common_roots``.
    A generic curve of degree d has d*(d-1) for each sign.  Raises
    DegenerateSystemError if the two polynomials share a factor."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return [(proj_point(x, y, 1), m) for x, y, m in _isotropic_roots(_isotropic_form(curve), sign)]


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
    Irreducibility is only checked heuristically, for the failure mode the
    rest of the machinery cannot tolerate: an isotropic line factor.  A
    common factor K of F and F_x + sign*i*F_y divides F twice or divides
    K_x + sign*i*K_y, which has lower degree and so vanishes: K is then a
    function of x + sign*i*y, a product of isotropic lines.  Either way that
    sign's isotropic system is degenerate, and exactly then it is flagged.
    The tangencies and the critical points (the smoothness candidates) come
    from one solver in isotropic coordinates, ``_common_roots``, which calls
    a system degenerate when its Macaulay matrix is rank deficient.
    """
    notes: list[str] = []

    try:
        inf_points = points_at_infinity(curve)
    except ContainsInfinityLineError:
        inf_points = None
    form = _isotropic_form(curve)
    smooth = _check_smooth(curve, form, inf_points, notes)
    distinct_inf = _check_infinity(curve, inf_points, notes)
    non_iso_inf = True
    for p, _m in inf_points or []:
        for iso in (ISOTROPIC_PLUS, ISOTROPIC_MINUS):
            if direction_distance((p.coords[0], p.coords[1]), iso) < ON_CURVE_TOL:
                non_iso_inf = False
                notes.append(f"infinity point {p.coords} is an isotropic direction")

    simple_iso = irred = True
    d = curve.degree
    iso_points = {}
    for sign in (1, -1):
        try:
            pts = iso_points[sign] = [(proj_point(x, y, 1), m) for x, y, m in _isotropic_roots(form, sign)]
        except DegenerateSystemError:
            simple_iso = irred = False
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


def _check_smooth(curve: PlaneCurve, form, inf_points, notes: list[str]) -> bool:
    try:
        candidates = _isotropic_roots(form, 0)  # the critical points, G_u = G_w = 0
    except DegenerateSystemError:
        notes.append("gradient components share a factor; curve is singular or non-reduced")
        return False
    points = [(x, y, 1) for x, y, _m in candidates] + [p.coords for p, _m in inf_points or ()]
    values = curve.form_values(points, grad=True).tolist() if points else []
    smooth = True
    for (x, y, _m), (f, *grad) in zip(candidates, values):
        if abs(f) < 1e-7 and math.hypot(*map(abs, grad)) < 1e-6:
            smooth = False
            notes.append(f"singular affine point near ({x:.6g}, {y:.6g})")
    if inf_points is None:
        return False  # _check_infinity notes it
    for (p, _m), (_f, *grad) in zip(inf_points, values[len(candidates):]):
        if math.hypot(*map(abs, grad)) < 1e-8:
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
    degree = _json_int(data["degree"], "'degree'")
    if degree > MAX_SPECTRAL_DEGREE:
        raise CurveError(f"curve degree {degree} exceeds the largest supported, {MAX_SPECTRAL_DEGREE}")
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
            key = tuple(_json_int(entry[e], f"exponent '{e}'") for e in "ijk")
        except KeyError as exc:
            raise CurveError(f"coefficient missing exponent {exc}") from exc
        re, im = (_json_rational(entry.get(part, "0"), key) for part in ("re", "im"))
        if key in coeffs:
            raise CurveError(f"duplicate exponent triple {key}")
        coeffs[key] = (re, im)
    return PlaneCurve.from_coeffs(degree, coeffs)


def _json_rational(value, key) -> Fraction:
    text = str(value)
    # Fraction expands a decimal exponent into a power of ten: bound it as int() bounds digits
    limit = sys.get_int_max_str_digits() or math.inf
    _, e, exponent = text.lower().rpartition("e")
    try:
        too_big = bool(e) and abs(int(exponent)) > limit
    except ValueError:  # not a decimal exponent: Fraction names the literal
        too_big = False
    if too_big:
        raise CurveError(f"coefficient of {key} has a decimal exponent beyond {limit} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise CurveError(f"coefficient of {key} has a zero denominator") from exc


def _json_int(value, what: str) -> int:
    # bool is an int subclass, but true is no exponent or degree
    if not isinstance(value, int) or isinstance(value, bool):
        raise CurveError(f"{what} must be a JSON integer")
    return value


def curve_to_json(curve: PlaneCurve) -> str:
    entries = []
    for (i, j, k), (re, im) in sorted(curve.coeffs.items()):
        entry = {"i": i, "j": j, "k": k, "re": str(re)}
        if im != 0:
            entry["im"] = str(im)
        entries.append(entry)
    return json.dumps({"degree": curve.degree, "coeffs": entries}, indent=2)
