"""Shared numerical kernels: complex polynomial roots and exact integer linear algebra.

Two independent toolkits live here.  The floating-point side supports the
geometry modules, which intersect lines with plane curves and need root
multisets with multiplicities: one root rule over stacked monic rows
(root_rows: companion roots, then one certified merge of close pairs), of
which find_roots is the one-row call on a ComplexPoly.  The
exact side (IntPoly, bracketed_largest_root by integer signs, and the dense
BigIntMatrix with char_poly and exact_rank for small blocks and the tests'
oracles) supports the spectral module, where every statement is an integer
identity and floating point is never allowed to leak in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "ComplexPoly",
    "RootCluster",
    "IntPoly",
    "BigIntMatrix",
    "NonConvergenceError",
    "NoSignChangeError",
    "find_roots",
    "root_rows",
    "close_pairs",
    "monic_roots",
    "char_poly",
    "bracketed_largest_root",
    "exact_rank",
]

LEADING_ZERO_TOL = 1e-12
CLUSTER_REL_TOL = 1e-4
BRACKET_TOL = 1e-12
BRACKET_SAMPLES = 64
MAX_MATRIX_SIDE = 1000


class NonConvergenceError(RuntimeError):
    """The eigenvalue iteration for roots failed to converge; input is likely ill-conditioned."""


class NoSignChangeError(ValueError):
    """A root bracket [lo, hi] does not enclose a sign change."""


# ---------------------------------------------------------------------------
# Complex polynomials
# ---------------------------------------------------------------------------


def _trim_complex(coeffs) -> tuple[complex, ...]:
    cs = [complex(c) for c in coeffs]
    if not cs:
        return (0j,)
    tol = LEADING_ZERO_TOL * max(abs(c) for c in cs)
    while len(cs) > 1 and abs(cs[-1]) <= tol:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class ComplexPoly:
    """Polynomial with complex coefficients, ascending degree order.

    Trailing coefficients below ``LEADING_ZERO_TOL`` (relative to the largest
    coefficient) are trimmed at construction, so the leading coefficient of a
    nonzero polynomial is always significant.
    """

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim_complex(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RootCluster:
    """A root with multiplicity; residual is its backward error
    |p(value)| / sum_k |a_k| |value|^k on the monic polynomial, with no floor,
    so it reads the same after any scaling of p or of its roots."""

    value: complex
    multiplicity: int
    residual: float


def find_roots(p: ComplexPoly) -> list[RootCluster]:
    """All roots of ``p`` with multiplicity: ``root_rows`` on its one monic
    row, in (real, imag) order.  Degree 1 is the closed form.

    Raises NonConvergenceError if the eigenvalue iteration fails.
    """
    n = p.degree
    if n < 1:
        raise ValueError("find_roots requires degree >= 1")
    for c in p.coeffs:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("coefficients must be finite")
    lead = p.coeffs[-1]
    monic = [c / lead for c in p.coeffs[:-1]]
    if n == 1:
        return [RootCluster(-monic[0], 1, 0.0)]  # exact on the monic row
    low = np.array([monic])
    values, mult = root_rows(low)
    rows = zip(values[0].tolist(), mult[0].tolist(), _backward_error(low, values)[0].tolist())
    return sorted((RootCluster(*row) for row in rows if row[1]), key=lambda rc: (rc.value.real, rc.value.imag))


def monic_roots(monic: np.ndarray) -> np.ndarray:
    """The n roots of each monic row, given as its low coefficients (N, n).

    Eigenvalues of the stacked companion matrices (Edelman and Murakami,
    Math. Comp. 1995), then one Newton step, kept only where it lowers |p|.
    Raises NonConvergenceError if LAPACK's QR iteration fails.
    """
    n = monic.shape[1]
    if n == 1:
        return -monic
    companion = np.zeros((len(monic), n, n), dtype=complex)
    companion.reshape(len(monic), n * n)[:, n :: n + 1] = 1  # the subdiagonal
    companion[:, :, -1] = -monic
    try:
        z = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"companion eigenvalues: {exc}") from exc
    p, dp = _horner(monic, z)
    with np.errstate(all="ignore"):  # a zero p' sends z_new to infinity, where it is not kept
        z_new = z - p / dp
        return np.where(np.abs(_horner(monic, z_new)[0]) < np.abs(p), z_new, z)


def root_rows(monic: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots of each monic row, given as its low coefficients (N, n),
    with multiplicity: (N, n) values and (N, n) counts.  A merged cluster
    sits in the first slot it took, with its multiplicity; the others count
    0 and hold no root, so each row's counts sum to n.

    The roots are ``monic_roots``'; a root of multiplicity m leaves a cloud
    about eps**(1/m) wide.  One rule gathers it: two groups that are
    ``close_pairs`` merge when their multiplicity-weighted centroid has a
    backward error |p(z)| / sum_k |a_k| |z|^k at rounding noise (Zeng,
    Math. Comp. 74, 2005), on no absolute scale.  Only rows with a close
    pair run the merge, and a row's result depends on that row alone.
    """
    values = monic_roots(monic)
    mult = np.ones(values.shape, dtype=int)
    n = monic.shape[1]
    if n > 1:
        rows = np.flatnonzero(close_pairs(values[..., None]).sum(axis=(1, 2)) > n)  # past the diagonal
        if rows.size:
            values[rows], mult[rows] = _merged(monic[rows])
    return values, mult


def close_pairs(points: np.ndarray) -> np.ndarray:
    """The (..., k, k) mask of pairs among (..., k, m) points of m
    coordinates whose max-norm gap is at most ``CLUSTER_REL_TOL`` times 1
    plus the larger max-norm size: the one closeness test of every merge.
    The diagonal is set."""
    size = np.abs(points).max(axis=-1)
    gap = np.abs(points[..., :, None, :] - points[..., None, :, :]).max(axis=-1)
    return gap <= CLUSTER_REL_TOL * (1 + np.maximum(size[..., :, None], size[..., None, :]))


def _merged(monic: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``root_rows``' merges on the given monic rows, all rows at once.

    The rows' roots are solved again in each row's frame, over 2^e for
    e = max_k floor(log2 |a_k| / (n - k)), so that a row whose roots are all
    times 2^j has bitwise its clusters times 2^j.  Each round tries, in
    every row, its first close pair of live groups in slot order that has
    not failed since either group last changed; the pair's first slot takes
    the centroid and the summed multiplicity, the second counts 0.  This is
    the scan that restarts after each merge, since a pair that failed fails
    again while its groups stand.
    """
    r, n = monic.shape
    powers = np.arange(n, 0, -1)
    e = np.where(monic != 0, np.frexp(np.abs(monic))[1] // powers, -1074).max(axis=1, keepdims=True)
    framed = np.ldexp(monic.view(float), e * -powers.repeat(2)).view(complex)
    values = np.ldexp(monic_roots(framed).view(float), e).view(complex)
    noise = 64.0 * (n + 1) * np.finfo(float).eps
    mult = np.ones((r, n), dtype=int)
    failed = np.zeros((r, n, n), dtype=bool)
    while True:
        live = mult > 0
        open_pairs = np.triu(close_pairs(values[..., None]) & ~failed & live[:, :, None] & live[:, None, :], 1)
        rows = np.flatnonzero(open_pairs.any(axis=(1, 2)))
        if not rows.size:
            return values, mult
        i, j = np.divmod(open_pairs[rows].reshape(len(rows), -1).argmax(axis=1), n)
        mi, mj = mult[rows, i], mult[rows, j]
        m = mi + mj
        center = (values[rows, i] * mi + values[rows, j] * mj) / m
        ok = _backward_error(monic[rows], center[:, None])[:, 0] <= noise
        failed[rows[~ok], i[~ok], j[~ok]] = True
        rows, i, j, m, center = rows[ok], i[ok], j[ok], m[ok], center[ok]
        values[rows, i], mult[rows, i], mult[rows, j] = center, m, 0
        failed[rows, i] = failed[rows, :, i] = False  # group i changed


def _backward_error(monic: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|p(z)| / sum_k |a_k| |z|^k of each monic row's polynomial at its (N, k) points."""
    return np.abs(_horner(monic, z)[0]) / np.maximum(_horner(np.abs(monic), np.abs(z))[0], np.finfo(float).tiny)


def _horner(monic: np.ndarray, z: np.ndarray):
    """p and p' of each monic row, given as its low coefficients (N, n), at its (N, k) points."""
    n = monic.shape[1]
    p, dp = z + monic[:, -1:], 1.0
    for k in range(n - 2, -1, -1):
        dp, p = dp * z + p, p * z + monic[:, k, None]
    return p, dp


# ---------------------------------------------------------------------------
# Exact integer polynomials
# ---------------------------------------------------------------------------


def _trim_int(coeffs) -> tuple[int, ...]:
    cs = [int(c) for c in coeffs]
    if not cs:
        return (0,)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPoly:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim_int(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + IntPoly(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(out)

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            return IntPoly((0,))
        return IntPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def eval_fraction(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Fraction) -> int:
        v = self.eval_fraction(x)
        return (v > 0) - (v < 0)


def _scaled_value(p: IntPoly, num: int, den: int) -> int:
    """den**degree * p(num / den) for den > 0, exactly, by integer Horner: its
    sign is the sign of p there, and its quotient by den**degree the value."""
    cs = p.coeffs
    acc, scale = cs[-1], 1
    for c in reversed(cs[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return acc


def bracketed_largest_root(p: IntPoly, lo, hi) -> float:
    """The unique root of ``p`` in (lo, hi), to absolute tolerance BRACKET_TOL.

    ``lo`` and ``hi`` are exact rationals (int, Fraction or float).  The
    bracket is validated with exact sign evaluation at rational points:
    p(lo) * p(hi) < 0, and uniqueness is verified by checking the sign
    sequence at BRACKET_SAMPLES equispaced interior rational points for exactly
    one change.  Refinement is bisection (with exact signs) followed by a
    floating-point Newton polish.  Points are integer numerators over positive
    denominators, evaluated by ``_scaled_value``; a float is taken only by
    one correctly rounded integer division.
    """
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    an, bn, den = ln * hd, hn * ld, ld * hd  # lo and hi over one denominator
    if not an < bn:
        raise ValueError("need lo < hi")

    def sign(num, den):
        v = _scaled_value(p, num, den)
        return (v > 0) - (v < 0)

    slo, shi = sign(an, den), sign(bn, den)
    if slo == 0 or shi == 0 or slo == shi:
        raise NoSignChangeError(f"no sign change of p on [{lo}, {hi}]")

    # sample j is lo + j (hi - lo) / (BRACKET_SAMPLES + 1)
    signs = [slo]
    steps = BRACKET_SAMPLES + 1
    for j in range(1, BRACKET_SAMPLES + 1):
        signs.append(sign(an * steps + j * (bn - an), den * steps))
    signs.append(shi)
    zeros = signs.count(0)  # the ends are nonzero
    nonzero = [s for s in signs if s]
    changes = sum(a != b for a, b in zip(nonzero, nonzero[1:]))
    if zeros + changes != 1:
        raise ValueError(
            f"bracket ({lo}, {hi}) does not isolate a unique root "
            f"({changes} sign changes, {zeros} exact zeros at samples)"
        )

    while (bn - an) / den > BRACKET_TOL / 4:
        mid, an, bn, den = an + bn, 2 * an, 2 * bn, 2 * den  # mid / den is (a + b) / 2
        sm = sign(mid, den)
        if sm == 0:
            return mid / den
        if sm == slo:
            an = mid
        else:
            bn = mid
    root = (an + bn) / (2 * den)

    def value(q: IntPoly, x: float) -> float:
        num, den = x.as_integer_ratio()
        return _scaled_value(q, num, den) / den**q.degree

    dp = p.derivative()
    best, best_val = root, abs(value(p, root))
    x = root
    for _ in range(40):
        fx = value(p, x)
        dfx = value(dp, x)
        if dfx == 0:
            break
        step_f = fx / dfx
        x -= step_f
        if not (an / den - BRACKET_TOL <= x <= bn / den + BRACKET_TOL):
            break
        val = abs(value(p, x))
        if val < best_val:
            best, best_val = x, val
        if abs(step_f) < BRACKET_TOL / 8:
            break
    return best


# ---------------------------------------------------------------------------
# Exact integer matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BigIntMatrix:
    """Dense matrix of arbitrary-precision integers, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length must equal rows * cols")

    @staticmethod
    def from_rows(rows_list) -> "BigIntMatrix":
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        flat = []
        for row in rows_list:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(int(v) for v in row)
        return BigIntMatrix(r, c, tuple(flat))

    @staticmethod
    def identity(n: int) -> "BigIntMatrix":
        return BigIntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def to_lists(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]

    def transpose(self) -> "BigIntMatrix":
        return BigIntMatrix(
            self.cols,
            self.rows,
            tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)),
        )

    def max_abs(self) -> int:
        return max(map(abs, self.entries), default=0)

    def __sub__(self, other: "BigIntMatrix") -> "BigIntMatrix":
        self._check_same_shape(other)
        return BigIntMatrix(
            self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def scalar(self, k: int) -> "BigIntMatrix":
        return BigIntMatrix(self.rows, self.cols, tuple(k * v for v in self.entries))

    def __matmul__(self, other: "BigIntMatrix") -> "BigIntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        # int64 fast path when the exact product provably fits
        bound = max(1, self.max_abs()) * max(1, other.max_abs()) * max(1, self.cols)
        if bound < 2**62:
            a = np.array(self.to_lists(), dtype=np.int64)
            b = np.array(other.to_lists(), dtype=np.int64)
            c = a @ b
            return BigIntMatrix(self.rows, other.cols, tuple(int(v) for v in c.ravel()))
        a = self.to_lists()
        bt = other.transpose().to_lists()
        flat = []
        for row in a:
            for col in bt:
                flat.append(sum(x * y for x, y in zip(row, col)))
        return BigIntMatrix(self.rows, other.cols, tuple(flat))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i)
        )


def exact_rank(m: BigIntMatrix) -> int:
    """Exact rank over the rationals, by fraction-free elimination."""
    a = [row[:] for row in m.to_lists()]
    rows, cols = m.rows, m.cols
    rank = 0
    prev = 1
    for col in range(cols):
        pivot = None
        for i in range(rank, rows):
            if a[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, rows):
            for j in range(col + 1, cols):
                a[i][j] = (a[i][j] * a[rank][col] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank


# -- characteristic polynomial ----------------------------------------------

def char_poly(m: BigIntMatrix) -> IntPoly:
    """Exact integer characteristic polynomial det(lambda*I - M), ascending coeffs.

    M is reduced to Hessenberg form modulo a batch of word-size primes and the
    integer coefficients are reconstructed by CRT.  The prime batch is sized
    from Hadamard's inequality on principal minors, |c_k| <= min(e_k(row
    norms), e_k(column norms)) (see ``_coefficient_bound``), so the
    reconstruction is certified, never heuristic.  No floating point is
    involved, and entries of any size are accepted.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    if n > MAX_MATRIX_SIDE:
        raise ValueError(f"matrix side exceeds supported bound {MAX_MATRIX_SIDE}")
    if n == 0:
        return IntPoly((1,))
    return _char_poly_crt(m)


def _coefficient_bound(m: BigIntMatrix) -> int:
    """An upper bound on the absolute value of every coefficient of char_poly(m).

    The coefficient of lambda^(n-k) is a signed sum of the k x k principal
    minors det M_S.  Hadamard's inequality bounds |det M_S| by the product of
    the row norms of M_S, hence of M, over S; det M_S = det M_S^T gives the
    same with column norms.  Summing over S gives |c_k| <= min(e_k(||row_i||),
    e_k(||col_j||)), e_k the elementary symmetric polynomial.  Norms are
    rounded up to integers, so no floating point enters.
    """
    rows = m.to_lists()
    row_norms = [math.isqrt(sum(v * v for v in row)) + 1 for row in rows]
    col_norms = [math.isqrt(sum(v * v for v in col)) + 1 for col in zip(*rows)]
    return max(
        min(by_rows, by_cols)
        for by_rows, by_cols in zip(
            _elementary_symmetric(row_norms), _elementary_symmetric(col_norms)
        )
    )


def _elementary_symmetric(values: list[int]) -> list[int]:
    """[e_0, ..., e_n] of the given integers."""
    e = [1]
    for v in values:
        e = [a + v * b for a, b in zip(e + [0], [0] + e)]
    return e


def _primes_for_crt(need: int) -> list[int]:
    primes = []
    prod = 1
    candidate = (1 << 25) - 1
    while prod <= need:
        while not _is_prime(candidate):
            candidate -= 2
        primes.append(candidate)
        prod *= candidate
        candidate -= 2
    return primes


@functools.lru_cache(maxsize=4096)  # every prime batch walks down from the same candidate
def _is_prime(v: int) -> bool:
    if v < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if v % q == 0:
            return v == q
    i = 17
    while i * i <= v:
        if v % i == 0:
            return False
        i += 2
    return True


def _char_poly_crt(m: BigIntMatrix) -> IntPoly:
    n = m.rows
    primes = _primes_for_crt(2 * _coefficient_bound(m) + 1)

    rows = m.to_lists()
    if m.max_abs() < 2**63:
        a64 = np.array(rows, dtype=np.int64)
        residues = [_char_poly_mod(a64 % p, p) for p in primes]
    else:
        # entries beyond int64: reduce each prime's residues from the Python ints
        residues = [
            _char_poly_mod(np.array([[v % p for v in row] for row in rows], dtype=np.int64), p)
            for p in primes
        ]

    # incremental CRT over the primes: x' = x + mod * t, t = (r - x) / mod (mod p)
    coeffs = [0] * (n + 1)
    mod = 1
    for p, res in zip(primes, residues):
        inv = pow(mod % p, -1, p)
        coeffs = [x + mod * ((r - x) % p * inv % p) for x, r in zip(coeffs, res.tolist())]
        mod *= p
    return IntPoly([x - mod if x > mod // 2 else x for x in coeffs])


def _char_poly_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomial of a mod p (ascending), via Hessenberg reduction.

    All arithmetic stays below 2**63: entries are reduced mod p < 2**25, so a
    product is below 2**50, and a dot product sums at most n <= MAX_MATRIX_SIDE
    = 1000 < 2**10 such products, staying below 2**60.
    """
    h = a.astype(np.int64) % p
    n = h.shape[0]
    for k in range(n - 2):
        nonzero = np.flatnonzero(h[k + 1 :, k])
        if not nonzero.size:
            continue
        piv = k + 1 + int(nonzero[0])
        if piv != k + 1:
            h[[k + 1, piv], :] = h[[piv, k + 1], :]
            h[:, [k + 1, piv]] = h[:, [piv, k + 1]]
        inv = pow(int(h[k + 1, k]), -1, p)
        f = (h[k + 2 :, k] * inv) % p
        if f.size:
            h[k + 2 :, k:] = (h[k + 2 :, k:] - np.outer(f, h[k + 1, k:])) % p
            h[:, k + 1] = (h[:, k + 1] + h[:, k + 2 :] @ f) % p

    # p_k = (x - h[k-1,k-1]) p_{k-1} - sum_{i<k} h[i-1,k-1] * sub[i-1] * p_{i-1}, where
    # sub[i-1] = prod_{j=i}^{k-1} h[j,j-1] gains the factor h[k-1,k-2] at each k.
    # p_{i-1} has degree i-1, so only the leading k-1 columns of polys[:k-1] are nonzero.
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    sub = np.zeros(n, dtype=np.int64)
    for k in range(1, n + 1):
        prev, cur = polys[k - 1], polys[k]
        cur[1 : k + 1] = prev[:k]
        cur[:k] = (cur[:k] - h[k - 1, k - 1] * prev[:k]) % p
        if k >= 2:
            sub[k - 2] = 1
            sub[: k - 1] = sub[: k - 1] * h[k - 1, k - 2] % p
            weights = h[: k - 1, k - 1] * sub[: k - 1] % p
            cur[: k - 1] = (cur[: k - 1] - weights @ polys[: k - 1, : k - 1]) % p
    return polys[n].copy()  # a view would keep all of polys alive
