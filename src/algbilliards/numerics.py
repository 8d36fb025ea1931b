"""Shared numerical kernels: complex polynomial roots and exact integer linear algebra.

Two independent toolkits live here.  The floating-point side (ComplexPoly,
find_roots, monic_roots) supports the geometry modules, which intersect
lines with plane curves and need root multisets with multiplicities.  The
exact side (IntPoly, BigIntMatrix, char_poly, bracketed_largest_root)
supports the spectral module, where every statement is an integer identity
and floating point is never allowed to leak in.
"""

from __future__ import annotations

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
    "monic_roots",
    "char_poly",
    "bracketed_largest_root",
    "exact_rank",
]

LEADING_ZERO_TOL = 1e-12
CLUSTER_REL_TOL = 1e-6
COARSE_CLUSTER_REL_TOL = 1e-4
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
    big = max(abs(c) for c in cs)
    tol = LEADING_ZERO_TOL * max(1.0, big)
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

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def eval_with_derivative(self, z: complex) -> tuple[complex, complex]:
        p = 0j
        dp = 0j
        for c in reversed(self.coeffs):
            dp = dp * z + p
            p = p * z + c
        return p, dp

    def derivative(self) -> "ComplexPoly":
        if self.degree == 0:
            return ComplexPoly((0j,))
        return ComplexPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def scale(self) -> float:
        return max(abs(c) for c in self.coeffs)


@dataclass(frozen=True)
class RootCluster:
    """A root with multiplicity; residual is |p(value)| / max(1, |lead|)."""

    value: complex
    multiplicity: int
    residual: float


def _eval_magnitude_scale(coeffs, z: complex) -> float:
    # sum_k |a_k| |z|^k, the natural backward-error yardstick at z
    az = abs(z)
    s = 0.0
    pw = 1.0
    for c in coeffs:
        s += abs(c) * pw
        pw *= az
    return max(1.0, s)


def find_roots(p: ComplexPoly) -> list[RootCluster]:
    """All roots of ``p`` with multiplicity, from ``monic_roots``.

    Approximations within ``CLUSTER_REL_TOL * (1 + max |root|)`` of each other
    are merged into one cluster; genuinely multiple roots whose approximations
    straddle that radius (the attainable accuracy of a root of multiplicity m
    scales like eps**(1/m)) are detected by re-polishing the cluster centroid
    with a multiplicity-corrected Newton step and checking that the polynomial
    sits at rounding level there.

    Raises NonConvergenceError if the eigenvalue iteration fails.
    """
    n = p.degree
    if n < 1:
        raise ValueError("find_roots requires degree >= 1")
    for c in p.coeffs:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("coefficients must be finite")
    lead = p.coeffs[-1]
    monic = tuple(c / lead for c in p.coeffs)

    if n == 1:
        r = -monic[0]
        return [RootCluster(r, 1, abs(p(r)) / max(1.0, abs(lead)))]

    mp = ComplexPoly(monic)
    clusters = _cluster_roots(mp, monic_roots(np.array([monic[:-1]]))[0].tolist())
    lead_abs = max(1.0, abs(lead))
    out = []
    for value, mult in clusters:
        value = _polish_root(mp, value, mult)
        out.append(RootCluster(value, mult, abs(p(value)) / lead_abs))
    out.sort(key=lambda rc: (rc.value.real, rc.value.imag))
    return out


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

    def horner(z):
        p, dp = z + monic[:, -1:], 1.0
        for k in range(n - 2, -1, -1):
            dp, p = dp * z + p, p * z + monic[:, k, None]
        return p, dp

    p, dp = horner(z)
    with np.errstate(all="ignore"):
        z_new = z - p / dp
    return np.where(np.abs(horner(z_new)[0]) < np.abs(p), z_new, z)


def _cluster_roots(mp: ComplexPoly, roots: list[complex]) -> list[tuple[complex, int]]:
    big = max(abs(r) for r in roots)
    tol = CLUSTER_REL_TOL * (1.0 + big)
    groups = _agglomerate(roots, tol)

    # Second pass: genuine multiple roots leave a cloud wider than tol but
    # narrower than the spacing of distinct roots.  Merge groups whose common
    # centroid evaluates to rounding noise after multiplicity-aware polishing.
    coarse_tol = max(tol, COARSE_CLUSTER_REL_TOL * (1.0 + big))
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                (vi, mi), (vj, mj) = groups[i], groups[j]
                if abs(vi - vj) > coarse_tol:
                    continue
                m = mi + mj
                center = (vi * mi + vj * mj) / m
                center = _polish_root(mp, center, m)
                noise = 64.0 * (mp.degree + 1) * np.finfo(float).eps
                if abs(mp(center)) <= noise * _eval_magnitude_scale(mp.coeffs, center):
                    groups[i] = (center, m)
                    del groups[j]
                    merged = True
                    break
            if merged:
                break
    return groups


def _agglomerate(points: list[complex], tol: float) -> list[tuple[complex, int]]:
    remaining = list(points)
    groups: list[tuple[complex, int]] = []
    while remaining:
        seed = remaining.pop()
        members = [seed]
        changed = True
        while changed:
            changed = False
            for k in range(len(remaining) - 1, -1, -1):
                if any(abs(remaining[k] - m) <= tol for m in members):
                    members.append(remaining.pop(k))
                    changed = True
        center = sum(members) / len(members)
        groups.append((center, len(members)))
    return groups


def _polish_root(mp: ComplexPoly, z: complex, mult: int) -> complex:
    best = z
    best_val = abs(mp(z))
    for _ in range(8):
        pz, dpz = mp.eval_with_derivative(z)
        if dpz == 0:
            break
        z = z - mult * pz / dpz
        val = abs(mp(z))
        if val < best_val:
            best, best_val = z, val
        else:
            break
    return best


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


def bracketed_largest_root(p: IntPoly, lo, hi) -> float:
    """The unique root of ``p`` in (lo, hi), to absolute tolerance BRACKET_TOL.

    The bracket is validated with exact sign evaluation at rational points:
    p(lo) * p(hi) < 0, and uniqueness is verified by checking the sign
    sequence at BRACKET_SAMPLES equispaced interior rational points for exactly
    one change.  Refinement is bisection (with exact signs) followed by a
    floating-point Newton polish.
    """
    flo, fhi = Fraction(lo), Fraction(hi)
    if not flo < fhi:
        raise ValueError("need lo < hi")
    slo, shi = p.sign_at(flo), p.sign_at(fhi)
    if slo == 0 or shi == 0 or slo == shi:
        raise NoSignChangeError(f"no sign change of p on [{lo}, {hi}]")

    signs = [slo]
    step = (fhi - flo) / (BRACKET_SAMPLES + 1)
    for j in range(1, BRACKET_SAMPLES + 1):
        signs.append(p.sign_at(flo + j * step))
    signs.append(shi)
    zeros = sum(1 for s in signs[1:-1] if s == 0)
    changes = 0
    prev = signs[0]
    for s in signs[1:]:
        if s == 0:
            continue
        if s != prev:
            changes += 1
        prev = s
    if zeros + changes != 1:
        raise ValueError(
            f"bracket ({lo}, {hi}) does not isolate a unique root "
            f"({changes} sign changes, {zeros} exact zeros at samples)"
        )

    a, b, sa = flo, fhi, slo
    while float(b - a) > BRACKET_TOL / 4:
        mid = (a + b) / 2
        sm = p.sign_at(mid)
        if sm == 0:
            return float(mid)
        if sm == sa:
            a = mid
        else:
            b = mid
    root = float((a + b) / 2)

    dp = p.derivative()
    best, best_val = root, abs(float(p.eval_fraction(Fraction(root))))
    x = root
    for _ in range(40):
        fx = float(p.eval_fraction(Fraction(x)))
        dfx = float(dp.eval_fraction(Fraction(x)))
        if dfx == 0:
            break
        step_f = fx / dfx
        x -= step_f
        if not (float(a) - BRACKET_TOL <= x <= float(b) + BRACKET_TOL):
            break
        val = abs(float(p.eval_fraction(Fraction(x))))
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
