"""Exact spectral data of the billiard correspondence on the blown-up phase space.

Everything in this module depends only on the curve degree d.  The divisor
lattice of the modified phase space has rank 2d^2 + 2, with preferred basis

    C0, D0, Einf_1..Einf_{2d}, Eiso+_1..Eiso+_{d(d-1)}, Eiso-_1..Eiso-_{d(d-1)}

(a horizontal fiber class, a vertical fiber class, and one exceptional class
per blown-up scratch point).  The pushforward matrices of the secant,
reflection, and billiard steps act on this basis with exact integer entries;
their characteristic polynomial factors as

    chi(lambda) = Phi_d(lambda) * (lambda + 1)^(2d^2 - 2) * (lambda - (d - 1)),

with Phi_d a cubic whose largest root rho_d in (2d^2 - d - 5, 2d^2 - d - 3)
bounds the exponential degree growth.  All claims are verified here by exact
integer computation, never floating point; a float appears only in the
refinement of the bracketed root, which the factorization certificate makes
the spectral radius (see ``rho``).  Every lattice matrix is kept in one
sparse form (``Nonzeros``) from its block rules to every certificate, and
multiplied by one int64 kernel whose exactness bound is checked on each
product.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import (
    BigIntMatrix,
    IntPoly,
    NoSignChangeError,
    bracketed_largest_root,
    char_poly,
    exact_rank,
)

__all__ = [
    "DivisorBasis",
    "Nonzeros",
    "PushforwardMatrix",
    "divisor_basis",
    "intersection_form",
    "pushforward_s_hat",
    "pushforward_r_hat",
    "pushforward_b_hat",
    "phi",
    "verify_factorization",
    "verify_conjugation",
    "rho",
    "rho_bracket",
    "degree_sequence",
    "jordan_structure_d2",
    "MatrixMismatchError",
]


class MatrixMismatchError(RuntimeError):
    """The block-rule matrix and the product matrix disagree entrywise."""


# ---------------------------------------------------------------------------
# basis bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisorBasis:
    d: int
    labels: tuple[str, ...]

    @property
    def rank(self) -> int:
        return 2 * self.d * self.d + 2

    def index(self, label: str) -> int:
        return self.labels.index(label)


def divisor_basis(d: int) -> DivisorBasis:
    if d < 2:
        raise ValueError("degree must be >= 2")
    labels = ["C0", "D0"]
    labels += [f"Einf{j}" for j in range(1, 2 * d + 1)]
    labels += [f"Eiso+{j}" for j in range(1, d * (d - 1) + 1)]
    labels += [f"Eiso-{j}" for j in range(1, d * (d - 1) + 1)]
    return DivisorBasis(d=d, labels=tuple(labels))


class Nonzeros(NamedTuple):
    """A sparse integer matrix in its one form: the shape, and the row, column
    and value (int64, below 2**62 in magnitude) of every nonzero entry, sorted
    by (row, column)."""

    shape: tuple[int, int]
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    def same(self, other: "Nonzeros") -> bool:
        return self.shape == other.shape and all(map(np.array_equal, self[1:], other[1:]))


class PushforwardMatrix:
    """A pushforward on the divisor basis, kept as its nonzeros (taken from
    ``matrix`` when given).  ``matrix``, the dense BigIntMatrix, is built on
    first read."""

    def __init__(self, basis: DivisorBasis, matrix: BigIntMatrix | None = None, tag: str = "",
                 *, nonzeros: Nonzeros | None = None):
        self.basis, self.tag = basis, tag
        self.nonzeros = _from_dense(matrix) if nonzeros is None else nonzeros
        for a in self.nonzeros[1:]:
            a.flags.writeable = False  # shared by every reader of the cached build

    @functools.cached_property
    def matrix(self) -> BigIntMatrix:
        return _dense(self.nonzeros)


def _dense(m: Nonzeros) -> BigIntMatrix:
    rows, cols = m.shape
    flat = np.zeros(rows * cols, dtype=np.int64)
    flat[m.row * cols + m.col] = m.val
    return BigIntMatrix(rows, cols, tuple(flat.tolist()))


def _from_dense(m: BigIntMatrix) -> Nonzeros:
    if m.max_abs() >= 2**62:  # so that b_hat + I and every product bound fit int64
        raise ArithmeticError("a matrix entry is not below 2**62 in magnitude")
    flat = np.array(m.entries, dtype=np.int64)
    key = np.flatnonzero(flat)
    return Nonzeros((m.rows, m.cols), *np.divmod(key, m.cols), flat[key])


def _nonzeros(shape: tuple[int, int], blocks) -> Nonzeros:
    """The matrix that is the sum of the given blocks of (rows, cols, values),
    each broadcast together, in the one form: equal positions summed, zeros
    dropped."""
    parts = [np.broadcast_arrays(*block) for block in blocks]
    row, col, val = (np.concatenate([p[k].ravel() for p in parts]).astype(np.int64) for k in range(3))
    key = row * shape[1] + col
    order = np.argsort(key)
    key, val = key[order], val[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1]))) if key.size else key
    key, val = key[starts], np.add.reduceat(val, starts)
    keep = val != 0
    return Nonzeros(shape, *np.divmod(key[keep], shape[1]), val[keep])


def _max_abs(m: Nonzeros) -> int:
    return max(-int(m.val.min(initial=0)), int(m.val.max(initial=0)))


def _sparse_product(a: Nonzeros, b: Nonzeros) -> Nonzeros:
    """a @ b, exactly.  Each entry sums at most k = a's column count products,
    so k * max|a| * max|b| < 2**62 keeps every int64 sum exact; a larger bound
    raises ArithmeticError."""
    k = a.shape[1]
    if k != b.shape[0]:
        raise ValueError("shape mismatch in product")
    bound = k * _max_abs(a) * _max_abs(b)
    if bound >= 2**62:
        raise ArithmeticError(f"sparse product bound {bound} is not below 2**62")
    starts = np.searchsorted(b.row, np.arange(k + 1))
    first, count = starts[a.col], np.diff(starts)[a.col]
    # the positions in b of the rows that a's nonzeros pick, one run per nonzero
    pick = np.repeat(first + count - np.cumsum(count), count) + np.arange(count.sum())
    return _nonzeros(
        (a.shape[0], b.shape[1]),
        [(np.repeat(a.row, count), b.col[pick], np.repeat(a.val, count) * b.val[pick])],
    )


def _lattice(d: int, blocks) -> Nonzeros:
    """The square matrix of the lattice rank with the given blocks (see ``_nonzeros``)."""
    n = 2 * d * d + 2
    return _nonzeros((n, n), blocks)


def _classes(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis indices of Einf_1..Einf_2d and of Eiso+-_1..Eiso+-_d(d-1)."""
    return np.arange(2, 2 + 2 * d), np.arange(2 + 2 * d, 2 * d * d + 2)


def intersection_form(d: int) -> BigIntMatrix:
    """Gram matrix of the divisor basis: hyperbolic 2x2 block, then -identity.

    The two fiber classes satisfy C0^2 = D0^2 = 0 and C0.D0 = 1; each
    exceptional class is a (-1)-curve disjoint from the others and from the
    chosen fibers.  The matrix is an involution: J^2 = I.
    """
    return _dense(_intersection(d))


def _intersection(d: int) -> Nonzeros:
    exceptional = np.arange(2, 2 * d * d + 2)
    return _lattice(d, [(0, 1, 1), (1, 0, 1), (exceptional, exceptional, -1)])


# ---------------------------------------------------------------------------
# pushforward matrices on the blown-up surface
# ---------------------------------------------------------------------------


def pushforward_s_hat(d: int) -> PushforwardMatrix:
    """Secant pushforward: column rules

    C0 -> (d-1) C0,      D0 -> 2 C0 + (d-1) D0 - sum_j Einf_j,
    Einf_j -> C0 - Einf_j,   Eiso+-_j -> Eiso+-_j.

    The lower-left blocks are forced by self-adjointness (J M is symmetric).
    """
    return PushforwardMatrix(divisor_basis(d), tag="s_hat", nonzeros=_s_hat(d))


def _s_hat(d: int) -> Nonzeros:
    inf, iso = _classes(d)
    return _lattice(d, [(0, 0, d - 1), (0, 1, 2), (1, 1, d - 1),
                        (inf, 1, -1), (0, inf, 1), (inf, inf, -1), (iso, iso, 1)])


def pushforward_r_hat(d: int) -> PushforwardMatrix:
    """Reflection pushforward: column rules

    C0 -> C0 + d(d-1) D0 - sum_j (Eiso+_j + Eiso-_j),   D0 -> D0,
    Einf_j -> Einf_j,   Eiso+-_j -> D0 - Eiso+-_j.
    """
    return PushforwardMatrix(divisor_basis(d), tag="r_hat", nonzeros=_r_hat(d))


def _r_hat(d: int) -> Nonzeros:
    inf, iso = _classes(d)
    return _lattice(d, [(0, 0, 1), (1, 0, d * (d - 1)), (1, 1, 1), (inf, inf, 1),
                        (iso, 0, -1), (1, iso, 1), (iso, iso, -1)])


def _display_b_hat(d: int) -> Nonzeros:
    """The billiard pushforward built directly from its displayed block rules,
    independent of the matrix product (used as a cross-check)."""
    inf, iso = _classes(d)
    return _lattice(d, [
        (0, 0, d - 1), (0, 1, 2), (1, 0, d * (d - 1) ** 2), (1, 1, (2 * d + 1) * (d - 1)),
        (0, inf, 1), (1, inf, d * (d - 1)), (inf, 1, -1), (inf, inf, -1),
        (1, iso, 1), (iso, 0, -(d - 1)), (iso, 1, -2), (iso, iso, -1), (iso[:, None], inf, -1),
    ])


@functools.lru_cache(maxsize=1)
def pushforward_b_hat(d: int) -> PushforwardMatrix:
    """Billiard pushforward: the exact product r_hat * s_hat, checked entry by
    entry against the independently generated block-rule matrix.

    Both sides are compared in the one sparse form, which is kept.  The last
    degree's result is kept (it is immutable), so the certificates, ``rho``
    and ``degree_sequence`` of one degree share a build.
    """
    display = _display_b_hat(d)
    if not _sparse_product(_r_hat(d), _s_hat(d)).same(display):
        raise MatrixMismatchError(f"product and display disagree at d = {d}")
    return PushforwardMatrix(divisor_basis(d), tag="b_hat", nonzeros=display)


# ---------------------------------------------------------------------------
# characteristic polynomial, factorization, conjugation
# ---------------------------------------------------------------------------


def phi(d: int) -> IntPoly:
    """The cubic lambda^3 - (2d^2-d-3) lambda^2 + (2d^2-4d+3) lambda - (d-1)."""
    if d < 2:
        raise ValueError("degree must be >= 2")
    return IntPoly([-(d - 1), 2 * d * d - 4 * d + 3, -(2 * d * d - d - 3), 1])


def claimed_factorization(d: int) -> IntPoly:
    """Phi_d * (lambda + 1)^(2d^2 - 2) * (lambda - (d - 1)), expanded exactly."""
    return _times_lambda_plus_1_power(IntPoly([-(d - 1), 1]) * phi(d), 2 * d * d - 2)


def _times_lambda_plus_1_power(p: IntPoly, e: int) -> IntPoly:
    """p * (lambda + 1)^e, the power expanded from its binomial coefficients."""
    binomials = [1]
    for k in range(e):
        binomials.append(binomials[-1] * (e - k) // (k + 1))
    return p * IntPoly(binomials)


def _class_of(d: int) -> np.ndarray:
    """The class of each basis index: 0 for C0, 1 for D0, 2 for Einf_j, 3 for Eiso+-_j."""
    return np.repeat(np.arange(4), [1, 1, 2 * d, 2 * d * (d - 1)])


def _four_class_quotient(d: int) -> tuple[list[list[int]], int]:
    """The 4x4 quotient Q = R P - I of B = b_hat + I, and the lattice rank n.

    R holds the four class heads' rows of B (dense, 4 x n).  Every nonzero
    of b_hat must equal its entry of P R - I, with P the n x 4 class
    indicator, and every row must hold as many nonzeros as that row of
    P R - I: then B = P R exactly.  A row off its class raises
    MatrixMismatchError.  Then b_hat P = P Q: class-constant vectors step
    under Q.
    """
    b_hat = pushforward_b_hat(d).nonzeros
    n = b_hat.shape[0]
    cls = _class_of(d)
    heads = np.searchsorted(cls, np.arange(4))  # the first row of each class
    at_head = b_hat.row == heads[cls[b_hat.row]]
    r = np.zeros((4, n), dtype=np.int64)
    r[cls[b_hat.row[at_head]], b_hat.col[at_head]] = b_hat.val[at_head]
    r[np.arange(4), heads] += 1
    diagonal = r[cls, np.arange(n)]  # the diagonal of P R
    # each row of P R - I has its class row's nonzeros, one more or one less on the diagonal
    expected = np.count_nonzero(r, axis=1)[cls] + (diagonal == 0) - (diagonal == 1)
    off = np.diff(np.searchsorted(b_hat.row, np.arange(n + 1))) != expected
    off[b_hat.row[b_hat.val != r[cls[b_hat.row], b_hat.col] - (b_hat.row == b_hat.col)]] = True
    if off.any():
        raise MatrixMismatchError(
            f"row {off.argmax()} of b_hat + I is off its class: no rank 4 factorization "
            f"through the four-class quotient at d = {d}")
    bounds = heads.tolist() + [n]
    return [[sum(row[s:e]) - (c == k) for k, (s, e) in enumerate(zip(bounds, bounds[1:]))]
            for c, row in enumerate(r.tolist())], n  # R P - I, summed in Python ints


def verify_factorization(d: int) -> tuple[bool, dict]:
    """Exact comparison of char(b_hat) with the claimed product, through the
    four-class quotient Q of B = b_hat + I = P R (``_four_class_quotient``).

    By Sylvester's determinant identity det(mu I_n - P R) = mu^(n-4)
    det(mu I_4 - R P), so at mu = lambda + 1 char(b_hat) = (lambda + 1)^(n-4)
    det(lambda I - Q): only the quartic factor is computed; it is compared
    with (lambda - (d-1)) Phi_d, and n - 4 with 2d^2 - 2.
    """
    q, n = _four_class_quotient(d)
    quartic = _det([[IntPoly([-v, int(r == c)]) for c, v in enumerate(row)] for r, row in enumerate(q)])
    exponent = n - 4
    chi = _times_lambda_plus_1_power(quartic, exponent)
    ok = quartic == IntPoly([-(d - 1), 1]) * phi(d) and exponent == 2 * d * d - 2
    # a certificate that holds has chi equal to the claimed product: one expansion
    product = chi if ok else claimed_factorization(d)
    certificate = {
        "d": d,
        "char_poly": list(chi.coeffs),
        "claimed_product": list(product.coeffs),
        "degree": chi.degree,
    }
    return ok, certificate


def _det(a: list[list[IntPoly]]) -> IntPoly:
    """Determinant of a small nonempty square matrix of polynomials by the Leibniz formula."""
    total = IntPoly([0])
    for perm in itertools.permutations(range(len(a))):
        term = a[0][perm[0]]
        for row, j in zip(a[1:], perm[1:]):
            term = term * row[j]
        odd = sum(p > q for at, p in enumerate(perm) for q in perm[at + 1 :]) % 2
        total = total - term if odd else total + term
    return total


def _psi(d: int) -> Nonzeros:
    """Block-diagonal involution: identity on the fiber classes, and on each
    exceptional block the matrix with first row all ones and -1 diagonal below."""
    blocks = [(0, 0, 1), (1, 1, 1)]
    for block in _classes(d):
        blocks += [(block[0], block, 1), (block[1:], block[1:], -1)]
    return _lattice(d, blocks)


def _pi_permutation(d: int) -> list[int]:
    """new index -> old index; cycles the first iso+ coordinate into slot 3
    (0-indexed), shifting the tail of the infinity block down by one."""
    inf, iso = (block.tolist() for block in _classes(d))
    return [0, 1, inf[0], iso[0], *inf[1:], *iso[1:]]


def conjugation_block_a(d: int) -> BigIntMatrix:
    return BigIntMatrix.from_rows(
        [
            [d - 1, 2, 1, 0],
            [d * (d - 1) ** 2, (2 * d + 1) * (d - 1), d * (d - 1), 1],
            [0, -2 * d, -1, 0],
            [-2 * d * (d - 1) ** 2, -4 * d * (d - 1), -2 * d * (d - 1), -1],
        ]
    )


def verify_conjugation(d: int) -> tuple[bool, dict]:
    """Certificate for the similarity that factors the characteristic polynomial.

    Checks, all by exact integer arithmetic:
      (i)   Psi is an involution;
      (ii)  after conjugating by Psi and reordering coordinates, the matrix is
            block lower triangular with lower-right block -identity;
      (iii) the upper-left 4x4 block is the explicit matrix A;
      (iv)  char(A) = (lambda - (d - 1)) * Phi_d(lambda).
    """
    m = pushforward_b_hat(d).nonzeros
    n = m.shape[0]
    psi = _psi(d)
    diagonal = np.arange(n)
    psi_sq_ok = _sparse_product(psi, psi).same(_nonzeros(m.shape, [(diagonal, diagonal, 1)]))

    conj = _sparse_product(_sparse_product(psi, m), psi)  # Psi = Psi^{-1}
    order = _pi_permutation(d)
    new_index = np.argsort(order)
    row, col, val = new_index[conj.row], new_index[conj.col], conj.val

    upper_right_zero = not np.any((row < 4) & (col >= 4))
    lower = (row >= 4) & (col >= 4)  # distinct positions, so n - 4 diagonal ones fill it
    lower_right_neg_identity = np.count_nonzero(lower) == n - 4 and bool(
        np.all(row[lower] == col[lower]) and np.all(val[lower] == -1))
    upper = (row < 4) & (col < 4)
    a_rows = np.zeros((4, 4), dtype=np.int64)
    a_rows[row[upper], col[upper]] = val[upper]
    a_block = BigIntMatrix.from_rows(a_rows.tolist())
    a_expected = conjugation_block_a(d)
    a_ok = a_block.entries == a_expected.entries
    chi_a = char_poly(a_block)
    chi_expected = IntPoly([-(d - 1), 1]) * phi(d)
    chi_ok = chi_a.coeffs == chi_expected.coeffs

    ok = psi_sq_ok and upper_right_zero and lower_right_neg_identity and a_ok and chi_ok
    certificate = {
        "d": d,
        "psi_involution": psi_sq_ok,
        "upper_right_zero": upper_right_zero,
        "lower_right_neg_identity": lower_right_neg_identity,
        "a_block": a_block.to_lists(),
        "a_matches_display": a_ok,
        "chi_a": list(chi_a.coeffs),
        "chi_a_matches": chi_ok,
        "permutation_new_to_old": order,
    }
    return ok, certificate


# ---------------------------------------------------------------------------
# spectral radius and degree growth
# ---------------------------------------------------------------------------


def rho_bracket(d: int) -> tuple[int, int]:
    return (2 * d * d - d - 5, 2 * d * d - d - 3)


def rho(d: int) -> float:
    """Largest root of Phi_d: the spectral radius of b_hat, and 1 when d = 2,
    where Phi_2 = (lambda - 1)^3.

    For d >= 3 the root is isolated in (2d^2-d-5, 2d^2-d-3) by exact signs
    and refined to 1e-12; a bracket without a sign change raises
    ArithmeticError.  ``verify_factorization`` certifies chi(b_hat) =
    (lambda + 1)^(2d^2-2) (lambda - (d-1)) Phi_d, and ``spectral`` exits 2
    without it.  By Vieta, Phi_d's other roots have r2 + r3 = (2d^2-d-3) -
    rho in (0, 2) and r2 r3 = (d-1) / rho in (0, 1): complex ones have
    modulus sqrt((d-1) / rho) < 1, real ones lie in (0, 2), and
    rho > 2d^2-d-5 > d-1 >= 2, so rho dominates every other eigenvalue.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    if d == 2:
        return 1.0
    lo, hi = rho_bracket(d)
    try:
        return bracketed_largest_root(phi(d), lo, hi)
    except NoSignChangeError as exc:
        raise ArithmeticError(
            f"Phi_{d} has no root in the bracket ({lo}, {hi}): {exc}"
        ) from exc


MAX_SEQUENCE_INDEX = 200


def degree_sequence(d: int, m_max: int) -> list[int]:
    """Model degrees deg_m = (M^m Delta) . J Delta for Delta = C0 + D0.

    This iterates the pushforward matrix, i.e. it is the algebraically
    stable model of degree growth; it matches true degree growth exactly
    when no iterate drops a class into an indeterminacy point.

    b_hat P = P Q for the class indicator P and the 4x4 quotient Q of
    ``_four_class_quotient`` (which checks every row), so M^m Delta is
    class-constant, and its class values step under Q.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if m_max > MAX_SEQUENCE_INDEX:
        raise ValueError(f"m_max capped at {MAX_SEQUENCE_INDEX}")
    q, _ = _four_class_quotient(d)
    cls = _class_of(d)
    j = _intersection(d)
    pairing = [0] * 4  # the class sums of J Delta; Delta is 1 at C0 and D0
    for i, v in zip(cls[j.row].tolist(), (j.val * (j.col < 2)).tolist()):
        pairing[i] += v
    out = []
    v = [1, 1, 0, 0]  # the class values of Delta
    for _ in range(m_max + 1):
        out.append(sum(map(operator.mul, v, pairing)))
        v = [sum(map(operator.mul, q[c], v)) for c in range(4)]
    return out


def jordan_structure_d2() -> dict:
    """Exact nullity sequences of (M -+ I)^k for the d = 2 pushforward.

    Expected: eigenvalue 1 has nullities (2, 3, 4, 4), i.e. one size-3 and
    one size-1 block; eigenvalue -1 has nullities (6, 6), six size-1 blocks.
    """
    m = pushforward_b_hat(2).matrix
    n = m.rows
    ident = BigIntMatrix.identity(n)

    def nullities(shift: int, count: int) -> list[int]:
        base = m - ident.scalar(shift)
        out = []
        power = ident
        for _ in range(count):
            power = power @ base
            out.append(n - exact_rank(power))
        return out

    null_plus = nullities(1, 4)
    null_minus = nullities(-1, 2)
    partition = _partition_from_nullities(null_plus) + _partition_from_nullities(
        null_minus
    )
    partition.sort(reverse=True)
    return {
        "eigenvalue_1_nullities": null_plus,
        "eigenvalue_minus_1_nullities": null_minus,
        "jordan_partition": partition,
    }


def _partition_from_nullities(nulls: list[int]) -> list[int]:
    # number of blocks of size >= k is nulls[k-1] - nulls[k-2]
    diffs = [nulls[0]] + [nulls[k] - nulls[k - 1] for k in range(1, len(nulls))]
    blocks = []
    for size in range(len(diffs), 0, -1):
        count = diffs[size - 1] - (diffs[size] if size < len(diffs) else 0)
        blocks.extend([size] * count)
    return blocks
