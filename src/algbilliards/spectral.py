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
integer computation, never floating point; floats appear only in the
power-iteration cross-check and the bracketed root refinement.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

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
    "PushforwardMatrix",
    "divisor_basis",
    "intersection_form",
    "cheap_matrices",
    "cheap_eigenvalues",
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
    "power_iteration_radius",
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


@dataclass(frozen=True)
class PushforwardMatrix:
    basis: DivisorBasis
    matrix: BigIntMatrix
    tag: str
    # each row's nonzero (column, entry) pairs, read-only; from matrix unless given
    _rows: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._rows is None:
            object.__setattr__(self, "_rows", _nonzero_rows(self.matrix))


def _block_ranges(d: int):
    ninf = 2 * d
    niso = d * (d - 1)
    inf0 = 2
    isop0 = 2 + ninf
    isom0 = isop0 + niso
    return inf0, isop0, isom0, 2 + ninf + 2 * niso


def intersection_form(d: int) -> BigIntMatrix:
    """Gram matrix of the divisor basis: hyperbolic 2x2 block, then -identity.

    The two fiber classes satisfy C0^2 = D0^2 = 0 and C0.D0 = 1; each
    exceptional class is a (-1)-curve disjoint from the others and from the
    chosen fibers.  The matrix is an involution: J^2 = I.
    """
    return _matrix(d, _intersection_entries(d))


def _intersection_entries(d: int) -> dict:
    return {(0, 1): 1, (1, 0): 1, **{(i, i): -1 for i in range(2, 2 * d * d + 2)}}


def _matrix(d: int, entries: dict) -> BigIntMatrix:
    """The square matrix of the lattice rank with the given {(row, col): value} entries."""
    n = 2 * d * d + 2
    flat = [0] * (n * n)
    for (i, j), v in entries.items():
        flat[i * n + j] = v
    return BigIntMatrix(n, n, tuple(flat))


def _sparse_rows(d: int, entries: dict) -> list[list[tuple[int, int]]]:
    """The same matrix as rows of (column, entry) pairs, the form of ``_nonzero_rows``."""
    rows = [[] for _ in range(2 * d * d + 2)]
    for (i, j), v in sorted(entries.items()):
        if v:
            rows[i].append((j, v))
    return rows


# ---------------------------------------------------------------------------
# the small 2x2 model (no blowups)
# ---------------------------------------------------------------------------


def cheap_matrices(d: int) -> tuple[BigIntMatrix, BigIntMatrix, BigIntMatrix]:
    """Pushforward matrices on the unblown product surface, basis (C0, D0)."""
    if d < 2:
        raise ValueError("degree must be >= 2")
    m_s = BigIntMatrix.from_rows([[d - 1, 2], [0, d - 1]])
    m_r = BigIntMatrix.from_rows([[1, 0], [d * (d - 1), 1]])
    m_b = m_r @ m_s
    expected = BigIntMatrix.from_rows(
        [[d - 1, 2], [d * (d - 1) ** 2, (2 * d + 1) * (d - 1)]]
    )
    if m_b.entries != expected.entries:
        raise MatrixMismatchError("the 2x2 billiard product disagrees with its closed form")
    return m_s, m_r, m_b


def cheap_eigenvalues(d: int) -> tuple[float, float]:
    """Exact eigenvalues of the 2x2 billiard pushforward: (d^2-1) +- sqrt(d^4-3d^2+2d).

    The trace of the product matrix is 2d^2 - 2 and its determinant is
    (d-1)^2, so both eigenvalues are strictly below 2d^2.
    """
    disc = d**4 - 3 * d**2 + 2 * d
    root = math.sqrt(disc)
    lo, hi = (d * d - 1) - root, (d * d - 1) + root
    if not hi < 2 * d * d:
        raise ArithmeticError(f"cheap eigenvalue {hi} is not below 2d^2 = {2 * d * d}")
    return lo, hi


# ---------------------------------------------------------------------------
# pushforward matrices on the blown-up surface
# ---------------------------------------------------------------------------


def pushforward_s_hat(d: int) -> PushforwardMatrix:
    """Secant pushforward: column rules

    C0 -> (d-1) C0,      D0 -> 2 C0 + (d-1) D0 - sum_j Einf_j,
    Einf_j -> C0 - Einf_j,   Eiso+-_j -> Eiso+-_j.

    The lower-left blocks are forced by self-adjointness (J M is symmetric).
    """
    return PushforwardMatrix(divisor_basis(d), _matrix(d, _s_hat(d)), "s_hat")


def _s_hat(d: int) -> dict:
    inf0, isop0, _isom0, n = _block_ranges(d)
    entries = {(0, 0): d - 1, (0, 1): 2, (1, 1): d - 1}
    for j in range(inf0, isop0):
        entries.update({(j, 1): -1, (0, j): 1, (j, j): -1})
    entries.update(((j, j), 1) for j in range(isop0, n))
    return entries


def pushforward_r_hat(d: int) -> PushforwardMatrix:
    """Reflection pushforward: column rules

    C0 -> C0 + d(d-1) D0 - sum_j (Eiso+_j + Eiso-_j),   D0 -> D0,
    Einf_j -> Einf_j,   Eiso+-_j -> D0 - Eiso+-_j.
    """
    return PushforwardMatrix(divisor_basis(d), _matrix(d, _r_hat(d)), "r_hat")


def _r_hat(d: int) -> dict:
    inf0, isop0, _isom0, n = _block_ranges(d)
    entries = {(0, 0): 1, (1, 0): d * (d - 1), (1, 1): 1}
    entries.update(((j, j), 1) for j in range(inf0, isop0))
    for j in range(isop0, n):
        entries.update({(j, 0): -1, (1, j): 1, (j, j): -1})
    return entries


def _display_b_hat(d: int) -> dict:
    """The billiard pushforward built directly from its displayed block rules,
    independent of the matrix product (used as a cross-check)."""
    inf0, isop0, _isom0, n = _block_ranges(d)
    entries = {(0, 0): d - 1, (0, 1): 2, (1, 0): d * (d - 1) ** 2, (1, 1): (2 * d + 1) * (d - 1)}
    for j in range(inf0, isop0):
        entries.update({(0, j): 1, (1, j): d * (d - 1), (j, 1): -1, (j, j): -1})
    for j in range(isop0, n):
        entries.update({(1, j): 1, (j, 0): -(d - 1), (j, 1): -2, (j, j): -1})
        entries.update(((j, k), -1) for k in range(inf0, isop0))
    return entries


@functools.lru_cache(maxsize=1)
def pushforward_b_hat(d: int) -> PushforwardMatrix:
    """Billiard pushforward: the exact product r_hat * s_hat, checked entrywise
    against the independently generated block-rule matrix.

    Both sides are compared as rows of nonzero entries, kept with the matrix.
    The last degree's result is kept (it is immutable), so the certificates,
    ``rho`` and ``degree_sequence`` of one degree share a build.
    """
    basis = divisor_basis(d)
    display = _display_b_hat(d)
    product = _sparse_product(_sparse_rows(d, _r_hat(d)), _sparse_rows(d, _s_hat(d)))
    if product != _sparse_rows(d, display):
        raise MatrixMismatchError(f"product and display disagree at d = {d}")
    return PushforwardMatrix(basis, _matrix(d, display), "b_hat", product)


def _sparse_product(a: list, b: list) -> list[list[tuple[int, int]]]:
    """The product of two matrices given as rows of (column, entry) pairs, in that form."""
    out = []
    for row in a:
        acc = collections.defaultdict(int)
        for k, x in row:
            for j, y in b[k]:
                acc[j] += x * y
        out.append([(j, v) for j, v in sorted(acc.items()) if v])
    return out


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


def verify_factorization(d: int) -> tuple[bool, dict]:
    """Exact comparison of char(b_hat) with the claimed product, through the
    rank-4 skeleton of B = b_hat + I.

    Fraction-free elimination picks rows I and columns J with K = B[I, J]
    nonsingular, and delta * B = C adj(K) R (delta = det K, C = B[:, J],
    R = B[I, :]) is checked on every entry.  By Sylvester's determinant
    identity char(b_hat)(lambda) = mu^(n-4) det(mu K - R C) / delta at
    mu = lambda + 1, so only the quartic factor is computed; it is compared
    with (lambda - (d-1)) Phi_d, and n - 4 with 2d^2 - 2.  A rank other than
    4 raises MatrixMismatchError.
    """
    rows = pushforward_b_hat(d).matrix.to_lists()
    for i, row in enumerate(rows):
        row[i] += 1
    piv_rows, piv_cols = _skeleton_pivots(rows)
    k = [[rows[i][j] for j in piv_cols] for i in piv_rows]
    if len(k) < 4 or not _skeleton_holds(rows, piv_rows, piv_cols, k):
        raise MatrixMismatchError(f"b_hat + I does not have rank 4 at d = {d}")
    c_cols = [[row[j] for row in rows] for j in piv_cols]
    rc = [[sum(map(operator.mul, rows[i], col)) for col in c_cols] for i in piv_rows]
    # det(mu K - R C) at mu = lambda + 1 is delta times a monic integer quartic:
    # char(B) / mu^(n-4), so the division by its leading coefficient is exact
    pencil = _det([[IntPoly([a - b, a]) for a, b in zip(*pair)] for pair in zip(k, rc)], IntPoly([1]))
    quartic = IntPoly([c // pencil.coeffs[-1] for c in pencil.coeffs])
    exponent = len(rows) - 4
    chi = _times_lambda_plus_1_power(quartic, exponent)
    product = claimed_factorization(d)
    ok = quartic == IntPoly([-(d - 1), 1]) * phi(d) and exponent == 2 * d * d - 2
    certificate = {
        "d": d,
        "char_poly": list(chi.coeffs),
        "claimed_product": list(product.coeffs),
        "degree": chi.degree,
    }
    return ok, certificate


def _skeleton_pivots(rows: list[list[int]]) -> tuple[list[int], list[int]]:
    """Rows I and columns J of a nonsingular block of side at most 4, by
    fraction-free elimination in row order (fewer pivots: lower rank).  Each
    reduced pivot row is zero in the earlier pivot columns, so the reduced
    rows restricted to J are triangular with a nonzero diagonal."""
    pivots, piv_rows = [], []
    for i, row in enumerate(rows):
        for col, pivot in pivots:
            a, b = pivot[col], row[col]
            if b:
                row = [a * x - b * y for x, y in zip(row, pivot)]
        if any(row):
            pivots.append((next(j for j, x in enumerate(row) if x), row))
            piv_rows.append(i)
            if len(pivots) == 4:
                break
    return piv_rows, [col for col, _ in pivots]


def _skeleton_holds(rows, piv_rows, piv_cols, k) -> bool:
    """delta * B == C adj(K) R on every entry.  Row i of the right side is
    (C_i adj K) R, so rows with equal C_i adj K share one expansion."""
    s = range(len(k))
    adj = [[(-1) ** (i + j) * _det([r[:i] + r[i + 1 :] for r in k[:j] + k[j + 1 :]]) for j in s]
           for i in s]
    delta = _det(k)
    r_cols = list(zip(*(rows[i] for i in piv_rows)))
    expanded = {}
    for row in rows:
        c_adj = tuple(sum(row[j] * adj[a][b] for a, j in enumerate(piv_cols)) for b in s)
        if c_adj not in expanded:
            expanded[c_adj] = [sum(map(operator.mul, c_adj, col)) for col in r_cols]
        if expanded[c_adj] != [delta * x for x in row]:
            return False
    return True


def _det(a: list, one=1):
    """Determinant of a small square matrix by the Leibniz formula; with
    one = IntPoly([1]) the entries may be polynomials."""
    total = one - one
    for perm in itertools.permutations(range(len(a))):
        term = one
        for i, j in enumerate(perm):
            term = term * a[i][j]
        odd = sum(p > q for at, p in enumerate(perm) for q in perm[at + 1 :]) % 2
        total = total - term if odd else total + term
    return total


def _psi(d: int) -> dict:
    """Block-diagonal involution: identity on the fiber classes, and on each
    exceptional block the matrix with first row all ones and -1 diagonal below."""
    inf0, isop0, _isom0, n = _block_ranges(d)
    entries = {(0, 0): 1, (1, 1): 1}
    for start, stop in ((inf0, isop0), (isop0, n)):
        entries.update(((start, j), 1) for j in range(start, stop))
        entries.update(((j, j), -1) for j in range(start + 1, stop))
    return entries


def _pi_permutation(d: int) -> list[int]:
    """new index -> old index; cycles the first iso+ coordinate into slot 3
    (0-indexed), shifting the tail of the infinity block down by one."""
    inf0, isop0, _isom0, n = _block_ranges(d)
    order = [0, 1, inf0, isop0]
    order += list(range(inf0 + 1, isop0))
    order += list(range(isop0 + 1, n))
    return order


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
    m = pushforward_b_hat(d)._rows
    n = len(m)
    psi = _sparse_rows(d, _psi(d))
    psi_sq_ok = _sparse_product(psi, psi) == [[(i, 1)] for i in range(n)]

    conj = _sparse_product(_sparse_product(psi, m), psi)  # Psi = Psi^{-1}
    order = _pi_permutation(d)
    new_index = {old: new for new, old in enumerate(order)}
    permuted = [sorted((new_index[j], v) for j, v in conj[old]) for old in order]

    upper_right_zero = all(j < 4 for row in permuted[:4] for j, _ in row)
    lower_right_neg_identity = all(
        [(j, v) for j, v in row if j >= 4] == [(i, -1)]
        for i, row in enumerate(permuted[4:], start=4)
    )
    a_block = BigIntMatrix.from_rows([[dict(row).get(j, 0) for j in range(4)] for row in permuted[:4]])
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
    """Largest root of Phi_d; equals 1 exactly when d = 2.

    For d >= 3 the root is isolated in (2d^2-d-5, 2d^2-d-3) and refined to
    1e-12; a floating-point power iteration on the full pushforward matrix
    must agree to relative 1e-8.  A bracket without a sign change of Phi_d, or
    a disagreeing power iteration, raises ArithmeticError.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    if d == 2:
        return 1.0
    lo, hi = rho_bracket(d)
    try:
        value = bracketed_largest_root(phi(d), lo, hi)
    except NoSignChangeError as exc:
        raise ArithmeticError(
            f"Phi_{d} has no root in the bracket ({lo}, {hi}): {exc}"
        ) from exc
    numeric = power_iteration_radius(pushforward_b_hat(d).matrix)
    if abs(numeric - value) / value > 1e-8:
        raise ArithmeticError(
            f"power iteration {numeric} disagrees with exact root {value}"
        )
    return value


POWER_ITERATIONS = 400


def power_iteration_radius(m: BigIntMatrix) -> float:
    a = np.array(m.to_lists(), dtype=float)
    n = a.shape[0]
    v = np.full(n, 1.0) / math.sqrt(n)
    lam = 0.0
    for _ in range(POWER_ITERATIONS):
        w = a @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
        new_lam = float(v @ (a @ v))
        if abs(new_lam - lam) < 1e-13 * max(1.0, abs(new_lam)):
            lam = new_lam
            break
        lam = new_lam
    return abs(lam)


MAX_SEQUENCE_INDEX = 200


def degree_sequence(d: int, m_max: int) -> list[int]:
    """Model degrees deg_m = (M^m Delta) . J Delta for Delta = C0 + D0.

    This iterates the pushforward matrix, i.e. it is the algebraically
    stable model of degree growth; it matches true degree growth exactly
    when no iterate drops a class into an indeterminacy point.

    The classes {C0}, {D0}, {Einf_j}, {Eiso+-_j} are an equitable partition:
    all rows of b_hat in one class have the same sums over the four classes,
    which is checked on every row (MatrixMismatchError if not).  So M^m Delta
    is class-constant, and its class values step under the 4x4 quotient Q.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if m_max > MAX_SEQUENCE_INDEX:
        raise ValueError(f"m_max capped at {MAX_SEQUENCE_INDEX}")
    cls = [0, 1] + [2] * (2 * d) + [3] * (2 * d * (d - 1))  # the class of each basis index
    q = {}
    for i, row in enumerate(pushforward_b_hat(d)._rows):
        sums = [0] * 4
        for j, v in row:
            sums[cls[j]] += v
        if q.setdefault(cls[i], sums) != sums:
            raise MatrixMismatchError(f"b_hat row {i} breaks the four-class quotient at d = {d}")
    pairing = [0] * 4  # the class sums of J Delta; Delta is 1 at C0 and D0
    for (i, j), v in _intersection_entries(d).items():
        pairing[cls[i]] += v * (j < 2)
    out = []
    v = [1, 1, 0, 0]  # the class values of Delta
    for _ in range(m_max + 1):
        out.append(sum(map(operator.mul, v, pairing)))
        v = [sum(map(operator.mul, q[c], v)) for c in range(4)]
    return out


def _nonzero_rows(m: BigIntMatrix) -> list[list[tuple[int, int]]]:
    """Each row of m as its (column, entry) pairs with a nonzero entry."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in m.to_lists()]


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
