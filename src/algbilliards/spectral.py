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

import functools
import math
from dataclasses import dataclass

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
    n = 2 * d * d + 2
    rows = [[0] * n for _ in range(n)]
    rows[0][1] = rows[1][0] = 1
    for i in range(2, n):
        rows[i][i] = -1
    return BigIntMatrix.from_rows(rows)


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
    basis = divisor_basis(d)
    inf0, isop0, _isom0, n = _block_ranges(d)
    cols = []
    cols.append(_unit(n, 0, d - 1))
    col = [0] * n
    col[0] = 2
    col[1] = d - 1
    for j in range(inf0, isop0):
        col[j] = -1
    cols.append(col)
    for j in range(inf0, isop0):
        col = [0] * n
        col[0] = 1
        col[j] = -1
        cols.append(col)
    for j in range(isop0, n):
        cols.append(_unit(n, j, 1))
    return PushforwardMatrix(basis, _from_cols(cols), "s_hat")


def pushforward_r_hat(d: int) -> PushforwardMatrix:
    """Reflection pushforward: column rules

    C0 -> C0 + d(d-1) D0 - sum_j (Eiso+_j + Eiso-_j),   D0 -> D0,
    Einf_j -> Einf_j,   Eiso+-_j -> D0 - Eiso+-_j.
    """
    basis = divisor_basis(d)
    inf0, isop0, _isom0, n = _block_ranges(d)
    cols = []
    col = [0] * n
    col[0] = 1
    col[1] = d * (d - 1)
    for j in range(isop0, n):
        col[j] = -1
    cols.append(col)
    cols.append(_unit(n, 1, 1))
    for j in range(inf0, isop0):
        cols.append(_unit(n, j, 1))
    for j in range(isop0, n):
        col = [0] * n
        col[1] = 1
        col[j] = -1
        cols.append(col)
    return PushforwardMatrix(basis, _from_cols(cols), "r_hat")


def _display_b_hat(d: int) -> BigIntMatrix:
    """The billiard pushforward built directly from its displayed block rules,
    independent of the matrix product (used as a cross-check)."""
    inf0, isop0, _isom0, n = _block_ranges(d)
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = d - 1
    rows[0][1] = 2
    rows[1][0] = d * (d - 1) ** 2
    rows[1][1] = (2 * d + 1) * (d - 1)
    for j in range(inf0, isop0):
        rows[0][j] = 1
        rows[1][j] = d * (d - 1)
        rows[j][1] = -1
        rows[j][j] = -1
    for j in range(isop0, n):
        rows[1][j] = 1
        rows[j][0] = -(d - 1)
        rows[j][1] = -2
        for k in range(inf0, isop0):
            rows[j][k] = -1
        rows[j][j] = -1
    return BigIntMatrix.from_rows(rows)


@functools.lru_cache(maxsize=1)
def pushforward_b_hat(d: int) -> PushforwardMatrix:
    """Billiard pushforward: the exact product r_hat * s_hat, checked entrywise
    against the independently generated block-rule matrix.

    The last degree's matrix is kept (the result is immutable), so the
    certificates, ``rho`` and ``degree_sequence`` of one degree share a build.
    """
    ms = pushforward_s_hat(d).matrix
    mr = pushforward_r_hat(d).matrix
    product = mr @ ms
    display = _display_b_hat(d)
    if product.entries != display.entries:
        raise MatrixMismatchError(f"product and display disagree at d = {d}")
    return PushforwardMatrix(divisor_basis(d), product, "b_hat")


def _unit(n: int, idx: int, val: int) -> list[int]:
    col = [0] * n
    col[idx] = val
    return col


def _from_cols(cols: list[list[int]]) -> BigIntMatrix:
    n = len(cols)
    return BigIntMatrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])


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
    lam_plus_1 = IntPoly([1, 1])
    return phi(d) * (lam_plus_1 ** (2 * d * d - 2)) * IntPoly([-(d - 1), 1])


def verify_factorization(d: int) -> tuple[bool, dict]:
    """Exact comparison of char(b_hat pushforward) with the claimed product."""
    m = pushforward_b_hat(d).matrix
    chi = char_poly(m)
    product = claimed_factorization(d)
    ok = chi.coeffs == product.coeffs
    certificate = {
        "d": d,
        "char_poly": list(chi.coeffs),
        "claimed_product": list(product.coeffs),
        "degree": chi.degree,
    }
    return ok, certificate


def _psi(d: int) -> BigIntMatrix:
    """Block-diagonal involution: identity on the fiber classes, and on each
    exceptional block the matrix with first row all ones and -1 diagonal below."""
    inf0, isop0, _isom0, n = _block_ranges(d)
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = rows[1][1] = 1
    for start, stop in ((inf0, isop0), (isop0, n)):
        for j in range(start, stop):
            rows[start][j] = 1
        for j in range(start + 1, stop):
            rows[j][j] = -1
    return BigIntMatrix.from_rows(rows)


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
    m = pushforward_b_hat(d).matrix
    n = m.rows
    psi = _psi(d)
    psi_sq_ok = (psi @ psi).entries == BigIntMatrix.identity(n).entries

    conj = psi @ m @ psi  # Psi = Psi^{-1}
    order = _pi_permutation(d)
    permuted = BigIntMatrix.from_rows(
        [[conj[order[i], order[j]] for j in range(n)] for i in range(n)]
    )

    upper_right_zero = all(
        permuted[i, j] == 0 for i in range(4) for j in range(4, n)
    )
    lower_right_neg_identity = all(
        permuted[i, j] == (-1 if i == j else 0)
        for i in range(4, n)
        for j in range(4, n)
    )
    a_block = BigIntMatrix.from_rows(
        [[permuted[i, j] for j in range(4)] for i in range(4)]
    )
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
    """Model degrees deg_m = (M^m Delta) . Delta for Delta = C0 + D0.

    This iterates the pushforward matrix, i.e. it is the algebraically
    stable model of degree growth; it matches true degree growth exactly
    when no iterate drops a class into an indeterminacy point.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if m_max > MAX_SEQUENCE_INDEX:
        raise ValueError(f"m_max capped at {MAX_SEQUENCE_INDEX}")
    m = _nonzero_rows(pushforward_b_hat(d).matrix)
    delta = [1, 1] + [0] * (len(m) - 2)
    pairing = _sparse_matvec(_nonzero_rows(intersection_form(d)), delta)  # J Delta
    out = []
    v = delta
    for _ in range(m_max + 1):
        out.append(sum(a * b for a, b in zip(v, pairing)))
        v = _sparse_matvec(m, v)
    return out


def _nonzero_rows(m: BigIntMatrix) -> list[list[tuple[int, int]]]:
    """Each row of m as its (column, entry) pairs with a nonzero entry."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in m.to_lists()]


def _sparse_matvec(rows: list[list[tuple[int, int]]], v: list[int]) -> list[int]:
    return [sum(a * v[j] for j, a in row) for row in rows]


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
