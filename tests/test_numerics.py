"""Tests for the numerics module.

Expected values are produced by small independent oracles defined here
(bisection on exact signs, cofactor and fraction-free determinants,
convolution products), never by the code paths under test.
"""

import random
from fractions import Fraction

import pytest

from algbilliards import numerics
from algbilliards.numerics import (
    BigIntMatrix,
    ComplexPoly,
    IntPoly,
    NoSignChangeError,
    bracketed_largest_root,
    char_poly,
    exact_rank,
    find_roots,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def bisect_sign_change(coeffs, lo, hi, tol=1e-13):
    """Sign-change bisection on an integer polynomial, independent of IntPoly."""

    def val(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    a, b = Fraction(lo), Fraction(hi)
    sa = val(a)
    assert sa * val(b) < 0
    while float(b - a) > tol:
        mid = (a + b) / 2
        vm = val(mid)
        if vm == 0:
            return float(mid)
        if (vm > 0) == (sa > 0):
            a = mid
        else:
            b = mid
    return float((a + b) / 2)


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def elimination_det(rows):
    """Determinant by fraction-free (Bareiss) elimination on plain lists."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact: every intermediate is a minor of the input
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def assert_char_poly_matches_elimination(rows):
    # det(kI - M) at k = 0..n pins all n + 1 coefficients of a degree-n polynomial
    n = len(rows)
    cp = char_poly(BigIntMatrix.from_rows(rows))
    assert cp.degree == n
    for k in range(n + 1):
        shifted = [[(k if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
        assert cp(k) == elimination_det(shifted)


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# find_roots
# ---------------------------------------------------------------------------


def test_find_roots_quadratic():
    roots = find_roots(ComplexPoly([-1, 0, 1]))  # t^2 - 1
    assert [r.multiplicity for r in roots] == [1, 1]
    values = sorted(r.value.real for r in roots)
    assert abs(values[0] + 1) < 1e-12 and abs(values[1] - 1) < 1e-12
    assert all(r.residual < 1e-8 for r in roots)


def test_find_roots_triple_root():
    # (t - 2)^3 expanded
    roots = find_roots(ComplexPoly([-8, 12, -6, 1]))
    assert len(roots) == 1
    assert roots[0].multiplicity == 3
    assert abs(roots[0].value - 2) < 1e-4
    assert roots[0].residual < 1e-8


def test_find_roots_phi3_largest_root_bracket():
    # largest root of t^3 - 12 t^2 + 9 t - 2, located by the bisection oracle
    oracle = bisect_sign_change([-2, 9, -12, 1], 11, 12)
    assert 11.21 < oracle < 11.22
    roots = find_roots(ComplexPoly([-2, 9, -12, 1]))
    largest = max(roots, key=lambda r: r.value.real)
    assert abs(largest.value - oracle) < 1e-9
    assert 11.21 < largest.value.real < 11.22


def test_find_roots_multiplicities_cover_degree_random():
    rng = random.Random(7)
    for _ in range(25):
        simple = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        double = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        coeffs = [1]
        for r in simple + [double, double]:
            coeffs = convolve(coeffs, [-r, 1])
        clusters = find_roots(ComplexPoly(coeffs))
        assert sum(c.multiplicity for c in clusters) == 5
        for r in simple:
            assert min(abs(c.value - r) for c in clusters) < 1e-7
        near_double = min(clusters, key=lambda c: abs(c.value - double))
        assert abs(near_double.value - double) < 1e-6


def test_find_roots_rejects_constant():
    with pytest.raises(ValueError):
        find_roots(ComplexPoly([3.0]))


# ---------------------------------------------------------------------------
# char_poly
# ---------------------------------------------------------------------------


def test_char_poly_identity():
    m = BigIntMatrix.identity(2)
    assert char_poly(m).coeffs == (1, -2, 1)


def test_char_poly_matches_cofactor_det_at_zero():
    rng = random.Random(11)
    for _ in range(10):
        rows = [[rng.randrange(-9, 10) for _ in range(5)] for _ in range(5)]
        m = BigIntMatrix.from_rows(rows)
        cp = char_poly(m)
        # char poly at 0 is (-1)^n det(M)
        assert cp(0) == (-1) ** 5 * cofactor_det(rows)
        assert cp.coeffs[-1] == 1


@pytest.mark.parametrize("n", [1, 2, 5, 23, 24, 25, 30])
def test_char_poly_matches_elimination_oracle(n):
    rng = random.Random(5 + n)
    # dense, then sparse: zeros make the Hessenberg reduction swap pivots
    for density in (1.0, 0.25):
        rows = [[rng.randrange(-9, 10) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        assert_char_poly_matches_elimination(rows)
    # rank one u v^T with one huge column, then its transpose with one huge row:
    # the column norms set the coefficient bound for the first, the row norms for
    # the second.  The trace lies just above half the first CRT prime, so for
    # n <= 2, where the bound is within a factor 2 of it, one prime too few
    # reconstructs the wrong sign.
    huge = numerics._primes_for_crt(1)[0] // 2 + 1
    u = [huge] + [1] * (n - 1)
    huge_column = [[ui if j == 0 else 0 for j in range(n)] for ui in u]
    assert_char_poly_matches_elimination(huge_column)
    assert_char_poly_matches_elimination([list(col) for col in zip(*huge_column)])


def test_char_poly_entries_beyond_int64():
    assert_char_poly_matches_elimination([[2**70, 1], [3, 4]])
    rng = random.Random(30)
    rows = [[rng.randrange(-4, 5) * 2**62 for _ in range(30)] for _ in range(30)]
    assert max(abs(v) for row in rows for v in row) >= 2**63
    assert_char_poly_matches_elimination(rows)


def test_exact_det_and_rank():
    # det M = (-1)^n char_poly(M)(0), checked against the cofactor oracle
    m = BigIntMatrix.from_rows([[2, 4], [1, 2]])
    assert char_poly(m)(0) == 0
    assert exact_rank(m) == 1
    m2 = BigIntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert -char_poly(m2)(0) == cofactor_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert exact_rank(m2) == 3


# ---------------------------------------------------------------------------
# bracketed_largest_root
# ---------------------------------------------------------------------------


def test_bracketed_root_triple_at_one():
    # (x - 1)^3 expanded has its only root at exactly 1
    r = bracketed_largest_root(IntPoly([-1, 3, -3, 1]), Fraction(1, 2), Fraction(3, 2))
    assert abs(r - 1.0) < 1e-12


def test_bracketed_root_phi3():
    oracle = bisect_sign_change([-2, 9, -12, 1], 10, 12)
    r = bracketed_largest_root(IntPoly([-2, 9, -12, 1]), 10, 12)
    assert abs(r - oracle) < 1e-12
    p = IntPoly([-2, 9, -12, 1])
    dp = p.derivative()
    assert abs(float(p.eval_fraction(Fraction(r)))) / abs(
        float(dp.eval_fraction(Fraction(r)))
    ) < 1e-10


def test_bracketed_root_phi4_interval():
    # x^3 - 25 x^2 + 19 x - 3 on (23, 25)
    r = bracketed_largest_root(IntPoly([-3, 19, -25, 1]), 23, 25)
    assert 23 < r < 25


def test_bracketed_root_rejects_bad_bracket():
    with pytest.raises(NoSignChangeError):
        bracketed_largest_root(IntPoly([-2, 9, -12, 1]), 20, 30)


def test_bracketed_root_rejects_multiple_roots():
    # (x-1)(x-2) has two roots in (0, 3)
    with pytest.raises(ValueError):
        bracketed_largest_root(IntPoly([2, -3, 1]), 0, 3)


# ---------------------------------------------------------------------------
# IntPoly algebra
# ---------------------------------------------------------------------------


def test_intpoly_product_matches_convolution_oracle():
    rng = random.Random(19)
    for _ in range(20):
        a = [rng.randrange(-5, 6) for _ in range(4)]
        b = [rng.randrange(-5, 6) for _ in range(5)]
        if all(v == 0 for v in a):
            a[0] = 1
        if all(v == 0 for v in b):
            b[0] = 1
        assert (IntPoly(a) * IntPoly(b)).coeffs == IntPoly(convolve(a, b)).coeffs


def test_intpoly_pow():
    assert (IntPoly([1, 1]) ** 6).coeffs == (1, 6, 15, 20, 15, 6, 1)
