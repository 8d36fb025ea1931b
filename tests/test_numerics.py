"""Tests for the numerics module.

Expected values are produced by small independent oracles defined here
(bisection on exact signs, cofactor and fraction-free determinants,
convolution products), never by the code paths under test.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    root_rows,
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
    # each planted set runs once more with a root of modulus 1e3..1e6 (a
    # direction near an asymptote), which must not widen the others' radius
    rng = random.Random(7)
    for _ in range(25):
        simple = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        double = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        huge = cmath.rect(10 ** rng.uniform(3, 6), rng.uniform(-math.pi, math.pi))
        for planted in (simple, simple + [huge]):
            coeffs = [1]
            for r in planted + [double, double]:
                coeffs = convolve(coeffs, [-r, 1])
            clusters = find_roots(ComplexPoly(coeffs))
            assert sum(c.multiplicity for c in clusters) == len(planted) + 2
            for r in planted:
                nearest = min(clusters, key=lambda c: abs(c.value - r))
                assert nearest.multiplicity == 1
                assert abs(nearest.value - r) < (1e-7 * abs(r) if r is huge else 1e-7)
            near_double = min(clusters, key=lambda c: abs(c.value - double))
            assert abs(near_double.value - double) < 1e-6


def test_find_roots_keeps_close_roots_beside_a_huge_one():
    # roots of a quartic secant line near an asymptote direction: the huge
    # root must not set the radius for the two small roots, 0.35 apart, or
    # they merge into one double root 1.125+0.505i with residual 1.3e4
    planted = [1.29 + 0.57j, 0.96 + 0.44j, 1.0e5 - 4.1e5j]
    coeffs = [1]
    for r in planted:
        coeffs = convolve(coeffs, [-r, 1])
    clusters = find_roots(ComplexPoly(coeffs))
    assert [c.multiplicity for c in clusters] == [1, 1, 1]
    for r in planted:
        assert min(abs(c.value - r) for c in clusters) < 1e-9 * abs(r)


@pytest.mark.parametrize("k", [-40, -3, -1, 0, 1, 3, 40])
def test_complex_poly_trims_relative_to_its_scale(k):
    # the top coefficient sits between 1e-12 of the largest one (0.5) and
    # 1e-12 itself: c p keeps p's degree and its coefficients times c
    c = 2.0**k
    p = [0.5 - 0.25j, 0.125, 0.9e-12 + 0.1e-12j]
    assert ComplexPoly(p).degree == 2
    assert ComplexPoly([c * z for z in p]).coeffs == tuple(c * z for z in ComplexPoly(p).coeffs)
    assert ComplexPoly(p[:2] + [0.4e-12]).degree == 1  # below 1e-12 * 0.5


def test_find_roots_rejects_constant():
    with pytest.raises(ValueError):
        find_roots(ComplexPoly([3.0]))


@pytest.mark.parametrize("c, k", [(1e-15, 0), (1e-12, -20)], ids=["tiny", "scaled"])
def test_find_roots_keeps_close_simple_roots_near_zero(c, k):
    # t^2 - c 2^(2k): roots +-sqrt(c) 2^k, which no scale of 1 may pull into one double root
    r = math.sqrt(c) * 2.0**k
    roots = find_roots(ComplexPoly([-c * 4.0**k, 0, 1]))
    assert [rc.multiplicity for rc in roots] == [1, 1]
    for rc, want in zip(roots, (-r, r)):
        assert abs(rc.value - want) <= 1e-12 * r
        assert rc.residual < 1e-15


def test_root_rows_are_scale_equivariant():
    # planted roots of multiplicity 1, 2 and 3; p(t / 2^k) 2^(6k) has every root
    # times 2^k, exactly in its coefficients.  The monic rows go to root_rows,
    # since ComplexPoly would trim the lead of a row whose roots are 2^8 larger.
    coeffs = [1]
    for r, m in ((1.3 + 0.4j, 1), (-0.7 + 0.9j, 2), (0.5 - 1.1j, 3)):
        for _ in range(m):
            coeffs = convolve(coeffs, [-r, 1])
    low = np.array([coeffs[:-1]])
    values, mult = root_rows(low)
    assert sorted(mult[0].tolist()) == [0, 0, 0, 1, 2, 3]
    for k in range(-40, 41, 8):
        scaled_values, scaled_mult = root_rows(low * 2.0 ** (k * np.arange(6, 0, -1)))
        assert scaled_mult.tolist() == mult.tolist()
        want = values * 2.0**k
        assert (np.abs(scaled_values - want) <= 1e-12 * np.abs(want)).all()


PAIR_GAP = 1e-6


@st.composite
def planted_rows(draw):
    """A stack of 1..5 monic rows of one degree n = 2..6, as (low
    coefficients (N, n), each row's planted roots, each row's planted
    distinct pairs): every row is
    filled with simple roots, double and triple roots and pairs PAIR_GAP
    apart, all in the square of half-width 1/4, where most pairs stay
    distinct above the rounding noise of a double root."""
    n = draw(st.integers(2, 6))
    coord = st.floats(-0.25, 0.25, allow_nan=False)
    rows, planted_roots, pairs = [], [], []
    for _ in range(draw(st.integers(1, 5))):
        roots, planted = [], []
        while len(roots) < n:
            z = complex(draw(coord), draw(coord))
            kind = draw(st.sampled_from([m for m in (1, 2, 3, "pair") if (2 if m == "pair" else m) <= n - len(roots)]))
            if kind == "pair":
                w = z + PAIR_GAP * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
                roots += [z, w]
                planted.append((z, w))
            else:
                roots += [z] * kind
        coeffs = [1]
        for r in roots:
            coeffs = convolve(coeffs, [-r, 1])
        rows.append(coeffs[:-1])
        planted_roots.append(roots)
        pairs.append(planted)
    return np.array(rows, dtype=complex), planted_roots, pairs


def double_root_error(low, roots, a, b):
    """The backward error at the midpoint of a and b that a merge of the
    pair would have to pass: |p| from the planted factors, over sum |a_k| |z|^k."""
    mid = (a + b) / 2
    value = math.prod(abs(mid - r) for r in roots)
    return value / sum(abs(c) * abs(mid) ** k for k, c in enumerate([*low, 1]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(planted_rows())
def test_root_rows_isolate_each_row(case):
    """Each row of a stack has bitwise its one-row roots and multiplicities,
    find_roots' clusters on that row, counts summing to n, and no planted
    distinct pair merged while its double-root backward error is above
    rounding noise."""
    stack, roots, pairs = case
    n = stack.shape[1]
    values, mult = root_rows(stack)
    noise = 64.0 * (n + 1) * np.finfo(float).eps
    for i, low in enumerate(stack):
        one_values, one_mult = root_rows(stack[i : i + 1])
        assert values[i].tobytes() == one_values[0].tobytes()
        assert mult[i].tolist() == one_mult[0].tolist()
        assert mult[i].sum() == n
        clusters = find_roots(ComplexPoly([*low.tolist(), 1]))
        kept = sorted(((v, m) for v, m in zip(values[i].tolist(), mult[i].tolist()) if m),
                      key=lambda vm: (vm[0].real, vm[0].imag))
        assert [(rc.value, rc.multiplicity) for rc in clusters] == kept
        for a, b in pairs[i]:
            if double_root_error(low, roots[i], a, b) > 4 * noise:
                near = [min(clusters, key=lambda rc: abs(rc.value - z)) for z in (a, b)]
                assert near[0] is not near[1] and near[0].multiplicity == near[1].multiplicity == 1


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


def test_big_int_matmul_beyond_int64_matches_a_triple_loop():
    # entries near 2^40 put the product bound 3 * 2^80 past the int64 path's 2^62
    rng = random.Random(40)
    a, b = ([[rng.choice((-1, 1)) * (2**40 - rng.randrange(1000)) for _ in range(3)] for _ in range(3)]
            for _ in range(2))
    product = BigIntMatrix.from_rows(a) @ BigIntMatrix.from_rows(b)
    assert product.max_abs() >= 2**63
    assert product.to_lists() == [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
                                  for i in range(3)]


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
