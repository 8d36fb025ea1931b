"""Tests for the exact spectral module (pushforward matrices, Phi_d, rho_d)."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from algbilliards import numerics, spectral
from algbilliards.cli import main
from algbilliards.numerics import BigIntMatrix, IntPoly, char_poly
from algbilliards.spectral import (
    claimed_factorization,
    degree_sequence,
    divisor_basis,
    intersection_form,
    jordan_structure_d2,
    phi,
    pushforward_b_hat,
    pushforward_r_hat,
    pushforward_s_hat,
    rho,
    rho_bracket,
    verify_conjugation,
    verify_factorization,
)


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_power(base, n):
    out = [1]
    for _ in range(n):
        out = convolve(out, base)
    return out


# ---------------------------------------------------------------------------
# basis and intersection form
# ---------------------------------------------------------------------------


def test_basis_rank():
    for d in (2, 3, 5):
        b = divisor_basis(d)
        assert len(b.labels) == 2 * d * d + 2


@pytest.mark.parametrize("d", range(2, 13))
def test_intersection_form_involution(d):
    j = intersection_form(d)
    n = j.rows
    assert (j @ j).entries == BigIntMatrix.identity(n).entries
    assert j[0, 1] == 1 and j[0, 0] == 0  # C0.D0 = 1, C0^2 = 0
    assert all(j[i, i] == -1 for i in range(2, n))  # exceptional classes


# ---------------------------------------------------------------------------
# the unblown 2x2 model: the (C0, D0) block of each pushforward
# ---------------------------------------------------------------------------


def fiber_block(pushforward):
    m = pushforward.matrix
    return BigIntMatrix.from_rows([[m[0, 0], m[0, 1]], [m[1, 0], m[1, 1]]])


def test_cheap_matrices_d2():
    m_s, m_r, m_b = (fiber_block(f(2)) for f in (pushforward_s_hat, pushforward_r_hat, pushforward_b_hat))
    assert m_s.to_lists() == [[1, 2], [0, 1]]
    assert m_r.to_lists() == [[1, 0], [2, 1]]
    assert m_b.to_lists() == [[1, 2], [2, 5]]
    assert (m_r @ m_s).entries == m_b.entries  # no exceptional class feeds the block


@pytest.mark.parametrize("d", range(2, 10))
def test_cheap_trace_det(d):
    m_b = fiber_block(pushforward_b_hat(d))
    assert m_b[0, 0] + m_b[1, 1] == 2 * d * d - 2
    assert m_b[0, 0] * m_b[1, 1] - m_b[0, 1] * m_b[1, 0] == (d - 1) ** 2


def test_cheap_spectral_radius_d2():
    # eigenvalues of [[1,2],[2,5]] are 3 +- 2 sqrt2
    lo, hi = np.sort(np.linalg.eigvalsh(np.array(fiber_block(pushforward_b_hat(2)).to_lists(), dtype=float)))
    assert abs(hi - (3 + 2 * math.sqrt(2))) < 1e-12
    assert abs(lo - (3 - 2 * math.sqrt(2))) < 1e-12


@pytest.mark.parametrize("d", range(2, 13))
def test_cheap_radius_below_2d2(d):
    # the block's eigenvalues are (d^2 - 1) +- sqrt(d^4 - 3d^2 + 2d), both
    # below 2d^2 exactly when the discriminant is below (d^2 + 1)^2
    m_b = fiber_block(pushforward_b_hat(d))
    half_trace = (m_b[0, 0] + m_b[1, 1]) // 2
    disc = half_trace**2 - (m_b[0, 0] * m_b[1, 1] - m_b[0, 1] * m_b[1, 0])
    assert half_trace == d * d - 1 and disc == d**4 - 3 * d**2 + 2 * d
    assert disc < (2 * d * d - half_trace) ** 2


# ---------------------------------------------------------------------------
# pushforward matrices
# ---------------------------------------------------------------------------


def test_s_hat_infinity_column_d2():
    m = pushforward_s_hat(2).matrix
    col = [m[i, 2] for i in range(10)]
    assert col == [1, 0, -1, 0, 0, 0, 0, 0, 0, 0]


def test_s_hat_isotropic_block_identity_d3():
    m = pushforward_s_hat(3).matrix
    b = divisor_basis(3)
    start = b.index("Eiso+1")
    for i in range(start, b.rank):
        for j in range(start, b.rank):
            assert m[i, j] == (1 if i == j else 0)


def test_r_hat_isotropic_column_d2():
    m = pushforward_r_hat(2).matrix
    b = divisor_basis(2)
    col_idx = b.index("Eiso+1")
    col = [m[i, col_idx] for i in range(10)]
    expected = [0] * 10
    expected[1] = 1
    expected[col_idx] = -1
    assert col == expected


def test_r_hat_upper_left_block():
    for d in (2, 3, 4):
        m = pushforward_r_hat(d).matrix
        assert m[0, 0] == 1 and m[0, 1] == 0
        assert m[1, 0] == d * (d - 1) and m[1, 1] == 1


@pytest.mark.parametrize("d", range(2, 13))
def test_self_adjointness_via_intersection_form(d):
    j = intersection_form(d)
    for pf in (pushforward_s_hat(d), pushforward_r_hat(d)):
        assert (j @ pf.matrix).is_symmetric()


@pytest.mark.parametrize("d", range(2, 8))
def test_b_hat_product_and_display(d):
    m = pushforward_b_hat(d).matrix
    ms = pushforward_s_hat(d).matrix
    mr = pushforward_r_hat(d).matrix
    assert (mr @ ms).entries == m.entries
    assert m[1, 0] == d * (d - 1) ** 2
    assert m[1, 1] == (2 * d + 1) * (d - 1)


def test_b_hat_specific_entries():
    m2 = pushforward_b_hat(2).matrix
    assert m2[1, 0] == 2
    m3 = pushforward_b_hat(3).matrix
    assert m3[1, 1] == 14
    b = divisor_basis(3)
    iso_row = b.index("Eiso+1")
    assert m3[iso_row, 0] == -(3 - 1)
    assert m3[iso_row, 1] == -2


# ---------------------------------------------------------------------------
# Phi_d and the characteristic polynomial
# ---------------------------------------------------------------------------


def test_phi_values():
    assert phi(2).coeffs == (-1, 3, -3, 1)
    assert phi(3).coeffs == (-2, 9, -12, 1)
    assert phi(4).coeffs == (-3, 19, -25, 1)


def test_phi2_is_cube_of_lambda_minus_1():
    assert list(phi(2).coeffs) == poly_power([-1, 1], 3)


def test_char_poly_d2_against_convolution_oracle():
    m = pushforward_b_hat(2).matrix
    chi = char_poly(m)
    expected = convolve(poly_power([1, 1], 6), poly_power([-1, 1], 4))
    assert list(chi.coeffs) == expected


def test_char_poly_d3_against_convolution_oracle():
    m = pushforward_b_hat(3).matrix
    chi = char_poly(m)
    expected = convolve(
        convolve([-2, 9, -12, 1], poly_power([1, 1], 16)), [-2, 1]
    )
    assert list(chi.coeffs) == expected


@pytest.mark.parametrize("d", range(2, 7))
def test_verify_factorization_small(d):
    ok, cert = verify_factorization(d)
    assert ok
    assert cert["degree"] == 2 * d * d + 2


@pytest.mark.parametrize("d", range(2, 13))
def test_coefficient_bound_covers_the_claimed_factorization(d):
    bound = numerics._coefficient_bound(pushforward_b_hat(d).matrix)
    assert bound >= max(abs(c) for c in claimed_factorization(d).coeffs)


def test_prime_batch_at_d12(monkeypatch):
    # the bound is 603 bits here, 25 primes of 25 bits (the coefficients
    # themselves have up to 291 bits)
    calls = []

    def count(a, p):
        calls.append(p)
        return np.zeros(a.shape[0] + 1, dtype=np.int64)

    monkeypatch.setattr(numerics, "_char_poly_mod", count)
    char_poly(pushforward_b_hat(12).matrix)
    assert 0 < len(calls) <= 27


def test_factorization_degree_bookkeeping():
    for d in (2, 3, 5):
        assert claimed_factorization(d).degree == 2 * d * d + 2


# ---------------------------------------------------------------------------
# conjugation certificate
# ---------------------------------------------------------------------------


def test_conjugation_d2_block():
    ok, cert = verify_conjugation(2)
    assert ok, cert
    assert cert["a_block"] == [
        [1, 2, 1, 0],
        [2, 5, 2, 1],
        [0, -4, -1, 0],
        [-4, -8, -4, -1],
    ]
    # chi_A = (lambda - 1)^4
    assert cert["chi_a"] == poly_power([-1, 1], 4)


def test_conjugation_d3_chi_a():
    ok, cert = verify_conjugation(3)
    assert ok
    assert cert["chi_a"] == convolve([-2, 1], [-2, 9, -12, 1])


def test_conjugation_d5_psi_involution():
    ok, cert = verify_conjugation(5)
    assert ok
    assert cert["psi_involution"]


# ---------------------------------------------------------------------------
# rho and degree growth
# ---------------------------------------------------------------------------


def test_rho_d2_exact():
    assert rho(2) == 1.0


def test_rho_d3_bracket():
    r = rho(3)
    assert 11.21 < r < 11.22
    lo, hi = rho_bracket(3)
    assert (lo, hi) == (10, 12)


@pytest.mark.parametrize("d", range(3, 9))
def test_rho_in_bracket_and_below_bound(d):
    r = rho(d)
    lo, hi = rho_bracket(d)
    assert lo < r < hi
    assert r < 2 * d * d - d - 3


def _power_iteration_radius(m):
    """The float reference: power iteration on the dense float copy of a
    pushforward, until its Rayleigh quotient settles to 1e-13 (at most 400
    steps)."""
    nz = m.nonzeros
    a = np.zeros(nz.shape)
    a[nz.row, nz.col] = nz.val
    v = np.full(a.shape[0], 1 / math.sqrt(a.shape[0]))
    lam = 0.0
    for _ in range(400):
        w = a @ v
        v = w / np.linalg.norm(w)
        new_lam = float(v @ (a @ v))
        if abs(new_lam - lam) < 1e-13 * max(1.0, abs(new_lam)):
            return abs(new_lam)
        lam = new_lam
    return abs(lam)


@pytest.mark.parametrize("d", range(3, 23))
def test_rho_power_iteration_agreement(d):
    r = rho(d)
    numeric = _power_iteration_radius(pushforward_b_hat(d))
    assert abs(numeric - r) / r < 1e-8


@pytest.mark.parametrize("d", range(2, 23))
def test_the_certificate_makes_rho_the_spectral_radius(d):
    # rho's dominance argument, in exact integers: chi(b_hat) is certified to
    # be (lambda + 1)^(2d^2 - 2) (lambda - (d - 1)) Phi_d, and Phi_d's other
    # roots are smaller than rho by Vieta.  At d = 2 every eigenvalue is 1 or
    # -1, where power iteration cannot converge: the two moduli tie
    ok, cert = verify_factorization(d)
    assert ok
    p = phi(d)
    if d == 2:
        assert p == IntPoly([-1, 1]) ** 3 and rho(2) == 1.0
        assert cert["char_poly"] == convolve(poly_power([-1, 1], 4), poly_power([1, 1], 6))
        return
    lo, hi = rho_bracket(d)
    assert p.sign_at(Fraction(lo)) < 0 < p.sign_at(Fraction(hi))  # rho in (lo, hi)
    assert -p.coeffs[2] == hi  # r2 + r3 = hi - rho, in (0, 2)
    assert 0 < -p.coeffs[0] < lo  # r2 r3 = (d - 1) / rho, in (0, 1)
    assert max(2, d - 1) < lo  # so |r2|, |r3| < 2 < rho, and d - 1 < rho
    assert lo < rho(d) < hi


class _NoLinalg:
    """numpy, less np.linalg."""

    def __getattr__(self, name):
        if name == "linalg":
            raise AssertionError("spectral reached np.linalg")
        return getattr(np, name)


# sha256 of the repr of (verify_factorization, verify_conjugation,
# degree_sequence to m = 60, rho) at d = 2..22, as the float-checked rho gave them
SPECTRAL_VALUES_SHA256 = "18b8b3be3253a1ee7de8cc2c08a5c7b4c4d39879468dfdd5a0f6e153a4256ec5"


def test_spectral_runs_no_float_linear_algebra(monkeypatch):
    # everything `spectral --d` computes, with np.linalg out of reach
    pushforward_b_hat.cache_clear()
    monkeypatch.setattr(spectral, "np", _NoLinalg())
    values = [(verify_factorization(d), verify_conjugation(d), degree_sequence(d, 60), rho(d))
              for d in range(2, 23)]
    pushforward_b_hat.cache_clear()
    assert hashlib.sha256(repr(values).encode()).hexdigest() == SPECTRAL_VALUES_SHA256


def test_exact_divide_char_poly_d2_by_lambda_plus_1_pow6():
    chi = char_poly(pushforward_b_hat(2).matrix)
    assert list(chi.coeffs) == convolve(poly_power([-1, 1], 4), poly_power([1, 1], 6))


def test_topological_degree_matches_branch_count(ellipse, cubic):
    # lambda_0 = lambda_2 = d - 1 equals the billiard branch mass
    from algbilliards.phase import billiard_step
    from algbilliards.sampling import sample_phase_points

    for curve in (ellipse, cubic):
        x = sample_phase_points(curve, 1, seed=5)[0]
        assert billiard_step(curve, x).total_multiplicity() == curve.degree - 1


def test_degree_sequence_d0_is_2():
    for d in (2, 3, 4):
        assert degree_sequence(d, 0)[0] == 2


def _dense_degrees(d, m_max):
    """(M^m Delta) . J Delta by dense products of the full pushforward matrix."""
    m = pushforward_b_hat(d).matrix.to_lists()
    j = intersection_form(d).to_lists()
    delta = [1, 1] + [0] * (len(m) - 2)
    pairing = [sum(a * b for a, b in zip(row, delta)) for row in j]
    expected = []
    v = delta
    for _ in range(m_max + 1):
        expected.append(sum(a * b for a, b in zip(v, pairing)))
        v = [sum(a * b for a, b in zip(row, v)) for row in m]
    return expected


@pytest.mark.parametrize("d", [*range(2, 7), 8])
def test_degree_sequence_matches_dense_products(d):
    assert degree_sequence(d, 60) == _dense_degrees(d, 60)


def test_degree_sequence_matches_dense_products_to_the_cap():
    assert degree_sequence(3, 200) == _dense_degrees(3, 200)


def test_spectral_builds_b_hat_once_and_no_dense_lattice_matrix(monkeypatch, tmp_path):
    # b_hat stays in its sparse form from the build to every certificate: one
    # block-rule build per command, and the only dense BigIntMatrix is the 4x4
    # block of the conjugation certificate
    pushforward_b_hat.cache_clear()
    builds, sides = [], []
    display = spectral._display_b_hat
    monkeypatch.setattr(spectral, "_display_b_hat", lambda d: builds.append(d) or display(d))
    monkeypatch.setattr(BigIntMatrix, "__post_init__", lambda m: sides.append(max(m.rows, m.cols)))
    assert main(["spectral", "--d", "12", "--out", str(tmp_path / "spec.json")]) == 0
    assert builds == [12] and sides and max(sides) <= 4


def test_degree_sequence_d2_quadratic():
    seq = degree_sequence(2, 40)
    second = [seq[i + 2] - 2 * seq[i + 1] + seq[i] for i in range(len(seq) - 2)]
    # quadratic growth: second differences eventually constant
    assert len(set(second[5:])) == 1
    ratios = [seq[i + 1] / seq[i] for i in range(20, 39)]
    assert all(abs(r - 1) < 0.2 for r in ratios)


def test_degree_sequence_d3_ratio_converges_to_rho():
    seq = degree_sequence(3, 61)
    r3 = rho(3)
    ratio = seq[61] / seq[60]
    assert abs(ratio - r3) / r3 < 1e-6


# ---------------------------------------------------------------------------
# Jordan structure at d = 2
# ---------------------------------------------------------------------------


def test_jordan_structure_d2():
    data = jordan_structure_d2()
    assert data["eigenvalue_1_nullities"] == [2, 3, 4, 4]
    assert data["eigenvalue_minus_1_nullities"] == [6, 6]
    assert data["jordan_partition"] == [3, 1, 1, 1, 1, 1, 1, 1]
