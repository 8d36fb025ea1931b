"""The four-class certificate of ``verify_factorization``: B = b_hat + I is
P R, with P the indicator of the classes {C0}, {D0}, {Einf_j}, {Eiso+-_j}
and R their head rows, so char(b_hat) is (lambda + 1)^(n-4) times the
characteristic polynomial of the 4x4 quotient.  It is checked against the
general (CRT) characteristic-polynomial path and dense matrix powers, on
b_hat and on mutated pushforwards: those that keep B = P R, and those that
break it."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algbilliards import spectral
from algbilliards.cli import main
from algbilliards.numerics import BigIntMatrix, char_poly, exact_rank
from algbilliards.spectral import (
    MatrixMismatchError,
    PushforwardMatrix,
    claimed_factorization,
    degree_sequence,
    divisor_basis,
    intersection_form,
    pushforward_b_hat,
    verify_conjugation,
    verify_factorization,
)


@pytest.mark.parametrize("d", range(2, 13))
def test_general_char_poly_agrees_with_the_rank_4_certificate(d):
    # the CRT Hessenberg path shares no code with the four-class certificate
    chi = char_poly(pushforward_b_hat(d).matrix)
    assert chi == claimed_factorization(d)
    ok, cert = verify_factorization(d)
    assert ok and cert["char_poly"] == list(chi.coeffs)


def _mutate(monkeypatch, d, changes):
    """Make spectral.pushforward_b_hat(d) return b_hat with the {(i, j): value} entries set."""
    rows = pushforward_b_hat(d).matrix.to_lists()
    for (i, j), value in changes.items():
        rows[i][j] = value
    mutated = BigIntMatrix.from_rows(rows)
    monkeypatch.setattr(
        spectral, "pushforward_b_hat", lambda _d: PushforwardMatrix(divisor_basis(d), mutated, "b_hat")
    )
    return mutated


def _plus_identity(m):
    return BigIntMatrix.from_rows(
        [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(m.to_lists())]
    )


def _first_iso(d):
    return divisor_basis(d).index("Eiso+1")


def _error_lines(err):
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_an_entry_off_the_rank_4_pattern_is_a_mismatch(monkeypatch, tmp_path, capsys):
    iso = _first_iso(4)
    mutated = _mutate(monkeypatch, 4, {(iso + 1, iso + 2): 1})
    assert exact_rank(_plus_identity(mutated)) == 5
    with pytest.raises(MatrixMismatchError, match="rank 4"):
        verify_factorization(4)
    out = tmp_path / "spec.json"
    assert main(["spectral", "--d", "4", "--out", str(out)]) == 2
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and "rank 4" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("d", [2, 4, 6])
def test_a_rank_4_perturbation_of_the_quartic_fails_the_certificate(monkeypatch, d):
    mutated = _mutate(monkeypatch, d, {(0, 0): d})  # b_hat[0][0] is d - 1
    assert exact_rank(_plus_identity(mutated)) == 4
    ok, cert = verify_factorization(d)
    assert not ok
    assert cert["char_poly"] == list(char_poly(mutated).coeffs) != cert["claimed_product"]
    assert cert["claimed_product"] == list(claimed_factorization(d).coeffs)


@pytest.mark.parametrize("d", [2, 7, 22])
def test_the_claimed_product_is_the_claimed_factorization(d):
    # a certificate that holds expands (lambda + 1)^(2d^2 - 2) once, for both fields
    ok, cert = verify_factorization(d)
    assert ok and cert["degree"] == 2 * d * d + 2
    assert cert["claimed_product"] == list(claimed_factorization(d).coeffs) == cert["char_poly"]


def test_a_failed_char_poly_certificate_exits_2_and_says_so(monkeypatch, tmp_path, capsys):
    # at d = 2 rho needs no power iteration, so the payload is still written
    _mutate(monkeypatch, 2, {(0, 0): 2})
    out = tmp_path / "spec.json"
    assert main(["spectral", "--d", "2", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["char_poly_verified"] is False
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and "char_poly_verified" in lines[0]


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("flag,offset,value", [
    # Psi maps the first iso column to itself: only the upper-right block moves
    ("upper_right_zero", (0, 1), 1),
    # the sign of a later iso diagonal entry moves the lower-right block
    ("lower_right_neg_identity", (1, 1), 1),
], ids=["upper_right", "lower_right"])
def test_an_off_block_entry_fails_the_conjugation_certificate(monkeypatch, d, flag, offset, value):
    iso = _first_iso(d)
    _mutate(monkeypatch, d, {(iso + offset[0], iso + offset[1]): value})
    ok, cert = verify_conjugation(d)
    assert not ok and cert[flag] is False
    assert cert["a_matches_display"] and cert["chi_a_matches"] and cert["psi_involution"]


@pytest.mark.parametrize("d", [3, 4])
def test_a_row_off_its_class_breaks_the_degree_quotient(monkeypatch, tmp_path, capsys, d):
    # Einf_1 -> -2 D0 - Einf_1: b_hat + I keeps rank 4, but the row no longer
    # equals the other infinity rows, so B is not P R and the 4x4 quotient of
    # both verify_factorization and degree_sequence would be wrong: refused
    inf = divisor_basis(d).index("Einf1")
    mutated = _mutate(monkeypatch, d, {(inf, 1): -2})
    assert exact_rank(_plus_identity(mutated)) == 4
    with pytest.raises(MatrixMismatchError, match="four-class quotient"):
        degree_sequence(d, 5)
    # the mutated row is its class's head, so the first row off it is Einf_2
    with pytest.raises(MatrixMismatchError, match=f"row {inf + 1} of b_hat \\+ I .*four-class quotient"):
        verify_factorization(d)
    out = tmp_path / "spec.json"
    assert main(["spectral", "--d", str(d), "--out", str(out)]) == 2
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and "four-class quotient" in lines[0]
    assert not out.exists()
    # a mutated row after the head is named itself
    _mutate(monkeypatch, d, {(inf + 1, 1): -2})
    with pytest.raises(MatrixMismatchError, match=f"row {inf + 1} of b_hat \\+ I .*four-class quotient"):
        verify_factorization(d)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(2, 5),
    label=st.sampled_from(["C0", "D0", "Einf", "Eiso"]),
    shifts=st.lists(st.tuples(st.integers(0, 10**6), st.integers(-3, 3)), min_size=1, max_size=4),
)
def test_a_class_shifted_alike_keeps_the_four_class_certificate_exact(d, label, shifts):
    # adding one integer vector to every row of a class keeps B = P R, so the
    # certificate's char_poly must be the perturbed b_hat's (by the CRT path,
    # which shares no code with it) and degree_sequence its dense powers
    basis = divisor_basis(d)
    n = basis.rank
    rows = pushforward_b_hat(d).matrix.to_lists()
    changes = {}
    for i in (i for i, name in enumerate(basis.labels) if name.startswith(label)):
        for key, delta in shifts:
            j = key % n
            changes[i, j] = changes.get((i, j), rows[i][j]) + delta
    with pytest.MonkeyPatch.context() as mp:
        mutated = _mutate(mp, d, changes)
        ok, cert = verify_factorization(d)
        seq = degree_sequence(d, 20)
    assert cert["char_poly"] == list(char_poly(mutated).coeffs)
    assert ok == (cert["char_poly"] == cert["claimed_product"])
    m = mutated.to_lists()
    pairing = [row[0] + row[1] for row in intersection_form(d).to_lists()]  # J Delta, Delta = C0 + D0
    v = [1, 1] + [0] * (n - 2)
    dense = []
    for _ in range(21):
        dense.append(sum(a * b for a, b in zip(v, pairing)))
        v = [sum(a * b for a, b in zip(row, v)) for row in m]
    assert seq == dense
