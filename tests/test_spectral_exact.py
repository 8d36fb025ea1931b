"""The sparse exact side of ``spectral``: its output pinned byte for byte,
and its two kernels (integer-Horner evaluation and the int64 sparse product)
checked against Fraction and dense Python-int oracles."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algbilliards import numerics, spectral
from algbilliards.cli import main
from algbilliards.numerics import BigIntMatrix, IntPoly
from algbilliards.spectral import PushforwardMatrix, divisor_basis

# spectral --d N at the default --m-max: repr(rho), and the sha256 of the
# payload without ``meta`` as the CLI writes it (indented, key-sorted JSON)
PINNED = {
    2: ("1.0", "ca732d862fbd76f36ac15834c63d29ee2e08a1cb55f003cbebba37e0293273b8"),
    3: ("11.213286855295408", "33435feb3f16d798d293fb25e7597aa8fd9a0136c0ae242ebd8f66ced9d521c9"),
    4: ("24.220659589015888", "92b849d4c619179ea9274908724a909e92a129251ab11d736c7e94979f410664"),
    5: ("41.20141292210073", "576fa39c67b209ea1070b10edd8a4c9287c76139da7bbbf78ed132023d707fc1"),
    6: ("62.18110836124777", "574ffb649623f5e1716b90bcff977df7b6619656a675f1a2b25578fdee46a7aa"),
    7: ("87.16328111167653", "05b07034eb9cd71ce8c1bb6efd1af056ec31201f9d82117bb3b00a9ad9c292df"),
    8: ("116.14815927548224", "935d4ff65be1aa874a0b35273a2000ece34e7e8d9bcf559c5d94302d60f102f2"),
    9: ("149.13537376002301", "1946d2f4ee4644f7bf356f4bb340bcec28dbd481fa5ecac9845a0186aaf1e73f"),
    10: ("186.12450191353153", "a256bf678a5529a11c55750eab1a222e34eac9c0669b7ee93f9e3f4cc9462148"),
    11: ("227.11518037170006", "09394b15a611579a9200eb6cfd198ff541dc6231372031335622d96143e41996"),
    12: ("272.10711790041245", "86998026d4d10d17983a2bd53abf35e750feee4ca61d96b67aec085565902197"),
    16: ("492.08355092030973", "3c495e86ea40ffc47ddbb76dfe1a1bb01f774117929c53c5cd123ba314900be6"),
    22: ("942.062718765001", "1e909b90cbc8d924ecd97081d9f9cc1ed5b6ec1f5340e2eb63b1707dcc5146bc"),
}


@pytest.mark.parametrize("d", sorted(PINNED))
def test_spectral_output_is_pinned(tmp_path, d):
    out = tmp_path / "spec.json"
    assert main(["spectral", "--d", str(d), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    del payload["meta"]
    digest = hashlib.sha256(json.dumps(payload, indent=2, sort_keys=True).encode()).hexdigest()
    assert (repr(payload["rho"]), digest) == PINNED[d]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    coeffs=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=9),
    num=st.integers(-(2**60), 2**60),
    den=st.integers(1, 2**60),
)
def test_integer_horner_equals_fraction_evaluation(coeffs, num, den):
    p, x = IntPoly(coeffs), Fraction(num, den)
    scaled = numerics._scaled_value(p, num, den)
    exact = p.eval_fraction(x)
    assert (scaled > 0) - (scaled < 0) == p.sign_at(x)
    assert Fraction(scaled, den**p.degree) == exact
    # one correctly rounded integer division, as float(Fraction) is
    assert scaled / den**p.degree == float(exact)


@st.composite
def sparse(draw, rows, cols, bound=2**20):
    """A matrix from summed (row, col, value) triples, positions may repeat:
    its one sparse form and its dense Python-int lists."""
    triples = draw(st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), st.integers(-bound, bound)),
        max_size=2 * rows * cols,
    ))
    dense = [[0] * cols for _ in range(rows)]
    for i, j, v in triples:
        dense[i][j] += v
    arrays = (np.array([t[k] for t in triples], dtype=np.int64) for k in range(3))
    return spectral._nonzeros((rows, cols), [tuple(arrays)]), dense


def _is_normal(m):
    key = m.row * m.shape[1] + m.col
    return bool(np.all(np.diff(key) > 0) and np.all(m.val != 0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sparse_product_equals_the_dense_python_int_product(data):
    n, k, m = (data.draw(st.integers(1, 7)) for _ in range(3))
    a, a_dense = data.draw(sparse(n, k))
    b, b_dense = data.draw(sparse(k, m))
    assert _is_normal(a) and spectral._dense(a).to_lists() == a_dense
    product = spectral._sparse_product(a, b)
    assert _is_normal(product) and product.shape == (n, m)
    expected = [[sum(row[t] * b_dense[t][j] for t in range(k)) for j in range(m)] for row in a_dense]
    assert spectral._dense(product).to_lists() == expected


def _diagonal(values):
    index = np.arange(len(values))
    return spectral._nonzeros((len(values),) * 2, [(index, index, np.array(values, dtype=np.int64))])


def test_the_product_bound_raises_before_int64_can_overflow():
    # 2 * 2**31 * 2**31 = 2**63: a sum of two such products would not fit
    big = _diagonal([-(2**31), 2**31])
    with pytest.raises(ArithmeticError, match=r"2\*\*62"):
        spectral._sparse_product(big, big)
    with pytest.raises(ArithmeticError, match=r"2\*\*62"):
        spectral._sparse_product(_diagonal([-(2**63), 1]), _diagonal([1, 1]))
    # just below the bound, 2 * 2**30 * 2**30 = 2**61, every sum is exact
    first = np.array([0, 0])
    a = spectral._nonzeros((2, 2), [(first, np.array([0, 1]), 2**30)])
    b = spectral._nonzeros((2, 2), [(np.array([0, 1]), first, 2**30)])
    assert spectral._dense(spectral._sparse_product(a, b)).to_lists() == [[2**61, 0], [0, 0]]


@pytest.mark.parametrize("entry,refused", [(2**62 - 1, False), (-(2**62), True), (2**70, True)])
def test_a_dense_entry_beyond_the_sparse_range_is_refused(entry, refused):
    # below 2**62, b_hat + I and every product bound stay inside int64
    entries = [0] * 100
    entries[11] = entry
    dense = BigIntMatrix(10, 10, tuple(entries))
    if refused:
        with pytest.raises(ArithmeticError, match=r"2\*\*62"):
            PushforwardMatrix(divisor_basis(2), dense, "b_hat")
    else:
        assert PushforwardMatrix(divisor_basis(2), dense, "b_hat").nonzeros.val.tolist() == [entry]
