"""Regenerate bench/spectral_reference.json, the exact reference for `spectral`.

    python3 bench/make_reference.py

Needs sympy, which is not a runtime dependency of algbilliards; the benchmark
itself only reads the committed JSON.  Nothing here calls ``char_poly``: the
reference is derived from the paper's closed form

    char(b_hat) = Phi_d(x) (x + 1)^(2d^2 - 2) (x - (d - 1)).

* ``phi_sha256`` digests the coefficients of the cubic factor Phi_d, read off
  the sympy expansion of the closed form divided by its linear factors.
* ``rho`` is the largest real root of that Phi_d to 30 significant digits.
* ``degree_sequence_sha256`` digests deg_m = (M^m Delta) . Delta for
  m = 0..M_MAX.  The closed form fixes the sequence's recurrence: conjugation
  makes b_hat block triangular with a 4x4 block of characteristic polynomial
  (x - (d - 1)) Phi_d, which has no root at -1, and a -identity block, so the
  eigenvalue -1 is semisimple and every deg_m satisfies the order-5 recurrence
  R_d(x) = (x - (d - 1)) Phi_d(x) (x + 1).  Only the five seed terms
  deg_0..deg_4 come from the library's pushforward matrix (four plain integer
  matrix-vector products); the other terms come from R_d alone.
* ``closed_form_sha256`` digests the expanded closed form itself; the
  benchmark's tests compare ``char_poly`` against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import sympy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from bench_checks import REFERENCE_PATH, exact_digest  # noqa: E402

DEGREES = range(2, 13)
M_MAX = 60  # the `spectral --m-max` default
X = sympy.Symbol("x")


def phi_expr(d: int):
    return X**3 - (2 * d * d - d - 3) * X**2 + (2 * d * d - 4 * d + 3) * X - (d - 1)


def ascending(expr) -> list[int]:
    return [int(c) for c in reversed(sympy.Poly(expr, X).all_coeffs())]


def closed_form(d: int):
    return sympy.expand(phi_expr(d) * (X + 1) ** (2 * d * d - 2) * (X - (d - 1)))


def degree_sequence_from_closed_form(d: int) -> list[int]:
    from algbilliards.spectral import pushforward_b_hat

    rows = pushforward_b_hat(d).matrix.to_lists()
    v = [1, 1] + [0] * (len(rows) - 2)  # Delta = C0 + D0
    seq = []
    for _ in range(5):
        seq.append(v[0] + v[1])  # Delta pairs to C0 + D0 under the hyperbolic form
        v = [sum(a * b for a, b in zip(row, v)) for row in rows]
    recurrence = ascending(sympy.expand(phi_expr(d) * (X + 1) * (X - (d - 1))))
    while len(seq) <= M_MAX:
        seq.append(-sum(c * s for c, s in zip(recurrence[:5], seq[-5:])))
    return seq


def reference_for(d: int) -> dict:
    closed = closed_form(d)
    linear = (X + 1) ** (2 * d * d - 2) * (X - (d - 1))
    quotient, remainder = sympy.div(closed, sympy.expand(linear), X)
    if remainder != 0:
        raise ArithmeticError(f"closed form does not factor at d = {d}")
    roots = sympy.Poly(quotient, X).real_roots()
    rho = sympy.N(max(roots), 30)
    return {
        "phi_sha256": exact_digest(ascending(quotient)),
        "rho": str(rho),
        "degree_sequence_sha256": exact_digest(degree_sequence_from_closed_form(d)),
        "closed_form_sha256": exact_digest(ascending(closed)),
        "m_max": M_MAX,
    }


def main() -> int:
    reference = {str(d): reference_for(d) for d in DEGREES}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH.name} for d = {DEGREES.start}..{DEGREES.stop - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
