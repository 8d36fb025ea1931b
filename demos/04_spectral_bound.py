"""The exact degree-growth bound rho_d.

The pushforward of the billiard correspondence on the blown-up phase space
is an integer matrix of size 2 d^2 + 2 whose characteristic polynomial
collapses to a cubic factor Phi_d times trivial pieces.  The largest root
rho_d of Phi_d bounds the exponential growth rate of iterated degrees, and
the model degree sequence visibly converges to it.
"""

from algbilliards.spectral import (
    degree_sequence,
    phi,
    rho,
    rho_bracket,
    verify_conjugation,
    verify_factorization,
)

print("d   rank   Phi_d coefficients (ascending)               rho_d        bracket")
for d in range(2, 9):
    ok_fact, _ = verify_factorization(d)
    ok_conj, _ = verify_conjugation(d)
    assert ok_fact and ok_conj
    r = rho(d)
    print(
        f"{d}   {2*d*d+2:4d}   {str(list(phi(d).coeffs)):42s}  {r:10.6f}   {rho_bracket(d)}"
    )

print("\nmodel degree sequence for d = 3 (exact integers):")
seq = degree_sequence(3, 60)
print("  first terms:", seq[:6])
print("  ratio d_61/d_60 =", degree_sequence(3, 61)[61] / seq[60])
print("  rho_3          =", rho(3))

print("\nfor d = 2 growth is quadratic, not exponential:")
seq2 = degree_sequence(2, 12)
print("  sequence:", seq2)
print("  second differences:", [seq2[i + 2] - 2 * seq2[i + 1] + seq2[i] for i in range(10)])
