"""The invariant 2-form dx0 ^ dq0 + dx1 ^ dq1, checked numerically.

Each branch of the secant, reflection, and billiard correspondences
preserves the form: the density carried to the image times the Jacobian
determinant of the branch map reproduces the density at the source.  The
finite-difference residual shrinks at second order in the step size.
"""

from algbilliards import PlaneCurve
from algbilliards.sampling import sample_phase_points
from algbilliards.symplectic import check_invariance

cubic = PlaneCurve.from_coeffs(
    3, {(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1, (1, 0, 2): 1, (0, 1, 2): 1}
)

states = sample_phase_points(cubic, 5, seed=21)
print("op          branch   residual(h)   residual(h/2)   observed order")
for x in states:
    # every branch of every operation at x: reflect, then secant and billiard
    for (op, b), r in check_invariance(cubic, x, h=1e-4).items():
        order = f"{r.order_estimate:5.2f}" if r.residual_h2 > 1e-8 else " (below noise)"
        print(f"{op:10s}  {b}       {r.residual_h:10.3e}   {r.residual_h2:10.3e}   {order}")
