"""Scratch points and singularity confinement on the ellipse.

A degree-d table has 2 d^2 scratch points where one correspondence factor
degenerates.  Blowing one up turns lost information into a chart coordinate:
the double step b^2 through the scratch point converges, and its limit
remembers where the orbit started.
"""

from algbilliards import PlaneCurve, proj_point
from algbilliards.blowup import (
    ExceptionalParam,
    confinement_experiment_infinity_multi,
    enumerate_scratch_points,
    secant_at_infinity_limit,
)

ellipse = PlaneCurve.from_coeffs(2, {(2, 0, 0): 1, (0, 2, 0): 4, (0, 0, 2): -4})

points = enumerate_scratch_points(ellipse)
print(f"scratch census: {len(points)} points (expected 2 d^2 = 8)")
for sp in points:
    print(f"   {sp.kind:16s} basic={sp.basic}")

# the exceptional line over an infinity scratch point is a pencil of lines;
# each member meets the table in d - 1 = 1 affine point
s = next(
    p for p in points
    if p.kind == "infinity"
    and abs(p.phase.c.coords[1] - 0.5j) < 1e-9
    and p.phase.q.q[2].real > 0
)
for value in (1.0, -1.0):
    img = secant_at_infinity_limit(ellipse, ExceptionalParam(s, value)).images[0]
    cx, cy = img.point.c.affine()
    print(f"pencil member at offset {value:+.0f} meets the ellipse at ({cx.real:+.3f}, {cy.real:+.3f})")

# confinement: fire toward the scratch direction from (0, -1); the doubly
# iterated step converges and the limit depends on the start
for start in (proj_point(0, -1, 1), proj_point(0, 1, 1)):
    rep = confinement_experiment_infinity_multi(ellipse, s, [start])
    lim = rep.limits[0][0]
    cx, cy = lim.c.affine()
    print(
        f"start y = {start.affine()[1].real:+.0f}: limit of b^2 lands at "
        f"({cx.real:+.4f}, {cy.real:+.4f}), prediction error {rep.max_prediction_error:.2e}"
    )
