"""A scalar reference for the line rule: one line at a time, in Python.

This is the rule as it stood before ``phase._line_rows`` became its only
implementation: the restriction as a ``ComplexPoly``, the gates in Python on
that one coefficient list, and ``find_roots`` written out with its
closed-form degree 1.  Tests compare every stacked row with it, value,
multiplicity, residual and error text alike.
"""

import math

import numpy as np

from algbilliards.numerics import ComplexPoly, RootCluster, _backward_error, root_rows
from algbilliards.phase import LineInCurveError, PhaseError


def reference_find_roots(p: ComplexPoly) -> list[RootCluster]:
    n = p.degree
    if n < 1:
        raise ValueError("find_roots requires degree >= 1")
    for c in p.coeffs:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("coefficients must be finite")
    lead = p.coeffs[-1]
    monic = [c / lead for c in p.coeffs[:-1]]
    if n == 1:
        return [RootCluster(-monic[0], 1, 0.0)]  # exact on the monic row
    low = np.array([monic])
    values, mult = root_rows(low)
    rows = zip(values[0].tolist(), mult[0].tolist(), _backward_error(low, values)[0].tolist())
    return sorted((RootCluster(*row) for row in rows if row[1]), key=lambda rc: (rc.value.real, rc.value.imag))


def reference_line_roots(poly, d: int, remove: int) -> tuple[list[RootCluster], int]:
    line_scale = max(abs(c) for c in poly)
    if line_scale <= 1e-12:
        raise LineInCurveError("the line lies in the curve")
    coeffs = list(poly) + [0j] * (d + 1 - len(poly))
    gates = (1e-6, 1e-5)[:remove]
    if any(abs(c) > g * line_scale for c, g in zip(coeffs, gates)):
        raise PhaseError(f"the line does not meet the curve {remove} times at the base point")
    body = coeffs[remove:]
    eff = len(body)
    while eff > 0 and abs(body[eff - 1]) <= 1e-9 * line_scale:
        eff -= 1
    roots = reference_find_roots(ComplexPoly(body[:eff])) if eff >= 2 else []
    return roots, (d - remove) - max(eff - 1, 0)


def reference_line_intersections(curve, base, e, remove: int = 0):
    """The line's (clusters, multiplicity at e), or the error it raises."""
    poly = ComplexPoly(list(curve.restrict_to_lines([base], [e])[0]))
    try:
        return reference_line_roots(poly.coeffs, curve.degree, remove)
    except PhaseError as exc:
        return exc
