"""Tests for plane curve geometry: evaluation, tangents, infinity, genericity."""

import cmath
import math
import pathlib
import sys
from fractions import Fraction

import pytest

from algbilliards.curve import (
    ContainsInfinityLineError,
    CurveError,
    DegenerateNewtonError,
    PlaneCurve,
    SingularPointError,
    curve_from_affine,
    curve_from_json,
    curve_point_near,
    curve_to_json,
    direction_distance,
    evaluate,
    genericity_report,
    isotropic_tangency_points,
    on_curve_residual,
    points_at_infinity,
    proj_distance,
    proj_point,
    tangent_at,
    tangent_frame,
)


def ellipse():
    # x^2/4 + y^2 = 1, homogenized and cleared: X0^2 + 4 X1^2 - 4 X2^2
    return PlaneCurve.from_coeffs(2, {(2, 0, 0): 1, (0, 2, 0): 4, (0, 0, 2): -4})


def unit_circle():
    return PlaneCurve.from_coeffs(2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})


def fermat_cubic():
    return PlaneCurve.from_coeffs(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): -1})


sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
from genericity_table import random_curve  # noqa: E402  (the family the table reports)


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------


def test_proj_point_normalization_idempotent():
    p = proj_point(4, 2j, 1)
    assert p.coords[0] == 1  # max-magnitude coordinate scaled to exactly 1
    q = proj_point(*p.coords)
    assert q.coords == p.coords


def test_proj_distance_projective_invariance():
    p = proj_point(1, 2, 3)
    q = proj_point(2j, 4j, 6j)
    assert proj_distance(p, q) < 1e-15


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_on_curve():
    c = ellipse()
    assert abs(evaluate(c, proj_point(2, 0, 1))) < 1e-14


def test_evaluate_off_curve_value():
    c = ellipse()
    # the numeric form is F / 4, 4 its largest coefficient
    assert abs(evaluate(c, proj_point(0, 0, 1)) + 1) < 1e-14


def test_evaluate_point_at_infinity():
    c = ellipse()
    # (2, i, 0): 4 + 4 i^2 = 0
    assert abs(evaluate(c, proj_point(2, 1j, 0))) < 1e-14


# ---------------------------------------------------------------------------
# points at infinity
# ---------------------------------------------------------------------------


def test_points_at_infinity_ellipse():
    pts = points_at_infinity(ellipse())
    assert sum(m for _, m in pts) == 2
    targets = [proj_point(2, 1j, 0), proj_point(2, -1j, 0)]
    for t in targets:
        assert min(proj_distance(p, t) for p, _ in pts) < 1e-9


def test_points_at_infinity_circle_is_isotropic():
    pts = points_at_infinity(unit_circle())
    for p, _ in pts:
        d = min(
            direction_distance((p.coords[0], p.coords[1]), iso)
            for iso in ((1, 1j), (1, -1j))
        )
        assert d < 1e-9


def test_points_at_infinity_fermat_cubic():
    # roots of X0^3 + X1^3 = 0: s = -1, e^{i pi/3}, e^{-i pi/3}
    pts = points_at_infinity(fermat_cubic())
    assert sum(m for _, m in pts) == 3
    expected = [cmath.exp(1j * math.pi * k / 3) for k in (1, 3, 5)]
    for s in expected:
        assert min(proj_distance(p, proj_point(1, s, 0)) for p, _ in pts) < 1e-9


def test_contains_infinity_line_detected():
    # X2 * (X0 + X1 + X2) contains the infinity line
    c = PlaneCurve.from_coeffs(2, {(1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1})
    with pytest.raises(ContainsInfinityLineError):
        points_at_infinity(c)


# ---------------------------------------------------------------------------
# tangents
# ---------------------------------------------------------------------------


def test_tangent_ellipse_top():
    td = tangent_at(ellipse(), proj_point(0, 1, 1))
    assert direction_distance(td.tangent, (1, 0)) < 1e-12
    assert direction_distance(td.normal, (0, 1)) < 1e-12


def test_tangent_ellipse_right():
    td = tangent_at(ellipse(), proj_point(2, 0, 1))
    assert direction_distance(td.tangent, (0, 1)) < 1e-12
    assert direction_distance(td.normal, (-1, 0)) < 1e-12


def test_tangent_at_infinity_equals_point_direction():
    p = proj_point(2, 1j, 0)
    td = tangent_at(ellipse(), p)
    assert direction_distance(td.tangent, (2, 1j)) < 1e-12


def test_tangent_normal_quarter_turn_exact():
    td = tangent_at(ellipse(), proj_point(6 / 5, 4 / 5, 1))
    t0, t1 = td.tangent
    assert td.normal == (-t1, t0)
    # n pairs to zero with t under dx0^2 + dx1^2
    assert abs(td.tangent[0] * td.normal[0] + td.tangent[1] * td.normal[1]) < 1e-15


def test_curve_point_near_stays_on_curve():
    c = ellipse()
    p = proj_point(2 * math.cos(0.7), math.sin(0.7), 1)
    tau, nu = tangent_frame(c, p)
    moved = curve_point_near(c, p.affine(), tau, nu, 0.3 - 0.1j)
    assert on_curve_residual(c, moved) < 1e-14
    assert proj_distance(moved, p) > 0.1


def test_curve_point_near_degenerate_transversal_is_typed():
    # at (2.1, 0) the gradient (4.2, 0) pairs to zero with nu = (0, 1)
    with pytest.raises(DegenerateNewtonError) as info:
        curve_point_near(ellipse(), (2.1, 0.0), (0.0, 1.0), (0.0, 1.0), 0.0)
    assert isinstance(info.value, CurveError)


def test_tangent_rejects_singular_point():
    # pair of lines X0 * X1, singular at (0, 0, 1)
    c = PlaneCurve.from_coeffs(2, {(1, 1, 0): 1})
    with pytest.raises(SingularPointError):
        tangent_at(c, proj_point(0, 0, 1))


# ---------------------------------------------------------------------------
# isotropic tangencies
# ---------------------------------------------------------------------------


def test_isotropic_tangencies_ellipse_plus():
    pts = isotropic_tangency_points(ellipse(), +1)
    assert sum(m for _, m in pts) == 2
    s3 = math.sqrt(3)
    # derived by solving x/2 + 2 i y = 0 against the ellipse: -3 y^2 = 1
    expected = [proj_point(4 / s3, 1j / s3, 1), proj_point(-4 / s3, -1j / s3, 1)]
    for e in expected:
        assert min(proj_distance(p, e) for p, _ in pts) < 1e-9
    for p, _ in pts:
        assert on_curve_residual(ellipse(), p) < 1e-8
        td = tangent_at(ellipse(), p)
        assert direction_distance(td.tangent, (1, 1j)) < 1e-6


def test_isotropic_tangencies_conjugate_symmetry():
    plus = isotropic_tangency_points(ellipse(), +1)
    minus = isotropic_tangency_points(ellipse(), -1)
    assert len(plus) == len(minus)
    for p, _ in plus:
        conj = p.conjugate()
        assert min(proj_distance(conj, q) for q, _ in minus) < 1e-8


def test_isotropic_tangencies_cubic_count():
    pts = isotropic_tangency_points(fermat_cubic(), +1)
    assert sum(m for _, m in pts) == 6


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------


def test_genericity_ellipse_all_true():
    rep = genericity_report(ellipse())
    assert rep.all_ok(), rep.diagnostics


def test_genericity_circle_fails_isotropic_infinity():
    rep = genericity_report(unit_circle())
    assert not rep.non_isotropic_infinity_tangents
    assert not rep.all_ok()


def test_genericity_line_pair_not_smooth():
    c = PlaneCurve.from_coeffs(2, {(1, 1, 0): 1})
    rep = genericity_report(c)
    assert not rep.smooth


def test_genericity_infinity_line_component_noted_once():
    # X2 * (X0 + X1 + X2) contains the line at infinity
    c = PlaneCurve.from_coeffs(2, {(1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1})
    rep = genericity_report(c)
    assert not rep.smooth and not rep.distinct_infinity_points
    assert rep.diagnostics.count("curve contains the line at infinity") == 1


def test_genericity_isotropic_line_factor_flagged():
    # (X1 - i X0 - X2) * (X0 + 2 X1 + 3 X2) contains an isotropic line
    terms = {}

    def add(e, c):
        terms[e] = terms.get(e, 0j) + c

    line1 = {(1, 0, 0): -1j, (0, 1, 0): 1, (0, 0, 1): -1}
    line2 = {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3}
    for e1, c1 in line1.items():
        for e2, c2 in line2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            add(e, c1 * c2)
    coeffs = {e: (float(c.real), float(c.imag)) for e, c in terms.items()}
    c = PlaneCurve.from_coeffs(2, coeffs)
    rep = genericity_report(c)
    assert not rep.irreducible_heuristic


def test_genericity_circle_diagnostics():
    # both circular points lie on the circle, so no affine isotropic tangency exists
    assert genericity_report(unit_circle()).diagnostics == (
        "infinity point ((1+0j), -1j, 0j) is an isotropic direction",
        "infinity point ((1+0j), 1j, 0j) is an isotropic direction",
        "isotropic tangency count 0 != d(d-1) = 2 for sign +1",
        "isotropic tangency count 0 != d(d-1) = 2 for sign -1",
    )


@pytest.mark.parametrize("coeffs", [
    pytest.param({(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}, id="node"),  # y^2 = x^3 + x^2
    pytest.param({(0, 2, 1): 1, (3, 0, 0): -1}, id="cusp"),  # y^2 = x^3
])
def test_genericity_singular_cubic_names_its_singular_point(coeffs):
    rep = genericity_report(PlaneCurve.from_coeffs(3, coeffs))
    notes = [n for n in rep.diagnostics if n.startswith("singular affine point near (")]
    assert not rep.smooth and len(notes) == 1
    # the singular point is the origin, where each isotropic system has a multiple root
    x, y = (complex(v) for v in notes[0][len("singular affine point near ("):-1].split(", "))
    assert abs(x) < 1e-6 and abs(y) < 1e-6
    for sign in (1, -1):
        assert max(m for _, m in rep.isotropic_points[sign]) >= 2


@pytest.mark.parametrize("d", [6, 7, 8])
def test_genericity_of_random_integer_curves(d):
    # coefficients uniform in -5..5 with 0 -> 1 are generic; the resultant
    # elimination lost a tangency on one of each eight
    for seed in range(8):
        rep = genericity_report(random_curve(d, seed))
        assert rep.all_ok(), (seed, rep.diagnostics)
        assert all(sum(m for _, m in rep.isotropic_points[s]) == d * (d - 1) for s in (1, -1))


def test_genericity_double_line_is_not_irreducible():
    # (X0 + 2 X1 + 3 X2)^2 divides F twice, so both isotropic systems degenerate
    line = {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3}
    terms = {}
    for e1, c1 in line.items():
        for e2, c2 in line.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    rep = genericity_report(PlaneCurve.from_coeffs(2, terms))
    assert not rep.irreducible_heuristic and not rep.all_ok()


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def test_json_roundtrip():
    c = ellipse()
    c2 = curve_from_json(curve_to_json(c))
    assert c2.degree == 2
    assert c2.coeffs == c.coeffs


def test_json_rejects_unknown_fields():
    text = '{"degree": 2, "coeffs": [], "extra": 1}'
    with pytest.raises(CurveError):
        curve_from_json(text)
    text = '{"degree": 2, "coeffs": [{"i": 2, "j": 0, "k": 0, "re": "1", "bogus": 2}]}'
    with pytest.raises(CurveError):
        curve_from_json(text)


def test_json_exact_rationals():
    text = (
        '{"degree": 2, "coeffs": ['
        '{"i": 2, "j": 0, "k": 0, "re": "1/4"},'
        '{"i": 0, "j": 2, "k": 0, "re": "1"},'
        '{"i": 0, "j": 0, "k": 2, "re": "-1"}]}'
    )
    c = curve_from_json(text)
    assert c.coeffs[(2, 0, 0)] == (Fraction(1, 4), Fraction(0))


def test_curve_from_affine_matches_manual_homogenization():
    c = curve_from_affine(2, {(2, 0): (Fraction(1, 4), 0), (0, 2): 1, (0, 0): -1})
    assert abs(evaluate(c, proj_point(2, 0, 1))) < 1e-14
    assert abs(evaluate(c, proj_point(0, 1, 1))) < 1e-14


def test_degree_exponent_validation():
    with pytest.raises(CurveError):
        PlaneCurve.from_coeffs(2, {(1, 0, 0): 1})
