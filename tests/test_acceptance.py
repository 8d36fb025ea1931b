"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

from algbilliards.blowup import (
    confinement_experiment_infinity_multi,
    confinement_experiment_isotropic,
    enumerate_scratch_points,
    infinity_experiment_starts,
)
from algbilliards.curve import on_curve_residual, proj_point
from algbilliards.phase import (
    PhasePoint,
    billiard_step,
    conic_residual,
    direction_point,
    orbit_tree,
    phase_distance,
    reflect,
    secant,
)
from algbilliards.sampling import sample_curve_points, sample_phase_points
from algbilliards.spectral import (
    degree_sequence,
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
from algbilliards.symplectic import check_invariance


def report(criterion: str, ok: bool, detail: str, started: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status}: {detail} ({time.time() - started:.2f}s)")
    assert ok, f"{criterion}: {detail}"


# 1 ------------------------------------------------------------------------


def test_criterion_01_char_poly_factorization():
    t0 = time.time()
    ok = True
    for d in range(2, 13):
        good, _cert = verify_factorization(d)
        ok = ok and good
    report("criterion 1", ok, "char poly = Phi_d (x+1)^(2d^2-2) (x-(d-1)) for d=2..12", t0)


# 2 ------------------------------------------------------------------------


def test_criterion_02_rho_brackets():
    t0 = time.time()
    ok = rho(2) == 1.0
    r3 = rho(3)
    ok = ok and 11.21 < r3 < 11.22
    for d in range(3, 13):
        lo, hi = rho_bracket(d)
        r = rho(d)
        ok = ok and lo < r < hi
        p = phi(d)
        from fractions import Fraction

        dp = p.derivative()
        ok = ok and abs(float(p.eval_fraction(Fraction(r)))) / abs(
            float(dp.eval_fraction(Fraction(r)))
        ) < 1e-10
    report(
        "criterion 2",
        ok,
        f"rho_2 = 1 exactly, rho_3 = {r3:.6f} in (11.21, 11.22), brackets hold d=3..12",
        t0,
    )


# 3 ------------------------------------------------------------------------


def test_criterion_03_product_identity_and_display():
    t0 = time.time()
    ok = True
    for d in range(2, 13):
        ms = pushforward_s_hat(d).matrix
        mr = pushforward_r_hat(d).matrix
        mb = pushforward_b_hat(d).matrix  # raises on display mismatch
        ok = ok and (mr @ ms).entries == mb.entries
    report("criterion 3", ok, "b_hat = r_hat s_hat and display match, d=2..12", t0)


# 4 ------------------------------------------------------------------------


def test_criterion_04_conjugation_certificates():
    t0 = time.time()
    ok = True
    for d in range(2, 13):
        good, cert = verify_conjugation(d)
        ok = ok and good and cert["psi_involution"] and cert["lower_right_neg_identity"]
    report("criterion 4", ok, "Psi^2 = I, block form, chi_A = (x-(d-1)) Phi_d, d=2..12", t0)


# 5 ------------------------------------------------------------------------


def test_criterion_05_jordan_d2():
    t0 = time.time()
    data = jordan_structure_d2()
    ok = (
        data["eigenvalue_1_nullities"] == [2, 3, 4, 4]
        and data["eigenvalue_minus_1_nullities"] == [6, 6]
        and data["jordan_partition"] == [3, 1, 1, 1, 1, 1, 1, 1]
    )
    report("criterion 5", ok, f"partition {data['jordan_partition']}", t0)


# 6 ------------------------------------------------------------------------


def test_criterion_06_degree_sequence():
    t0 = time.time()
    seq3 = degree_sequence(3, 61)
    r3 = rho(3)
    ratio = seq3[61] / seq3[60]
    ok3 = abs(ratio - r3) / r3 < 1e-6
    seq2 = degree_sequence(2, 40)
    second = [seq2[i + 2] - 2 * seq2[i + 1] + seq2[i] for i in range(len(seq2) - 2)]
    ok2 = len(set(second[5:])) == 1
    report(
        "criterion 6",
        ok3 and ok2,
        f"d=3 ratio at m=60 within {abs(ratio - r3) / r3:.2e} of rho_3; "
        f"d=2 second differences stabilize at {second[-1]}",
        t0,
    )


# 7 ------------------------------------------------------------------------


def test_criterion_07_scratch_census(ellipse, cubic, quartic):
    t0 = time.time()
    counts = {}
    for name, curve, expected in (
        ("ellipse", ellipse, 8),
        ("cubic", cubic, 18),
        ("quartic", quartic, 32),
    ):
        counts[name] = len(enumerate_scratch_points(curve))
        assert counts[name] == expected
    report("criterion 7", True, f"census {counts}", t0)


# 8 ------------------------------------------------------------------------


def _collinearity(x: PhasePoint, y: PhasePoint) -> float:
    c, cp, q = x.c.coords, y.c.coords, x.q.q
    det = q[0] * (c[1] * cp[2] - c[2] * cp[1]) - q[1] * (c[0] * cp[2] - c[2] * cp[0])
    return abs(det)


def test_criterion_08_geometry_residuals(ellipse, cubic):
    t0 = time.time()
    worst = {"curve": 0.0, "conic": 0.0, "collinear": 0.0, "involution": 0.0,
             "reversibility": 0.0}
    for curve in (ellipse, cubic):
        states = sample_phase_points(curve, 500, seed=2027)
        for x in states:
            sec = secant(curve, x)
            for br in sec.images:
                worst["collinear"] = max(worst["collinear"], _collinearity(x, br.point))
                worst["curve"] = max(worst["curve"], on_curve_residual(curve, br.point.c))
                worst["conic"] = max(worst["conic"], conic_residual(*br.point.q.q))
            ref = reflect(curve, x).images[0].point
            worst["conic"] = max(worst["conic"], conic_residual(*ref.q.q))
            back = reflect(curve, ref).images[0].point
            worst["involution"] = max(worst["involution"], phase_distance(back, x))
            bil = billiard_step(curve, x)
            for br in bil.images:
                worst["curve"] = max(worst["curve"], on_curve_residual(curve, br.point.c))
                worst["conic"] = max(worst["conic"], conic_residual(*br.point.q.q))
                # reversibility: x recovered from r(b(r(y)))
                y = br.point
                ry = reflect(curve, y).images[0].point
                candidates = [
                    reflect(curve, b2.point).images[0].point
                    for b2 in billiard_step(curve, ry).images
                ]
                worst["reversibility"] = max(
                    worst["reversibility"],
                    min(phase_distance(cand, x) for cand in candidates),
                )
    ok = (
        worst["curve"] < 1e-7
        and worst["conic"] < 1e-7
        and worst["collinear"] < 1e-7
        and worst["involution"] < 1e-7
        and worst["reversibility"] < 1e-6
    )
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report("criterion 8", ok, detail, t0)


# 9 ------------------------------------------------------------------------


def test_criterion_09_invariant_form(ellipse, cubic):
    t0 = time.time()
    worst = 0.0
    measured = 0
    order_ok = True
    for curve in (ellipse, cubic):
        branch_count = curve.degree - 1
        states = sample_phase_points(curve, 100, seed=42)
        for x in states:
            jobs = [("reflect", 0)]
            jobs += [("secant", b) for b in range(branch_count)]
            jobs += [("billiard", b) for b in range(branch_count)]
            for op, branch in jobs:
                r = check_invariance(curve, x, op, h=1e-4, branch_index=branch)
                worst = max(worst, r.residual_h, r.residual_h2)
                # convergence order is observable only above the
                # finite-difference noise floor; below it the invariance
                # already holds orders of magnitude past the tolerance
                if r.residual_h2 > 1e-8:
                    measured += 1
                    order_ok = order_ok and 1.8 < r.order_estimate < 2.2
    ok = worst < 1e-4 and order_ok and measured >= 20
    report(
        "criterion 9",
        ok,
        f"max residual {worst:.2e} at h=1e-4; {measured} samples with observable order, all in (1.8, 2.2)",
        t0,
    )


# 10 -----------------------------------------------------------------------


def test_criterion_10_confinement(ellipse, cubic):
    t0 = time.time()
    # ellipse, infinity kind: closed form ((0,-1) <-> (0,1), q1 flipped)
    sps = enumerate_scratch_points(ellipse)
    s = next(
        p
        for p in sps
        if p.kind == "infinity"
        and abs(p.phase.c.coords[1] - 0.5j) < 1e-9
        and p.phase.q.q[2].real > 0
    )
    rep = confinement_experiment_infinity_multi(
        ellipse, s, [proj_point(0, -1, 1), proj_point(0, 1, 1)]
    )
    s3 = math.sqrt(3)
    targets = [
        PhasePoint(proj_point(0, 1, 1), direction_point(2 / s3, -1j / s3, 1)),
        PhasePoint(proj_point(0, -1, 1), direction_point(2 / s3, -1j / s3, 1)),
    ]
    closed_form_err = max(
        min(phase_distance(lim, t) for t in targets)
        for group in rep.limits
        for lim in group
    )
    ok_ellipse = (
        rep.cauchy_ok
        and rep.max_prediction_error < 1e-5
        and closed_form_err < 1e-5
        and rep.min_pairwise_limit_distance > 1e-3
    )

    # fixed generic cubic: all 18 scratch reports Cauchy + nonconstant
    cubic_pass = 0
    for idx, sp in enumerate(enumerate_scratch_points(cubic)):
        if sp.kind == "infinity":
            candidates = sample_curve_points(cubic, 24, seed=100 + idx)
            starts = infinity_experiment_starts(sp, candidates, 3)
            r = confinement_experiment_infinity_multi(cubic, sp, starts)
            good = r.passed()
        else:
            r = confinement_experiment_isotropic(cubic, sp, n_samples=4, seed=100 + idx)
            good = r.passed()
        cubic_pass += good
    ok = ok_ellipse and cubic_pass == 18
    report(
        "criterion 10",
        ok,
        f"ellipse closed-form error {closed_form_err:.2e}, "
        f"separation {rep.min_pairwise_limit_distance:.2e}; cubic reports {cubic_pass}/18",
        t0,
    )


# 11 -----------------------------------------------------------------------


def test_criterion_11_branch_growth(cubic):
    t0 = time.time()
    x = sample_phase_points(cubic, 1, seed=9)[0]
    tree = orbit_tree(cubic, x, 8)
    leaves = tree.leaves_with_multiplicity()
    terminated = sum(
        1 for level in tree.levels for n in level if n.terminated_reason is not None
    )
    ok = leaves == 256 and terminated == 0
    report("criterion 11", ok, f"depth-8 leaves with multiplicity = {leaves}", t0)
