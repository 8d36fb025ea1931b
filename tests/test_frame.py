"""One numeric frame: what a curve gives does not depend on how its equation
is written.  F and cF give bitwise the same normalized form, hence the same
output bytes.  A similarity G(X) = F(MX) of the plane fixes the circular
points, so it commutes with the billiard: G's genericity verdict, scratch
census and orbit trees are those of F carried back by M."""

import contextlib
import functools
import io
import json
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_stacked import integer_curves

from algbilliards.blowup import enumerate_scratch_points
from algbilliards.cli import main
from algbilliards.curve import CurveError, PlaneCurve, genericity_report, proj_distance, proj_point
from algbilliards.phase import PhasePoint, direction_point, orbit_tree
from algbilliards.sampling import sample_phase_points
from conftest import load_curve

DATA = pathlib.Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# F -> cF
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(integer_curves(), st.integers(1, 99), st.integers(1, 99), st.integers(-60, 60), st.booleans())
def test_a_rescaled_form_is_bitwise_the_same(case, p, q, k, negative):
    d, coeffs = case
    assume(any(coeffs.values()))
    c = Fraction(-p if negative else p, q) * Fraction(2) ** k
    f = PlaneCurve.from_coeffs(d, coeffs)._form
    g = PlaneCurve.from_coeffs(d, {e: v * c for e, v in coeffs.items()})._form
    assert f.exps.tobytes() == g.exps.tobytes()
    assert f.coeffs.tobytes() == g.coeffs.tobytes()


def test_the_form_is_divided_by_its_largest_part(ellipse, sextic):
    # -4 X2^2 + 4 X1^2 + X0^2: the tie goes to the last exponent triple, +4
    assert ellipse._form.coeffs.tolist() == [-1, 1, 0.25]
    # the sextic's largest part is -3, so its form is rounded in thirds
    assert sextic._form.coeffs.tolist()[-1] == -1 / 3
    # an imaginary part can be the largest: within one triple the real part wins a tie
    curve = PlaneCurve.from_coeffs(2, {(2, 0, 0): (8, -8), (0, 2, 0): (1, 8), (0, 0, 2): -1})
    assert curve._form.coeffs.tolist() == [-1 / 8, 1 / 8 + 1j, 1 - 1j]


@pytest.mark.parametrize("small", [Fraction(1, 10**400), Fraction(1, 10**308), Fraction(1, 2**1070)])
def test_a_coefficient_below_the_float_range_of_the_largest_is_refused(small):
    with pytest.raises(CurveError, match=r"coefficient of \(2, 0, 0\) is below the float range"):
        PlaneCurve.from_coeffs(2, {(2, 0, 0): small, (0, 2, 0): 1, (0, 0, 2): -1})


def _scaled_text(name, c):
    data = json.loads((DATA / f"{name}.json").read_text())
    for entry in data["coeffs"]:
        entry["re"] = str(Fraction(entry["re"]) * c)
    return json.dumps(data)


@pytest.fixture(scope="module")
def frame_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("frame")


@pytest.fixture(scope="module")
def unscaled(frame_dir):
    """Exit code and bytes of a command on a fixture as written, run once."""
    return functools.cache(lambda name, argv: _cli_run(frame_dir, _scaled_text(name, 1), argv))


def _cli_run(frame_dir, text, argv):
    """Exit code and --out bytes of one run on a curve file at a fixed path,
    with every RuntimeWarning an error."""
    curve, out = frame_dir / "curve.json", frame_dir / "out"
    curve.write_text(text)
    out.unlink(missing_ok=True)
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, "--curve", str(curve), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


# Each case is refused when the tolerances read the form as written: every
# fixture scaled by 2^-30 or 1e-8 as "singular" (genericity exit 2, the
# census exit 1), and confine with "scratch point is not basic" (exit 1).
SCALED_CASES = [
    *((name, c, argv) for c in (Fraction(1, 2**30), Fraction(1, 10**8))
      for name in ("ellipse", "cubic", "quartic", "sextic")
      for argv in (("genericity",), ("scratch",))),
    ("cubic", Fraction(2**30), ("confine", "--samples", "2", "--seed", "1")),
    ("quartic", Fraction(2**30), ("confine", "--samples", "2", "--seed", "1")),
    ("quartic", Fraction(10**4), ("confine", "--samples", "2", "--seed", "1")),
]


@pytest.mark.parametrize("name, c, argv", SCALED_CASES,
                         ids=[f"{n}-{c}-{a[0]}" for n, c, a in SCALED_CASES])
def test_a_scaled_curve_file_gives_the_same_bytes(frame_dir, unscaled, name, c, argv):
    assert _cli_run(frame_dir, _scaled_text(name, c), argv) == unscaled(name, argv)
    assert unscaled(name, argv)[0] == 0


# ---------------------------------------------------------------------------
# G(X) = F(MX) for a similarity M
# ---------------------------------------------------------------------------


def _times(p, q):
    out = {}
    for e, a in p.items():
        for f, b in q.items():
            key = tuple(x + y for x, y in zip(e, f))
            out[key] = out.get(key, 0) + a * b
    return out


def similar_curve(curve, m):
    """G(X) = F(MX) for a rational 3x3 matrix m, exactly."""
    linear = [{(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]} for r in m]
    out = {}
    for e, (re, im) in curve.coeffs.items():
        mono = {(0, 0, 0): Fraction(1)}
        for var, power in enumerate(e):
            for _ in range(power):
                mono = _times(mono, linear[var])
        for key, v in mono.items():
            r0, i0 = out.get(key, (0, 0))
            out[key] = (r0 + re * v, i0 + im * v)
    return PlaneCurve.from_coeffs(curve.degree, out)


def similarity(s, rotation=(1, 0), shift=(0, 0)):
    """x -> s R x + shift on the affine chart, R the rotation (cos, sin)."""
    (p, q), (tx, ty) = map(Fraction, rotation), map(Fraction, shift)
    s = Fraction(s)
    return [[s * p, -s * q, tx], [s * q, s * p, ty], [Fraction(0)] * 2 + [Fraction(1)]]


def _carry(m):
    """Maps of a state's (c, q) coordinates of G to those of F, and back.
    A direction q = (Q0, Q1, Q2) on Q0^2 + Q1^2 = Q2^2 moves by the linear
    part s R on (Q0, Q1) and by s on Q2."""
    big_m = np.array(m, dtype=float)
    big_q = np.diag([1.0, 1.0, abs(np.linalg.det(big_m[:2, :2])) ** 0.5])
    big_q[:2, :2] = big_m[:2, :2]
    inv_m, inv_q = np.linalg.inv(big_m), np.linalg.inv(big_q)
    forth = lambda c, q: (proj_point(*big_m @ np.array(c)), proj_point(*big_q @ np.array(q)))  # noqa: E731
    back = lambda c, q: (proj_point(*inv_m @ np.array(c)), direction_point(*inv_q @ np.array(q)))  # noqa: E731
    return forth, back, np.linalg.cond(big_m)


def _match(carried, targets, tol):
    """Pair every carried (c, q, key) with the nearest unused target of the
    same key, which must lie within the chordal distance tol."""
    free = list(targets)
    for c, q, key in carried:
        dist, k = min((max(proj_distance(c, tc), proj_distance(q, tq)), k)
                      for k, (tc, tq, tkey) in enumerate(free) if tkey == key)
        assert dist < tol, (key, dist)
        free.pop(k)


def _flags(report):
    return {k: v for k, v in report.to_dict().items() if k != "diagnostics"}


MAPS = {f"scale-2^{j}": similarity(Fraction(2) ** j) for j in (-3, -2, -1, 1, 2, 3)}
MAPS |= {"rotate-3/5": similarity(1, (Fraction(3, 5), Fraction(4, 5))),
         "shift": similarity(1, shift=(Fraction(1, 3), Fraction(-1, 4))),
         "rotate-5/13-shift": similarity(1, (Fraction(5, 13), Fraction(12, 13)),
                                         (Fraction(1, 3), Fraction(-1, 4)))}

SIMILAR_CASES = [(name, map_name) for name in ("ellipse", "cubic", "quartic", "sextic") for map_name in MAPS]


@pytest.mark.parametrize("name, map_name", SIMILAR_CASES)
def test_a_similar_curve_gives_the_carried_census_and_tree(name, map_name):
    curve = load_curve(name)
    m = MAPS[map_name]
    moved = similar_curve(curve, m)
    forth, back, cond = _carry(m)
    assert _flags(genericity_report(moved)) == _flags(genericity_report(curve))

    census = [(sp.phase.c, proj_point(*sp.phase.q.q), (sp.kind, sp.basic))
              for sp in enumerate_scratch_points(curve)]
    carried = [(*forth(sp.phase.c.coords, sp.phase.q.q), (sp.kind, sp.basic))
               for sp in enumerate_scratch_points(moved)]
    assert len(carried) == len(census)
    _match(carried, census, 1e-12 * cond)

    x = sample_phase_points(curve, 1, seed=3)[0]
    tree = orbit_tree(curve, x, 3)
    moved_tree = orbit_tree(moved, PhasePoint(*back(x.c.coords, x.q.q)), 3)
    for k, (level, moved_level) in enumerate(zip(tree.levels, moved_tree.levels)):
        nodes = [(n.point.c, proj_point(*n.point.q.q), (n.multiplicity, n.terminated_reason)) for n in level]
        carried = [(*forth(n.point.c.coords, n.point.q.q), (n.multiplicity, n.terminated_reason))
                   for n in moved_level]
        assert len(carried) == len(nodes)
        # an error grows by at most about 10 d per step on these trees
        _match(carried, nodes, 1e-12 * cond * (10 * curve.degree) ** k)


# ---------------------------------------------------------------------------
# curve files under a fixed fuzzing budget
# ---------------------------------------------------------------------------

ATOMS = ["1e308", "-1e-308", "1e-320", "2.5e-300", "3/7", "1e400", "nan", "1/0", "", "1e10_000_000",
         "4", "-1", "0", 1, 2.5, None, True, [1]]


@st.composite
def curve_files(draw):
    d = draw(st.integers(2, 4))
    coeffs = []
    for i in range(d + 1):
        for j in range(d + 1 - i):
            entry = {"i": i, "j": j, "k": d - i - j, "re": draw(st.sampled_from(ATOMS))}
            if draw(st.booleans()):
                entry["im"] = draw(st.sampled_from(ATOMS))
            coeffs.append(entry)
    return json.dumps({"degree": d, "coeffs": coeffs})


OVERFLOWING = json.dumps({"degree": 2, "coeffs": [
    {"i": 0, "j": 0, "k": 2, "re": "-1"}, {"i": 0, "j": 2, "k": 0, "re": "1e308"},
    {"i": 2, "j": 0, "k": 0, "re": "1e308"}]})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(curve_files())
@example(OVERFLOWING)
def test_any_curve_file_gives_an_exit_code_and_at_most_one_error_line(frame_dir, text):
    curve = frame_dir / "fuzz.json"
    curve.write_text(text)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["genericity", "--curve", str(curve), "--out", str(frame_dir / "fuzz.out")])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(errors) == (code != 0)
