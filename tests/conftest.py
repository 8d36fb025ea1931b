"""Shared fixtures: the frozen table curves used across the suite."""

import pathlib

import pytest

from algbilliards.curve import PlaneCurve, curve_from_json

DATA = pathlib.Path(__file__).parent / "data"

# X2 (X0^2 + 2 X1^2 - X2^2): every sampled line, of direction (D0, D1, 0),
# meets the line at infinity X2 = 0 at its direction point, so each try has
# d - 1 = 2 roots and a block that assumes d fails at its first try
CONIC_AND_INFINITY = PlaneCurve.from_coeffs(3, {(2, 0, 1): 1, (0, 2, 1): 2, (0, 0, 3): -1})


def load_curve(name: str):
    return curve_from_json((DATA / f"{name}.json").read_text())


@pytest.fixture(scope="session")
def ellipse():
    return load_curve("ellipse")


@pytest.fixture(scope="session")
def circle():
    return load_curve("circle")


@pytest.fixture(scope="session")
def cubic():
    return load_curve("cubic")


@pytest.fixture(scope="session")
def quartic():
    return load_curve("quartic")


@pytest.fixture(scope="session")
def sextic():
    return load_curve("sextic")
