"""Shared fixtures: the frozen table curves used across the suite."""

import pathlib

import pytest

from algbilliards.curve import curve_from_json

DATA = pathlib.Path(__file__).parent / "data"


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
