import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from mucal.kb import load_kb
from mucal.logic import BUILTIN_SORTS, collect_ground_terms, expand_sugar

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scenario_path(name: str) -> str:
    return os.path.normpath(os.path.join(SCENARIOS, name))


def builtin_universe(formulas) -> dict:
    """The ground terms of the formulas, each joined under the built-in sort
    edges: a universe for formulas built without a KB."""
    return collect_ground_terms([expand_sugar(f) for f in formulas], BUILTIN_SORTS)


@pytest.fixture(scope="session")
def lottery_kb():
    return load_kb(scenario_path("lottery5.kb"))


@pytest.fixture(scope="session")
def lottery_full_kb():
    return load_kb(scenario_path("lottery_full.kb"))


@pytest.fixture(scope="session")
def murder_kb():
    return load_kb(scenario_path("murder.kb"))


@pytest.fixture(scope="session")
def murder_certain_kb():
    return load_kb(scenario_path("murder_certain.kb"))


@pytest.fixture(scope="session")
def counterfactual_kb():
    return load_kb(scenario_path("counterfactual.kb"))


@pytest.fixture(scope="session")
def counterfactual_flip_kb():
    return load_kb(scenario_path("counterfactual_flip.kb"))


@pytest.fixture(scope="session")
def rain_kb():
    return load_kb(scenario_path("rain.kb"))


DESK_SCENARIOS = [
    "lottery5.kb",
    "lottery_full.kb",
    "murder.kb",
    "murder_certain.kb",
    "counterfactual.kb",
    "counterfactual_flip.kb",
    "rain.kb",
]
