"""Shared fixtures: the five worked market instances used across the suite."""

import json
import math
import sys

import pytest

from hullprice import parse_instance


def make_instance(demand, gens):
    return parse_instance(json.dumps({"demand": demand, "generators": gens}))


def count_calls(monkeypatch, functions):
    """Count calls to each function under every hullprice name that binds it."""
    counts = {f.__name__: 0 for f in functions}

    def counting(f):
        def wrapper(*args, **kwargs):
            counts[f.__name__] += 1
            return f(*args, **kwargs)

        return wrapper

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hullprice"]
    for f in functions:
        wrapper = counting(f)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is f:
                    monkeypatch.setattr(mod, key, wrapper)
    return counts


EX1_JSON = {
    "demand": 4,
    "generators": [{"id": "g", "w": 12, "curve": {"linear": 1}, "x_max": 6}],
}

EX2_JSON = {
    "demand": 4,
    "generators": [
        {"id": "g1", "w": 0, "curve": {"linear": 0}, "x_max": 1},
        {"id": "g2", "w": 16, "curve": {"quadratic": {"a": 0, "q": 1}}, "x_max": 8},
        {"id": "g3", "w": 22.4, "curve": {"linear": 0}, "x_max": 8},
    ],
}


def _ex345(x2max):
    return {
        "demand": 4,
        "generators": [
            {"id": "g1", "w": 12, "curve": {"linear": 1}, "x_max": 12},
            {"id": "g2", "w": 0, "curve": {"linear": 3}, "x_max": x2max},
        ],
    }


EX3_JSON = _ex345(5)
EX4_JSON = _ex345(4)
EX5_JSON = _ex345(2)

# demand 12000 equals total capacity; both units must run at capacity
LARGE_MW_FLEET = [
    {"id": "g0", "w": 16000, "curve": {"quadratic": {"a": 0, "q": 0.001}}, "x_max": 2000},
    {"id": "g1", "w": 0, "curve": {"linear": 0}, "x_max": 10000},
]

SQRT32 = math.sqrt(32.0)


@pytest.fixture
def ex1():
    return parse_instance(json.dumps(EX1_JSON))


@pytest.fixture
def ex2():
    return parse_instance(json.dumps(EX2_JSON))


@pytest.fixture
def ex3():
    return parse_instance(json.dumps(EX3_JSON))


@pytest.fixture
def ex4():
    return parse_instance(json.dumps(EX4_JSON))


@pytest.fixture
def ex5():
    return parse_instance(json.dumps(EX5_JSON))
