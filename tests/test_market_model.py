"""Schema parsing, validation and JSON round trips."""

import gc
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hullprice import (
    GeneratorSpec,
    MarketInstance,
    PiecewiseLinear,
    PricingError,
    Quadratic,
    SchemaError,
    ValidationError,
    load_sweep,
    parse_instance,
    run_pipeline,
)
from hullprice.market_model import Fleet, validate_instance
from hullprice.report import report_dict

import oracles
from conftest import EX1_JSON


def test_parse_example_instance(ex1):
    assert ex1.demand == 4
    assert len(ex1.generators) == 1
    g = ex1.generators[0]
    assert g.id == "g"
    assert g.startup_cost == 12
    assert g.curve == PiecewiseLinear(((6, 1),))
    assert g.x_max == 6


def test_parse_quadratic_and_pwl():
    inst = parse_instance(
        json.dumps(
            {
                "demand": 2,
                "generators": [
                    {"id": "q", "w": 16, "curve": {"quadratic": {"a": 0, "q": 1}}, "x_max": 8},
                    {"id": "p", "w": 0, "curve": {"pwl": [[1, 2], [3, 5]]}, "x_max": 3},
                ],
            }
        )
    )
    q, p = inst.generators
    assert isinstance(q.curve, Quadratic) and q.curve.q == 1
    assert isinstance(p.curve, PiecewiseLinear)
    assert p.curve.segments == ((1, 2), (3, 5))


def test_parse_rejects_infeasible_total_capacity():
    body = {
        "demand": 4,
        "generators": [{"id": "g", "w": 0, "curve": {"linear": 1}, "x_max": 3}],
    }
    with pytest.raises(ValidationError, match="infeasible"):
        parse_instance(json.dumps(body))
    try:
        parse_instance(json.dumps(body))
    except ValidationError as exc:
        assert exc.violations
        assert all(v.startswith("infeasible") for v in exc.violations)


def test_parse_rejects_nonconvex_pwl():
    body = {
        "demand": 1,
        "generators": [{"id": "g", "w": 0, "curve": {"pwl": [[1, 2], [2, 1]]}, "x_max": 2}],
    }
    with pytest.raises(ValidationError, match="non-convex curve"):
        parse_instance(json.dumps(body))


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2]",
        '{"demand": 4}',
        '{"demand": 4, "generators": [], "extra": 1}',
        '{"demand": true, "generators": []}',
        '{"demand": Infinity, "generators": []}',
        '{"demand": NaN, "generators": []}',
        '{"demand": 4, "generators": {}}',
        '{"demand": 4, "generators": [5]}',
        '{"demand": 4, "generators": [{"id": "g", "w": 1, "x_max": 2}]}',
        '{"demand": 4, "generators": [{"id": "g", "w": 1, "curve": {"linear": 1}, "x_max": 2, "foo": 0}]}',
        '{"demand": 4, "generators": [{"id": 7, "w": 1, "curve": {"linear": 1}, "x_max": 2}]}',
        '{"demand": 4, "generators": [{"id": "g", "w": 1, "curve": {"cubic": 1}, "x_max": 2}]}',
        '{"demand": 4, "generators": [{"id": "g", "w": 1, "curve": {"quadratic": {"a": 1}}, "x_max": 2}]}',
        '{"demand": 4, "generators": [{"id": "g", "w": 1, "curve": {"pwl": []}, "x_max": 2}]}',
        '{"demand": 4, "generators": [{"id": "g", "w": 1, "curve": {"pwl": [[1]]}, "x_max": 2}]}',
        '{"demand": 4, "generators": [{"id": "g", "w": 1, "curve": {"linear": 1, "quadratic": {}}, "x_max": 2}]}',
        pytest.param("[" * 100_000, id="nested past the recursion limit"),
        pytest.param('{"demand": 1' + "0" * 5000 + ', "generators": []}', id="5001-digit integer"),
        pytest.param('{"demand": 1' + "0" * 400 + ', "generators": []}', id="integer past float range"),
    ],
)
def test_schema_errors(text):
    with pytest.raises(SchemaError):
        parse_instance(text)


def test_validate_clean_instance(ex1):
    assert validate_instance(ex1) == []


def test_validate_negative_startup():
    inst = MarketInstance(
        demand=4,
        generators=(GeneratorSpec("g", -1.0, PiecewiseLinear(((6.0, 1.0),)), 6.0),),
    )
    assert validate_instance(inst) == ["g: startup_cost negative"]


def test_validate_duplicate_ids():
    g = GeneratorSpec("g", 0.0, PiecewiseLinear(((6.0, 1.0),)), 6.0)
    inst = MarketInstance(demand=4, generators=(g, g))
    assert "duplicate id g" in validate_instance(inst)


def test_validate_orders_violations_deterministically():
    # two broken generators plus a bad demand: instance-level findings
    # first, then per-generator sorted by id
    bad_b = GeneratorSpec("b", -2.0, PiecewiseLinear(((3.0, 1.0),)), 3.0)
    bad_a = GeneratorSpec("a", 0.0, PiecewiseLinear(((3.0, -1.0),)), 3.0)
    inst = MarketInstance(demand=-1, generators=(bad_b, bad_a))
    found = validate_instance(inst)
    assert found == [
        "demand not positive",
        "a: negative slope",
        "b: startup_cost negative",
    ]
    assert found == validate_instance(inst)


def test_validate_domain_mismatch_and_bad_capacity():
    inst = MarketInstance(
        demand=1,
        generators=(
            GeneratorSpec("a", 0.0, PiecewiseLinear(((5.0, 1.0),)), 4.0),
            GeneratorSpec("b", 0.0, PiecewiseLinear(((0.0, 1.0),)), 0.0),
        ),
    )
    found = validate_instance(inst)
    assert "a: curve domain mismatch" in found
    assert "b: x_max not positive" in found
    assert "b: non-ascending breakpoints" in found


def test_validate_flat_quadratic_is_a_finding():
    """A linear cost is one pwl segment; a quadratic built with q = 0 is refused."""
    flat = GeneratorSpec("g", 1.0, Quadratic(1.0, 0.0), 2.0)
    found = validate_instance(MarketInstance(demand=1.0, generators=(flat,)))
    assert found == ["g: flat quadratic; a linear cost is one pwl segment"]


def test_validate_nonfinite_fields():
    inst = MarketInstance(
        demand=float("nan"),
        generators=(
            GeneratorSpec("g", float("inf"), PiecewiseLinear(((2.0, 1.0),)), 2.0),
            GeneratorSpec("h", 0.0, PiecewiseLinear(((math.inf, 1.0),)), math.inf),
            GeneratorSpec("k", 0.0, Quadratic(1.0, 1.0), math.nan),
        ),
    )
    found = validate_instance(inst)
    assert "demand not finite" in found
    assert "g: startup_cost not finite" in found
    # a linear unit of x_max 1e400 in a file reads so
    assert "h: x_max not finite" in found
    assert "h: non-finite cost coefficient" in found
    assert "k: x_max not finite" in found
    assert not any("not positive" in m or "overflows" in m for m in found)


def test_validate_fleet_cost_that_overflows_a_float():
    """w + x_max * c'(x_max) bounds a unit's cost and Lagrangian term; the
    fleet's sum must be finite too, not only each unit's."""
    unit = PiecewiseLinear(((1.0, 1.0),))
    inst = MarketInstance(
        demand=1.0,
        generators=(GeneratorSpec("a", 1e308, unit, 1.0), GeneratorSpec("b", 1e308, unit, 1.0)),
    )
    assert validate_instance(inst) == ["fleet cost at capacity overflows a float"]


def test_validate_pwl_breakpoints_and_slopes():
    bad = GeneratorSpec("g", 0.0, PiecewiseLinear(((2.0, 1.0), (1.0, 2.0))), 1.0)
    found = validate_instance(MarketInstance(demand=0.5, generators=(bad,)))
    assert any("non-ascending breakpoints" in m for m in found)
    neg = GeneratorSpec("g", 0.0, PiecewiseLinear(((1.0, -1.0), (2.0, 0.0))), 2.0)
    found = validate_instance(MarketInstance(demand=0.5, generators=(neg,)))
    assert any("negative slope" in m for m in found)


def test_roundtrip_examples(ex1, ex2, ex3, ex4, ex5):
    for inst in (ex1, ex2, ex3, ex4, ex5):
        assert parse_instance(oracles.serialize_instance(inst)) == inst


def test_roundtrip_random_corpus():
    rng = random.Random(1234)
    for _ in range(60):
        inst = oracles.random_instance(rng)
        again = parse_instance(oracles.serialize_instance(inst))
        assert again == inst
        assert validate_instance(inst) == []


@given(
    a=st.floats(min_value=0, max_value=50, allow_nan=False),
    w=st.floats(min_value=0, max_value=50, allow_nan=False),
    x_max=st.floats(min_value=1e-3, max_value=100, allow_nan=False),
    d_frac=st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_roundtrip_linear_hypothesis(a, w, x_max, d_frac):
    body = {
        "demand": d_frac * x_max,
        "generators": [{"id": "g", "w": w, "curve": {"linear": a}, "x_max": x_max}],
    }
    inst = parse_instance(json.dumps(body))
    assert parse_instance(oracles.serialize_instance(inst)) == inst


def test_linear_flat_quadratic_and_one_segment_price_alike():
    """The three ways to write a linear cost give the same report and sweep."""
    rng = random.Random(3)
    checked = 0
    while checked < 40:
        spec = json.loads(oracles.serialize_instance(oracles.random_instance(rng)))
        # linear units come back as one pwl segment
        linear = [g for g in spec["generators"] if len(g["curve"].get("pwl", ())) == 1]
        if not linear:
            continue
        checked += 1
        slopes = [g["curve"]["pwl"][0][1] for g in linear]
        capacity = sum(g["x_max"] for g in spec["generators"])
        levels = [f * capacity for f in (0.2, 0.5, 0.8, 1.0, 1.3)]
        priced = []
        for write in (
            lambda g, a: {"linear": a},
            lambda g, a: {"quadratic": {"a": a, "q": 0}},
            lambda g, a: {"pwl": [[g["x_max"], a]]},
        ):
            for g, a in zip(linear, slopes):
                g["curve"] = write(g, a)
            instance = parse_instance(json.dumps(spec))
            try:
                report = report_dict(run_pipeline(instance))
            except PricingError as exc:
                report = repr(exc)
            priced.append((report, load_sweep(instance, levels)))
        assert priced[1] == priced[0] and priced[2] == priced[0], json.dumps(spec)


def test_total_capacity(ex2):
    assert math.isclose(ex2.total_capacity, 17.0)


def test_ex1_json_matches_fixture(ex1):
    assert parse_instance(json.dumps(EX1_JSON)) == ex1


def test_fleet_unpacks_to_the_generators_it_packs():
    rng = random.Random(77)
    for _ in range(40):
        gens = tuple(oracles.random_instance(rng).generators)
        fleet = Fleet(gens)
        assert tuple(fleet) == gens and fleet == gens and gens == fleet
        assert [type(g.curve) for g in fleet] == [type(g.curve) for g in gens]
        assert len(fleet) == len(gens) and fleet[-1] == gens[-1] and fleet[1:] == gens[1:]
        assert hash(fleet) == hash(gens)
        assert fleet != list(gens)
    # every float comes back bit for bit, the sign of zero included
    edge = (
        GeneratorSpec(
            "z", -0.0, PiecewiseLinear(((1.7976931348623157e308, 5e-324),)), 1.7976931348623157e308
        ),
        GeneratorSpec("p", 0.1, PiecewiseLinear(((1e-300, -0.0), (2.0, 0.3))), 2.0),
        GeneratorSpec("q", 1.0, Quadratic(0.0, 1e-12), 3.0),
    )
    back = tuple(Fleet(edge))
    assert back == edge
    assert math.copysign(1.0, back[0].startup_cost) == -1.0
    assert math.copysign(1.0, back[1].curve.segments[0][1]) == -1.0


def test_parsed_instance_holds_its_units_packed():
    texts = [oracles.serialize_instance(oracles.mixed_fleet(random.Random(k), 12)) for k in range(40)]

    def held_bytes(make):
        [make(text) for text in texts]  # leaves one-time allocations out
        tracemalloc.start()
        try:
            gc.collect()  # a full collection also empties the free lists
            before = tracemalloc.get_traced_memory()[0]
            kept = [make(text) for text in texts]
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def unpacked(text):
        inst = parse_instance(text)
        return inst._replace(generators=tuple(inst.generators))

    assert isinstance(parse_instance(texts[0]).generators, Fleet)
    # measured 0.26
    assert held_bytes(parse_instance) < 0.35 * held_bytes(unpacked)
