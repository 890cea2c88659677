"""The capacity-against-demand rule and the instances at its tolerance."""

import json
import random

import pytest

from hullprice import (
    GeneratorSpec,
    InfeasibleError,
    MarketInstance,
    PiecewiseLinear,
    ValidationError,
    parse_instance,
    run_pipeline,
    solve_primal,
)
from hullprice.cli import main
from hullprice.market_model import CapacityRule, validate_instance

import oracles

# capacity 5e-10 MW short of demand, inside the 1e-9 MW tolerance
SHORT_UNIT = {"id": "g0", "w": 0.0, "curve": {"linear": 2.0}, "x_max": 0.9999999995}
OVERSIZED_UNIT = {"id": "g1", "w": 10.0, "curve": {"linear": 1.0}, "x_max": 5.0}


@pytest.mark.parametrize(
    "x_max, demand, cmax",
    [(6, 4, 4), (12, 4, 4), (5, 4, 4), (2, 4, 2), (3, 3, 3)],
)
def test_rule_gives_each_unit_its_contract_cap(x_max, demand, cmax):
    assert CapacityRule(demand).served(x_max) == cmax


@pytest.mark.parametrize(
    "capacity, demand, served, short, ray, clears",
    [
        (1 - 2e-9, 1.0, 1 - 2e-9, True, True, False),
        (1 - 5e-10, 1.0, 1 - 5e-10, False, True, False),
        (1 - 5e-11, 1.0, 1 - 5e-11, False, True, True),
        (1.0, 1.0, 1.0, False, True, True),
        (1 + 5e-10, 1.0, 1.0, False, True, True),
        (1 + 2e-9, 1.0, 1.0, False, False, True),
        # above 1e5 MW feasibility allows 1e-14 of demand; the crossings
        # allow 1e-10 of demand from 1 MW, so the ray band widens with them
        (1e7 - 5e-8, 1e7, 1e7 - 5e-8, False, True, True),
        (1e7 - 2e-7, 1e7, 1e7 - 2e-7, True, True, False),
        (1e7 + 5e-4, 1e7, 1e7, False, True, True),
        (1e7 + 2e-3, 1e7, 1e7, False, False, True),
    ],
)
def test_rule_judges_a_fleet_against_demand(capacity, demand, served, short, ray, clears):
    rule = CapacityRule(demand)
    judged = rule.served(capacity), rule.short(capacity), rule.ray(capacity), rule.clears(capacity)
    assert judged == (served, short, ray, clears)


@pytest.mark.parametrize("demand", [1.0, 100.0, 1e7])
def test_rule_bands_nest(demand):
    """A capacity that clears is never short, and every feasible capacity
    up to demand is a ray, whichever of the two tolerances is wider."""
    rule = CapacityRule(demand)
    step = max(rule.tol, rule.slack) / 10
    for k in range(-30, 31):
        capacity = demand + k * step
        assert not (rule.clears(capacity) and rule.short(capacity))
        if capacity <= demand and not rule.short(capacity):
            assert rule.ray(capacity)


def test_infeasibility_alone_raises_infeasible_error():
    spec = {"demand": 4, "generators": [{"id": "g", "w": 0, "curve": {"linear": 1}, "x_max": 3}]}
    with pytest.raises(InfeasibleError) as info:
        parse_instance(json.dumps(spec))
    assert isinstance(info.value, ValidationError)
    assert info.value.violations == ("infeasible: total capacity 3.0 below demand 4.0",)

    spec["generators"][0]["w"] = -1
    with pytest.raises(ValidationError) as info:
        parse_instance(json.dumps(spec))
    assert not isinstance(info.value, InfeasibleError)
    assert len(info.value.violations) == 2


def test_cli_infeasible_with_another_fault_exits_2(tmp_path, capsys):
    spec = {"demand": 100, "generators": [{"id": "g", "w": -1, "curve": {"linear": 1}, "x_max": 2}]}
    path = tmp_path / "both.json"
    path.write_text(json.dumps(spec))
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert "infeasible" in err and "startup_cost negative" in err


def _price(tmp_path, capsys, generators, *args, demand=1.0):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"demand": demand, "generators": generators}))
    code = main([str(path), *args])
    out, err = capsys.readouterr()
    return code, out, err


def _checks(err):
    return [line for line in err.splitlines() if line.startswith("check ")]


@pytest.mark.parametrize(
    "x_max, demand",
    [
        (SHORT_UNIT["x_max"], 1.0),
        # the full 1e-9 MW short in decimal, a few ulps more in floats
        (1.006e-06, 1.007e-06),
    ],
)
def test_cli_prices_a_unit_just_short_of_demand(tmp_path, capsys, x_max, demand):
    unit = dict(SHORT_UNIT, x_max=x_max)
    code, out, err = _price(tmp_path, capsys, [unit], demand=demand)
    assert code == 0
    assert len(_checks(err)) == 5 and all(line.endswith(": ok") for line in _checks(err))
    hull = json.loads(out)["chp"]["price_set"]
    assert hull == {"lo": 2.0, "hi": None, "unbounded_above": True}


def test_cli_prices_an_oversized_unit_beside_it(tmp_path, capsys):
    """The regular unit is feasible on its own but falls short of the
    hull's crossing, so the oversized unit is marginal at its p_bar 11.

    This is the present behaviour, not settled economics: dispatch
    commits the regular unit alone at marginal price 2, which would call
    for ``interval_upper_capped``.  ROADMAP [exact] keeps that open.
    """
    code, out, err = _price(tmp_path, capsys, [SHORT_UNIT, OVERSIZED_UNIT])
    assert code == 0
    assert len(_checks(err)) == 5 and all(line.endswith(": ok") for line in _checks(err))
    report = json.loads(out)
    assert report["chp"]["price_set"]["lo"] == pytest.approx(3.0, abs=1e-9)
    assert report["mchp"]["case"] == "lnmgu_marginal"
    assert report["mchp"]["price_set"] == {"lo": 11.0, "hi": 11.0, "unbounded_above": False}


def test_cli_sweep_prices_every_level_up_to_the_short_capacity(tmp_path, capsys):
    code, out, err = _price(tmp_path, capsys, [SHORT_UNIT], "--sweep", "0.5,1.0")
    assert code == 0
    assert "sweep: 2/2 demand levels priced" in err
    assert [row["demand"] for row in json.loads(out)] == [0.5, 1.0]


def test_cli_prices_a_regular_fleet_short_above_10_mw(tmp_path, capsys):
    """At 100 MW the crossing slack (1e-8 MW) is wider than the
    feasibility tolerance (1e-9 MW).  A regular unit 5e-9 MW short of
    demand is short on its own, so the oversized unit beside it is
    marginal; the capped side must not price the regular unit alone."""
    regular = {"id": "g0", "w": 0.0, "curve": {"linear": 2.0}, "x_max": 99.999999995}
    oversized = {"id": "g1", "w": 1000.0, "curve": {"linear": 1.0}, "x_max": 200.0}
    code, out, err = _price(tmp_path, capsys, [regular, oversized], demand=100.0)
    assert code != 3, err
    report = json.loads(out)
    assert report["mchp"]["case"] == "lnmgu_marginal"
    assert report["mchp"]["price_set"] == {"lo": 11.0, "hi": 11.0, "unbounded_above": False}
    # the hull's crossing forgives the shortfall, so the margin-epsilon
    # set starts at 2 and limit_consistent_with_eps fails (ROADMAP [curve])
    others = [line for line in _checks(err) if "limit_consistent_with_eps" not in line]
    assert len(others) == 4 and all(line.endswith(": ok") for line in others)

    code, out, err = _price(
        tmp_path, capsys, [regular, oversized], "--sweep", "50,100", demand=100.0
    )
    assert code == 0
    assert "sweep: 2/2 demand levels priced" in err
    assert [row["case"] for row in json.loads(out)] == ["lnmgu_irrelevant", "lnmgu_marginal"]


def _short_beside_oversized(demand, share):
    """A free regular unit ``share`` of demand short of it, beside a unit
    that serves demand alone at a start-up cost of 1e5."""
    x_max = demand * (1.0 - share)
    return MarketInstance(
        demand,
        (
            GeneratorSpec("g0", 0.0, PiecewiseLinear(((x_max, 2.0),)), x_max),
            GeneratorSpec("g1", 1e5, PiecewiseLinear(((2.0 * demand, 5.0),)), 2.0 * demand),
        ),
    )


SHORT_ABOVE_1000_MW = [
    (demand, share) for demand in (1e4, 1e5) for share in (2e-13, 5e-13, 1e-12)
]


@pytest.mark.parametrize("demand, share", SHORT_ABOVE_1000_MW)
def test_dispatch_room_never_exceeds_the_dispatch_tolerance(demand, share):
    """Above 1,000 MW, DISPATCH_ROOM * demand is wider than the dispatch
    tolerance; the breakpoint search must not accept a ceiling that the
    residual check then calls short."""
    solution = solve_primal(_short_beside_oversized(demand, share))
    assert solution.committed_set == ("g0", "g1")
    served = sum(entry.output for entry in solution.schedule)
    assert abs(served - demand) <= CapacityRule(demand).tol


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the hull crossing forgives g0's shortfall where dispatch does not [exact]",
)
@pytest.mark.parametrize("demand, share", SHORT_ABOVE_1000_MW)
def test_fleet_short_above_1000_mw_passes_the_limit_check(demand, share):
    assert run_pipeline(_short_beside_oversized(demand, share)).checks.limit_consistent_with_eps


def _trimmed(instance, shortfall):
    """The instance with its largest unit trimmed so that capacity is
    demand - shortfall, or None when that unit cannot give up enough."""
    spec = json.loads(oracles.serialize_instance(instance))
    unit = max(spec["generators"], key=lambda g: g["x_max"])
    excess = sum(g["x_max"] for g in spec["generators"]) - (spec["demand"] - shortfall)
    x_max = unit["x_max"] - excess
    if x_max < 0.01:
        return None
    if "pwl" in unit["curve"]:
        scale = x_max / unit["x_max"]
        segments = unit["curve"]["pwl"]
        unit["curve"]["pwl"] = [[right * scale, slope] for right, slope in segments[:-1]]
        unit["curve"]["pwl"].append([x_max, segments[-1][1]])
    unit["x_max"] = x_max
    return json.dumps(spec)


def test_fleets_short_of_demand_within_tolerance_price_cleanly(tmp_path, capsys):
    rng = random.Random(5)
    path = tmp_path / "trimmed.json"
    priced = 0
    for k in range(10):
        for _ in range(12):
            text = _trimmed(oracles.random_instance(rng), k * 1e-10)
            if text is None:
                continue
            inst = parse_instance(text)
            assert validate_instance(inst) == []
            assert inst.total_capacity == pytest.approx(inst.demand - k * 1e-10, abs=1e-14)
            assert run_pipeline(inst).checks.passed
            path.write_text(text)
            assert main([str(path)]) == 0
            err = capsys.readouterr().err
            assert all(line.endswith(": ok") for line in _checks(err))
            priced += 1
    assert priced >= 80
