"""Exact dispatch: commitment enumeration and breakpoint marginal prices."""

import itertools
import math
import random

import pytest

from hullprice import (
    GeneratorSpec,
    InfeasibleError,
    Linear,
    MarketInstance,
    PiecewiseLinear,
    Quadratic,
    SizeError,
    economic_dispatch,
    solve_primal,
)

import oracles
from conftest import LARGE_MW_FLEET, make_instance


def test_economic_dispatch_merit_order_example():
    gens = (
        GeneratorSpec("g1", 0.0, Linear(0.0, 1.0), 1.0),
        GeneratorSpec("g2", 0.0, Quadratic(0.0, 1.0, 8.0), 8.0),
    )
    outputs, lam = economic_dispatch(gens, 4.0)
    assert outputs[0] == pytest.approx(1.0, abs=1e-9)
    assert outputs[1] == pytest.approx(3.0, abs=1e-9)
    assert lam == pytest.approx(3.0, abs=1e-9)


def test_economic_dispatch_forced_full_output():
    g = GeneratorSpec("g", 0.0, Quadratic(1.0, 0.5, 6.0), 6.0)
    outputs, lam = economic_dispatch((g,), 6.0)
    assert outputs[0] == pytest.approx(6.0, abs=1e-9)
    assert lam == pytest.approx(1.0 + 0.5 * 6.0, abs=1e-6)


def test_economic_dispatch_symmetric_split():
    g1 = GeneratorSpec("g1", 0.0, Quadratic(1.0, 2.0, 5.0), 5.0)
    g2 = GeneratorSpec("g2", 0.0, Quadratic(1.0, 2.0, 5.0), 5.0)
    outputs, _ = economic_dispatch((g1, g2), 6.0)
    assert outputs[0] == pytest.approx(3.0, abs=1e-6)
    assert outputs[1] == pytest.approx(3.0, abs=1e-6)


def test_economic_dispatch_flat_tie_fills_in_order():
    g1 = GeneratorSpec("g1", 0.0, Linear(2.0, 2.0), 2.0)
    g2 = GeneratorSpec("g2", 0.0, Linear(2.0, 2.0), 2.0)
    outputs, lam = economic_dispatch((g1, g2), 3.0)
    assert outputs == [2.0, 1.0]
    assert lam == pytest.approx(2.0, abs=1e-9)


def test_economic_dispatch_infeasible():
    g = GeneratorSpec("g", 0.0, Linear(1.0, 2.0), 2.0)
    with pytest.raises(InfeasibleError):
        economic_dispatch((g,), 5.0)


def test_economic_dispatch_kkt_conditions():
    rng = random.Random(501)
    for _ in range(80):
        inst = oracles.random_instance(rng, allow_ray=False)
        gens = inst.generators
        outputs, lam = economic_dispatch(gens, inst.demand)
        assert sum(outputs) == pytest.approx(inst.demand, abs=1e-7)
        for g, x in zip(gens, outputs):
            assert -1e-9 <= x <= g.x_max + 1e-9
            if x <= 1e-7:
                assert lam <= oracles.slope_right(g.curve, 0.0) + 1e-6
            elif x >= g.x_max - 1e-7:
                assert lam >= oracles.slope_left(g.curve, g.x_max) - 1e-6
            else:
                assert oracles.slope_left(g.curve, x) - 1e-6 <= lam
                assert lam <= oracles.slope_right(g.curve, x) + 1e-6


def test_economic_dispatch_matches_bisection_oracle():
    """Every committable subset of 400 random fleets, ray cases included."""
    rng = random.Random(505)
    rays = 0
    for _ in range(400):
        inst = oracles.random_instance(rng)
        rays += inst.total_capacity == inst.demand
        for size in range(1, len(inst.generators) + 1):
            for gens in itertools.combinations(inst.generators, size):
                if sum(g.x_max for g in gens) < inst.demand:
                    continue
                outputs, lam = economic_dispatch(gens, inst.demand)
                want_outputs, want_lam = oracles.bisect_dispatch(gens, inst.demand)
                cost = sum(oracles.curve_value(g.curve, x) for g, x in zip(gens, outputs))
                want = sum(
                    oracles.curve_value(g.curve, x) for g, x in zip(gens, want_outputs)
                )
                assert abs(cost - want) <= 1e-9 * max(1.0, abs(want))
                assert abs(lam - want_lam) <= 1e-9
    assert rays > 0


def test_economic_dispatch_price_at_pwl_step_is_the_slope():
    # the kinked unit is marginal on its second segment: lam is that
    # segment's slope exactly, not a bisection bracket around it
    gens = (
        GeneratorSpec("k", 0.0, PiecewiseLinear(((2.0, 1.1), (5.0, 2.7))), 5.0),
        GeneratorSpec("f", 0.0, Linear(1.9, 1.0), 1.0),
    )
    outputs, lam = economic_dispatch(gens, 3.5)
    assert lam == 2.7
    assert outputs == [2.5, 1.0]


def test_economic_dispatch_ramp_flatter_than_float_resolution():
    # a + q * x_max rounds to a: no float price lies inside the ramp, so the
    # unit is split at the float step around a instead
    flat = GeneratorSpec("r", 0.0, Quadratic(50.0, 1e-20, 100.0), 100.0)
    dear = GeneratorSpec("l", 0.0, Linear(60.0, 100.0), 100.0)
    for gens in ((flat,), (flat, dear)):
        outputs, lam = economic_dispatch(gens, 30.0)
        assert outputs[0] == 30.0 and sum(outputs) == 30.0
        assert lam == pytest.approx(50.0, abs=1e-12)


def test_economic_dispatch_ramp_root_is_exact(ex2):
    sol = solve_primal(ex2)
    assert sol.marginal_lambda == 3.0
    assert oracles.entry(sol, "g2").output == 3.0


def test_dispatch_at_large_mw_scale_serves_demand():
    # capacity equals demand at 12000 MW: the quadratic unit's ramp must
    # end exactly at its capacity, not a relative slack short of it
    inst = make_instance(12000, LARGE_MW_FLEET)
    sol = solve_primal(inst)
    assert sol.committed_set == ("g0", "g1")
    assert oracles.entry(sol, "g0").output == 2000.0
    assert oracles.entry(sol, "g1").output == 10000.0
    assert sol.marginal_lambda == 2.0


# ------------------------------------------------------------ solve_primal


def test_solve_example_one(ex1):
    sol = solve_primal(ex1)
    assert sol.total_cost == pytest.approx(16.0, abs=1e-9)
    assert sol.committed_set == ("g",)
    e = oracles.entry(sol, "g")
    assert e.on and e.output == pytest.approx(4.0, abs=1e-9)


def test_solve_example_two(ex2):
    sol = solve_primal(ex2)
    assert sol.total_cost == pytest.approx(20.5, abs=1e-9)
    assert sol.committed_set == ("g1", "g2")
    assert oracles.entry(sol, "g1").output == pytest.approx(1.0, abs=1e-9)
    assert oracles.entry(sol, "g2").output == pytest.approx(3.0, abs=1e-9)
    g3 = oracles.entry(sol, "g3")
    assert not g3.on and g3.output == 0.0
    assert sol.marginal_lambda == pytest.approx(3.0, abs=1e-6)


def test_solve_example_three(ex3):
    sol = solve_primal(ex3)
    assert sol.total_cost == pytest.approx(12.0, abs=1e-9)
    assert sol.committed_set == ("g2",)
    assert oracles.entry(sol, "g2").output == pytest.approx(4.0, abs=1e-9)
    assert not oracles.entry(sol, "g1").on


def test_solve_example_five_prefers_cheap_large_unit(ex5):
    # g2 alone cannot serve 4; g1 alone costs 12 + 4 = 16, the pair
    # costs 12 + 2 + 3*2 = 20, so the large unit runs alone
    sol = solve_primal(ex5)
    assert sol.total_cost == pytest.approx(16.0, abs=1e-9)
    assert sol.committed_set == ("g1",)


def test_solve_tie_prefers_fewer_then_lex():
    inst = make_instance(
        3,
        [
            {"id": "b", "w": 0, "curve": {"linear": 2}, "x_max": 4},
            {"id": "a", "w": 0, "curve": {"linear": 2}, "x_max": 4},
        ],
    )
    sol = solve_primal(inst)
    # singles beat the pair at equal cost; "a" beats "b" lexicographically
    assert sol.committed_set == ("a",)
    assert oracles.entry(sol, "a").output == pytest.approx(3.0, abs=1e-9)


def test_solve_zero_output_units_stay_off():
    inst = make_instance(
        2,
        [
            {"id": "cheap", "w": 1, "curve": {"linear": 1}, "x_max": 3},
            {"id": "dear", "w": 5, "curve": {"linear": 9}, "x_max": 3},
        ],
    )
    sol = solve_primal(inst)
    assert sol.committed_set == ("cheap",)
    e = oracles.entry(sol, "dear")
    assert not e.on and e.output == 0.0


def test_solve_size_guard():
    gens = tuple(
        GeneratorSpec(f"g{k:02d}", 0.0, Linear(1.0, 1.0), 1.0) for k in range(25)
    )
    with pytest.raises(SizeError):
        solve_primal(MarketInstance(demand=2.0, generators=gens))


def test_solve_infeasible_instance():
    inst = MarketInstance(
        demand=9.0,
        generators=(GeneratorSpec("g", 0.0, Linear(1.0, 2.0), 2.0),),
    )
    with pytest.raises(InfeasibleError):
        solve_primal(inst)


def test_solve_infeasible_fleet_fails_before_the_subset_search():
    gens = tuple(GeneratorSpec(f"g{i:02d}", 1.0, Linear(1.0, 1.0), 1.0) for i in range(12))
    with pytest.raises(InfeasibleError, match="total capacity 12.0 below demand 13.0"):
        solve_primal(MarketInstance(demand=13.0, generators=gens))


def test_solution_shape_invariants():
    rng = random.Random(502)
    for _ in range(100):
        inst = oracles.random_instance(rng)
        sol = solve_primal(inst)
        served = sum(e.output for e in sol.schedule)
        assert served == pytest.approx(inst.demand, abs=1e-7)
        for g, e in zip(inst.generators, sol.schedule, strict=True):
            assert g.id == e.id
            assert -1e-9 <= e.output <= g.x_max + 1e-9
            if not e.on:
                assert e.output == 0.0
            if g.startup_cost > 0 and e.output == 0.0:
                assert not e.on  # committed-at-zero never optimal
        recomputed = sum(
            g.startup_cost + g.curve.value(e.output)
            for g, e in zip(inst.generators, sol.schedule)
            if e.on
        )
        assert recomputed == pytest.approx(sol.total_cost, abs=1e-7)


def test_solver_beats_grid_dp_oracle():
    """Grid-restricted DP cost brackets the exact optimum from above."""
    rng = random.Random(503)
    steps = 200
    for _ in range(50):
        inst = oracles.random_instance(rng, allow_ray=False)
        v = solve_primal(inst).total_cost
        dp = oracles.dp_primal(inst, steps)
        assert math.isfinite(dp)
        c_max = oracles.max_marginal_cost(inst)
        step = inst.demand / steps
        assert dp >= v - 1e-4
        assert dp <= v + c_max * step


def _truncate_curve(curve, cap):
    if isinstance(curve, Linear):
        return Linear(curve.a, cap)
    if isinstance(curve, Quadratic):
        return Quadratic(curve.a, curve.q, cap)
    segs = [(r, s) for r, s in curve.segments if r < cap - 1e-12]
    tail_slope = oracles.slope_right(curve, segs[-1][0] if segs else 0.0)
    segs.append((cap, tail_slope))
    return PiecewiseLinear(tuple(segs))


def test_modified_primal_same_optimum():
    """Capping feasible output at min(d, x_max) + d/100 changes nothing."""
    rng = random.Random(504)
    for _ in range(60):
        inst = oracles.random_instance(rng, allow_ray=False)
        base = solve_primal(inst)
        eps = inst.demand / 100.0
        capped = []
        for g in inst.generators:
            cap = min(g.x_max, min(inst.demand, g.x_max) + eps)
            capped.append(
                GeneratorSpec(g.id, g.startup_cost, _truncate_curve(g.curve, cap), cap)
            )
        alt = solve_primal(MarketInstance(inst.demand, tuple(capped)))
        assert alt.total_cost == pytest.approx(base.total_cost, abs=1e-8)
        assert alt.committed_set == base.committed_set
        for e in base.schedule:
            assert oracles.entry(alt, e.id).output == pytest.approx(e.output, abs=1e-6)
