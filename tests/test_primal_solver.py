"""Exact dispatch: the pruned commitment search and breakpoint marginal prices."""

import functools
import itertools
import math
import random

import pytest

from hullprice import (
    GeneratorSpec,
    InfeasibleError,
    MarketInstance,
    PiecewiseLinear,
    Quadratic,
    SizeError,
    economic_dispatch,
    primal_solver,
    solve_primal,
)

import oracles
from conftest import LARGE_MW_FLEET, make_instance


def test_economic_dispatch_merit_order_example():
    gens = (
        GeneratorSpec("g1", 0.0, PiecewiseLinear(((1.0, 0.0),)), 1.0),
        GeneratorSpec("g2", 0.0, Quadratic(0.0, 1.0), 8.0),
    )
    outputs, lam = economic_dispatch(gens, 4.0)
    assert outputs[0] == pytest.approx(1.0, abs=1e-9)
    assert outputs[1] == pytest.approx(3.0, abs=1e-9)
    assert lam == pytest.approx(3.0, abs=1e-9)


def test_economic_dispatch_forced_full_output():
    g = GeneratorSpec("g", 0.0, Quadratic(1.0, 0.5), 6.0)
    outputs, lam = economic_dispatch((g,), 6.0)
    assert outputs[0] == pytest.approx(6.0, abs=1e-9)
    assert lam == pytest.approx(1.0 + 0.5 * 6.0, abs=1e-6)


def test_economic_dispatch_symmetric_split():
    g1 = GeneratorSpec("g1", 0.0, Quadratic(1.0, 2.0), 5.0)
    g2 = GeneratorSpec("g2", 0.0, Quadratic(1.0, 2.0), 5.0)
    outputs, _ = economic_dispatch((g1, g2), 6.0)
    assert outputs[0] == pytest.approx(3.0, abs=1e-6)
    assert outputs[1] == pytest.approx(3.0, abs=1e-6)


def test_economic_dispatch_flat_tie_fills_in_order():
    g1 = GeneratorSpec("g1", 0.0, PiecewiseLinear(((2.0, 2.0),)), 2.0)
    g2 = GeneratorSpec("g2", 0.0, PiecewiseLinear(((2.0, 2.0),)), 2.0)
    outputs, lam = economic_dispatch((g1, g2), 3.0)
    assert outputs == [2.0, 1.0]
    assert lam == pytest.approx(2.0, abs=1e-9)


def test_economic_dispatch_infeasible():
    g = GeneratorSpec("g", 0.0, PiecewiseLinear(((2.0, 1.0),)), 2.0)
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
        GeneratorSpec("f", 0.0, PiecewiseLinear(((1.0, 1.9),)), 1.0),
    )
    outputs, lam = economic_dispatch(gens, 3.5)
    assert lam == 2.7
    assert outputs == [2.5, 1.0]


def test_economic_dispatch_ramp_flatter_than_float_resolution():
    # a + q * x_max rounds to a: no float price lies inside the ramp, so the
    # unit is split at the float step around a instead
    flat = GeneratorSpec("r", 0.0, Quadratic(50.0, 1e-20), 100.0)
    dear = GeneratorSpec("l", 0.0, PiecewiseLinear(((100.0, 60.0),)), 100.0)
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
        GeneratorSpec(f"g{k:02d}", 0.0, PiecewiseLinear(((1.0, 1.0),)), 1.0) for k in range(25)
    )
    with pytest.raises(SizeError):
        solve_primal(MarketInstance(demand=2.0, generators=gens))


def test_solve_infeasible_instance():
    inst = MarketInstance(
        demand=9.0,
        generators=(GeneratorSpec("g", 0.0, PiecewiseLinear(((2.0, 1.0),)), 2.0),),
    )
    with pytest.raises(InfeasibleError):
        solve_primal(inst)


def test_solve_infeasible_fleet_fails_before_the_subset_search():
    gens = tuple(
        GeneratorSpec(f"g{i:02d}", 1.0, PiecewiseLinear(((1.0, 1.0),)), 1.0) for i in range(12)
    )
    with pytest.raises(InfeasibleError, match="total capacity 12.0 below demand 13.0"):
        solve_primal(MarketInstance(demand=13.0, generators=gens))


# ------------------------------------------- bound pruning vs enumeration

# (MW, $) units.  The unserved allowance is 1e-9 MW, or 1e-14 of demand
# above 1e5 MW, so next to the bound it is tens of ulps at MW x1e6 and
# wide at MW x1e-6; the $ factor scales every term of the bound alike.
UNITS = ((1.0, 1.0), (1e6, 1e6), (1e-6, 1e-6), (1e6, 1e-6), (1e-6, 1e6))


def _assert_same_solution(got, want):
    # bit-equal floats: the pruning may only skip subsets, never reorder sums
    assert got.total_cost.hex() == want.total_cost.hex()
    assert got.marginal_lambda.hex() == want.marginal_lambda.hex()
    assert got.committed_set == want.committed_set
    assert got.schedule == want.schedule


def _assert_matches_enumeration(inst, units=UNITS):
    """The pruned search equals the reference on ``inst`` in each of ``units``."""
    for mw, money in units:
        scaled = oracles.scale_instance(inst, mw, money)
        _assert_same_solution(solve_primal(scaled), oracles.enumerate_primal(scaled))


def _counted_solve(solve, inst):
    """``solve(inst)`` and its number of ``economic_dispatch`` calls."""
    original = primal_solver.economic_dispatch
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    primal_solver.economic_dispatch = counted
    try:
        return solve(inst), calls
    finally:
        primal_solver.economic_dispatch = original


@functools.cache
def _mixed_fleet_runs(n, count):
    """Seeded fleets with their reference and pruned solutions and dispatch counts."""
    rng = random.Random(f"mixed/{n}")
    runs = []
    for _ in range(count):
        inst = oracles.mixed_fleet(rng, n)
        runs.append(
            (
                inst,
                _counted_solve(oracles.enumerate_primal, inst),
                _counted_solve(solve_primal, inst),
            )
        )
    return runs


def test_pruned_search_matches_enumeration_on_random_fleets():
    # every fleet as drawn, every fifth in the other units too
    rng = random.Random(3)
    for k in range(3000):
        units = UNITS if k % 5 == 0 else UNITS[:1]
        _assert_matches_enumeration(oracles.random_instance(rng), units)


@pytest.mark.parametrize("n, count", [(12, 40), (14, 3)])
def test_pruned_search_matches_enumeration_on_mixed_fleets(n, count):
    runs = _mixed_fleet_runs(n, count)
    for _, (want, _), (got, _) in runs:
        _assert_same_solution(got, want)
    # the first six twelve-unit fleets in the other units too; a
    # fourteen-unit reference solve takes about 0.7 s
    for inst, _, _ in runs[: 6 if n == 12 else 0]:
        _assert_matches_enumeration(inst, UNITS[1:])


def test_pruned_search_dispatches_at_most_1_percent_of_the_subsets():
    # counters, not wall time: 24 twelve-unit fleets, about 0.5% of the
    # reference's economic_dispatch calls
    runs = _mixed_fleet_runs(12, 40)[:24]
    reference = sum(calls for _, (_, calls), _ in runs)
    pruned = sum(calls for _, _, (_, calls) in runs)
    assert pruned <= 0.01 * reference


@pytest.mark.parametrize("n", [20, 24])
def test_pruned_search_dispatch_count_on_large_fleets(n):
    # counters, not wall time: of 2**n - 1 subsets, at most 43 are
    # dispatched per solve on these fleets
    rng = random.Random(f"large/{n}")
    for _ in range(10):
        _, calls = _counted_solve(solve_primal, oracles.mixed_fleet(rng, n))
        assert calls <= 200


@pytest.mark.parametrize("n", [16, 20, 24])
def test_pruned_search_matches_milp_on_large_fleets(n):
    # beyond n=14 the enumeration is too slow to serve as the reference
    pytest.importorskip("scipy")
    rng = random.Random(f"milp/{n}")
    for _ in range(10):
        inst = oracles.mixed_fleet(rng, n, kinds=("linear", "pwl"))
        got = solve_primal(inst).total_cost
        want = oracles.milp_primal(inst)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_pruned_search_keeps_zero_startup_ties():
    # a tie's cost meets its bound up to the unserved allowance: nothing
    # may be pruned that the strict-< tie-break would have kept
    rng = random.Random(8)
    for _ in range(200):
        _assert_matches_enumeration(
            oracles.random_instance(rng, force_zero_w=True, kinds=("linear",))
        )
    same = [{"id": f"g{k}", "w": 0, "curve": {"linear": 2}, "x_max": 2} for k in range(5)]
    for demand in (1, 2, 3, 10):
        _assert_matches_enumeration(make_instance(demand, same))


def test_bound_allows_for_demand_left_unserved():
    # b is 5e-10 MW short of demand, within the feasibility band, and so
    # costs 1e-9 less than its bound would be if it served all of it: a
    # bound without that allowance would prune the winner
    inst = make_instance(
        1,
        [
            {"id": "a", "w": 0, "curve": {"linear": 2}, "x_max": 5},
            {"id": "b", "w": 1e-10, "curve": {"linear": 2}, "x_max": 1 - 5e-10},
        ],
    )
    assert solve_primal(inst).committed_set == ("b",)
    _assert_matches_enumeration(inst)


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
    if isinstance(curve, Quadratic):
        return curve
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
