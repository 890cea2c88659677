"""Randomized structural properties of the whole pricing stack."""

import json
import random
import time

import numpy as np
import pytest

from hullprice import (
    classify_lnmgu,
    diagnostics,
    parse_instance,
    run_pipeline,
    dual_value,
    mchp_price_set_eps,
    mchp_price_set_limit,
    mchp_uplifts,
    price_set,
    solve_primal,
    uplifts,
)

import oracles


def test_thousand_instance_property_sweep():
    """One pass over 1000 random fleets checking every cross-module law.

    Covered per instance: weak duality, uplift nonnegativity, total hull
    uplift equal to the duality gap, capped total never above hull total,
    zero gap preserved under capping, price equality for zero start-up
    fleets, at most one oversized unit committed, insensitivity to
    dropping non-binding oversized units, and price-set ordering.
    """
    rng = random.Random(801)
    start = time.perf_counter()
    zero_w_checked = 0
    for _ in range(1000):
        inst = oracles.random_instance(rng)
        gens, d = list(inst.generators), inst.demand
        sol = solve_primal(inst)
        v = sol.total_cost

        ps = price_set(gens, d)
        chp = uplifts(inst, sol, ps.representative("lo"))
        assert chp.dual_value <= v + 1e-7 * max(1.0, abs(v))
        assert chp.gap >= -1e-7
        assert chp.total_uplift == pytest.approx(chp.gap, abs=1e-6)
        for val in chp.per_generator.values():
            assert val >= -1e-9

        limit, tag = mchp_price_set_limit(inst)
        res = mchp_uplifts(inst, sol, limit.representative("lo"))
        assert res.total_uplift <= chp.total_uplift + 1e-6
        for val in res.per_generator.values():
            assert val >= -1e-9
        if chp.gap <= 1e-9:
            assert res.total_uplift <= 1e-6

        checks = diagnostics(inst, sol, chp, res)
        assert checks.single_large_unit_committed
        assert checks.reduction_invariant
        assert checks.price_ordering
        assert checks.uplift_dominance
        assert checks.limit_consistent_with_eps

        if all(g.startup_cost == 0.0 for g in gens):
            assert tag == "no_lnmgu"
            assert limit.lo == ps.lo and limit.hi == ps.hi
            if not ps.unbounded_above:
                lo, hi = oracles.level_set_price_interval(gens, d)
                assert ps.lo == pytest.approx(lo, abs=1e-9)
                assert ps.hi == pytest.approx(hi, abs=1e-9)
            zero_w_checked += 1

    assert zero_w_checked > 100
    assert time.perf_counter() - start < 60.0


def test_total_uplift_equals_gap_to_rounding():
    """Settled uplift and duality gap agree to a few ulps of the cost.

    Their difference is the price times the demand the dispatch leaves
    unserved, so it measures how exactly the schedule meets demand.
    """
    rng = random.Random(805)
    for _ in range(400):
        inst = oracles.random_instance(rng)
        sol = solve_primal(inst)
        ps = price_set(inst.generators, inst.demand)
        rep = uplifts(inst, sol, ps.representative("lo"))
        assert abs(rep.gap - rep.total_uplift) <= 1e-12 * max(1.0, abs(sol.total_cost))


def test_fleets_at_megawatt_millions_price_and_pass_checks():
    """At demand near 5e6 MW one float step of demand is about 1e-9 MW,
    so the unserved-dispatch bound has to scale with demand."""
    rng = random.Random(1)
    for _ in range(400):
        rep = run_pipeline(oracles.scale_instance(oracles.random_instance(rng), 1e6, 1e6))
        assert rep.checks.passed


SCALINGS = [(mw, money) for mw in (1e-3, 1.0, 1e3) for money in (1e-3, 1.0, 1e4)]


@pytest.mark.parametrize("mw, money", SCALINGS)
def test_every_check_passes_in_any_units(mw, money):
    """Diagnostic bounds scale with the instance, so no choice of MW and $
    units makes a check fail."""
    rng = random.Random(1)
    failed = []
    for k in range(100):
        inst = oracles.scale_instance(oracles.random_instance(rng), mw, money)
        checks = run_pipeline(inst).checks
        if not checks.passed:
            failed.append((k, checks))
    assert failed == []


CLAIM_SCALINGS = [
    (1.0, 1.0),
    (1e-3, 1e4),
    pytest.param(
        1e3,
        1e-3,
        marks=pytest.mark.xfail(
            strict=True,
            reason="prices here are 1e-6 of the unscaled ones, where absolute "
            "price tolerances are coarse [units]",
        ),
    ),
    (1e6, 1e6),
]


@pytest.mark.parametrize("mw, money", CLAIM_SCALINGS)
def test_capped_uplift_is_at_most_hull_uplift_across_demand(mw, money):
    """The paper's claim at every demand, not just one per fleet: capped
    total uplift never exceeds hull total uplift, to rounding of the
    dispatch cost."""
    rng = random.Random(19)
    above = []
    for k in range(30):
        inst = oracles.random_instance(rng)
        for _ in range(8):
            level = inst._replace(demand=rng.uniform(0.05, 1.0) * inst.total_capacity)
            rep = run_pipeline(oracles.scale_instance(level, mw, money))
            room = 1e-9 * abs(rep.dispatch.total_cost)
            if rep.mchp.total_uplift > rep.chp.total_uplift + room:
                above.append((k, level.demand, rep.mchp.total_uplift, rep.chp.total_uplift))
    assert above == []


def test_generator_order_does_not_change_results():
    rng = random.Random(806)
    for _ in range(300):
        inst = oracles.random_instance(rng)
        spec = json.loads(oracles.serialize_instance(inst))
        rng.shuffle(spec["generators"])
        a = run_pipeline(inst)
        b = run_pipeline(parse_instance(json.dumps(spec)))

        assert b.dispatch.total_cost == pytest.approx(a.dispatch.total_cost, rel=1e-12, abs=1e-12)
        assert {e.id for e in b.dispatch.schedule if e.on} == {
            e.id for e in a.dispatch.schedule if e.on
        }
        for pa, pb in ((a.chp.price_set, b.chp.price_set), (a.mchp.price_set, b.mchp.price_set)):
            assert pb.unbounded_above == pa.unbounded_above
            assert pb.lo == pytest.approx(pa.lo, rel=1e-12, abs=1e-12)
            assert pb.hi == pytest.approx(pa.hi, rel=1e-12, abs=1e-12)
        assert b.mchp.case_tag == a.mchp.case_tag
        for ua, ub in ((a.chp, b.chp), (a.mchp, b.mchp)):
            assert ub.per_generator == pytest.approx(ua.per_generator, rel=1e-12, abs=1e-12)
        assert b.checks == a.checks


def test_supporting_price_exists_iff_gap_is_zero():
    rng = random.Random(804)
    for _ in range(120):
        inst = oracles.random_instance(rng)
        sol = solve_primal(inst)
        ps = price_set(inst.generators, inst.demand)
        rep = uplifts(inst, sol, ps.representative("lo"))
        if rep.gap <= 1e-9:
            # a zero gap means the low clearing price already supports the
            # exact schedule: nobody loses profit by following it
            assert all(v <= 1e-6 for v in rep.per_generator.values())
        elif rep.gap > 1e-6:
            # a real gap means no clearing price supports the schedule
            kinds = ("lo",) if ps.unbounded_above else ("lo", "mid", "hi")
            for kind in kinds:
                other = uplifts(inst, sol, ps.representative(kind))
                assert max(other.per_generator.values()) > 1e-7


def test_grid_dual_locates_both_price_sets():
    """Brute force vs bisection on discretized fleets.

    Curves are linear or kinked with breakpoints on the 200-point output
    grid, so the grid dual is exact and its argmax set must match the
    bisected clearing sets to within one price-grid step, for the plain
    dual and for the capped dual alike.
    """
    rng = random.Random(802)
    for _ in range(200):
        inst = oracles.random_instance(
            rng, allow_ray=False, kinds=("linear", "pwl_grid")
        )
        gens, d = list(inst.generators), inst.demand

        ps = price_set(gens, d)
        upb = oracles.price_grid_upper_bound(gens)
        grid = np.linspace(0.0, upb, 10_000)
        step = float(grid[1] - grid[0])
        lo_loc, hi_loc = oracles.located_price_interval(gens, d, grid, npts=200)
        assert abs(lo_loc - ps.lo) <= step + 1e-9
        assert abs(hi_loc - ps.hi) <= step + 1e-9

        eps = 0.05 * d
        cgens, caps = oracles.capped_fleet(inst, classify_lnmgu(inst, eps))
        cps = mchp_price_set_eps(inst, eps)
        assert not cps.unbounded_above
        upb2 = oracles.price_grid_upper_bound(cgens, caps)
        grid2 = np.linspace(0.0, upb2, 10_000)
        step2 = float(grid2[1] - grid2[0])
        lo2, hi2 = oracles.located_price_interval(
            cgens, d, grid2, caps=caps, npts=200
        )
        assert abs(lo2 - cps.lo) <= step2 + 1e-9
        assert abs(hi2 - cps.hi) <= step2 + 1e-9


def test_dual_argmax_on_grid_lands_in_price_set():
    rng = random.Random(803)
    for _ in range(200):
        inst = oracles.random_instance(rng)
        gens, d = list(inst.generators), inst.demand
        ps = price_set(gens, d)
        upb = oracles.price_grid_upper_bound(gens)
        grid = np.linspace(0.0, upb, 10_000)
        step = float(grid[1] - grid[0])
        vals = [dual_value(gens, d, float(p)) for p in grid]
        p_star = float(grid[int(np.argmax(vals))])
        assert p_star >= ps.lo - step - 1e-9
        if not ps.unbounded_above:
            assert p_star <= ps.hi + step + 1e-9
