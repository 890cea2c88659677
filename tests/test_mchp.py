"""Capped-dual prices: classification, price sets, settlement, diagnostics."""

import random

import pytest

import hullprice
from hullprice import (
    DomainError,
    PriceSet,
    StalePriceError,
    classify_lnmgu,
    diagnostics,
    ec_min,
    mchp_price_set_limit,
    mchp_uplifts,
    price_set,
    solve_primal,
    uplifts,
)
from hullprice.market_model import CapacityRule
from hullprice.mchp import default_epsilon, mchp_price_set_eps
from hullprice.tolerances import PRICE_TOL

import oracles
from conftest import count_calls, make_instance


def test_classify_example_two(ex2):
    part = classify_lnmgu(ex2, default_epsilon(ex2))
    assert part.large == ("g2", "g3")
    assert part.min_avg_id == "g3"
    # average cost at demand 4: g3 22.4 / 4, below g2's (16 + 4**2) / 4
    assert part.p_bar == 5.6


def test_classify_example_three(ex3):
    part = classify_lnmgu(ex3, default_epsilon(ex3))
    assert part.large == ("g1",)
    assert part.min_avg_id == "g1"


def test_classify_no_startup_costs():
    inst = make_instance(
        2,
        [
            {"id": "a", "w": 0, "curve": {"quadratic": {"a": 1, "q": 1}}, "x_max": 6},
            {"id": "b", "w": 0, "curve": {"linear": 2}, "x_max": 6},
        ],
    )
    part = classify_lnmgu(inst, default_epsilon(inst))
    assert part.large == ()
    assert part.min_avg_id is None
    assert part.p_bar is None
    assert part.epsilon == default_epsilon(inst)


def test_classify_rejects_bad_epsilon(ex1):
    with pytest.raises(DomainError):
        classify_lnmgu(ex1, 0.0)
    with pytest.raises(DomainError):
        classify_lnmgu(ex1, -1.0)


def test_classify_autoshrinks_epsilon(ex1):
    # break-even output 6, demand 4: headroom 2, so epsilon 5 shrinks to 1
    part = classify_lnmgu(ex1, 5.0)
    assert part.epsilon == pytest.approx(1.0, abs=1e-12)
    assert part.large == ("g",)


def test_eps_prices_example_one(ex1):
    ps = mchp_price_set_eps(ex1, 0.5)
    want = 1.0 + 12.0 / 4.5
    assert ps.lo == pytest.approx(want, abs=1e-9)
    assert ps.hi == pytest.approx(want, abs=1e-9)


def test_eps_prices_example_two(ex2):
    ps = mchp_price_set_eps(ex2, 0.01)
    want = 22.4 / 4.01
    assert ps.lo == pytest.approx(want, abs=1e-9)
    assert ps.hi == pytest.approx(want, abs=1e-9)


def test_eps_prices_without_large_units_match_hull():
    inst = make_instance(
        4,
        [
            {"id": "a", "w": 0, "curve": {"quadratic": {"a": 0, "q": 1}}, "x_max": 8},
            {"id": "b", "w": 0, "curve": {"linear": 1}, "x_max": 2},
        ],
    )
    base = price_set(inst.generators, inst.demand)
    capped = mchp_price_set_eps(inst, default_epsilon(inst))
    assert capped.lo == base.lo
    assert capped.hi == base.hi
    assert capped.unbounded_above == base.unbounded_above


def test_limit_prices_example_one(ex1):
    ps, tag = mchp_price_set_limit(ex1)
    assert tag == "lnmgu_marginal"
    assert ps.lo == pytest.approx(4.0, abs=1e-9)
    assert ps.hi == pytest.approx(4.0, abs=1e-9)


def test_limit_prices_example_three(ex3):
    ps, tag = mchp_price_set_limit(ex3)
    assert tag == "lnmgu_irrelevant"
    assert ps.lo == pytest.approx(3.0, abs=1e-9)
    assert ps.hi == pytest.approx(3.0, abs=1e-9)


def test_limit_prices_example_four(ex4):
    ps, tag = mchp_price_set_limit(ex4)
    assert tag == "interval_upper_capped"
    assert ps.lo == pytest.approx(3.0, abs=1e-9)
    assert ps.hi == pytest.approx(4.0, abs=1e-9)
    assert not ps.unbounded_above


def test_limit_prices_without_large_units():
    inst = make_instance(
        4,
        [
            {"id": "a", "w": 0, "curve": {"quadratic": {"a": 0, "q": 1}}, "x_max": 8},
            {"id": "b", "w": 0, "curve": {"linear": 1}, "x_max": 2},
        ],
    )
    ps, tag = mchp_price_set_limit(inst)
    base = price_set(inst.generators, inst.demand)
    assert tag == "no_lnmgu"
    assert ps.lo == base.lo and ps.hi == base.hi


def test_limit_prices_ignore_priced_out_large_unit():
    # the cheap always-on fleet clears alone below the large unit's average
    # cost, so the cap never binds and the hull price survives unchanged
    inst = make_instance(
        4,
        [
            {"id": "base", "w": 0, "curve": {"linear": 3}, "x_max": 10},
            {"id": "big", "w": 40, "curve": {"linear": 0}, "x_max": 20},
        ],
    )
    ps, tag = mchp_price_set_limit(inst)
    assert tag == "lnmgu_irrelevant"
    assert ps.lo == pytest.approx(3.0, abs=1e-9)
    assert ps.hi == pytest.approx(3.0, abs=1e-9)


def test_marginal_limit_set_takes_one_supply_check(ex2, monkeypatch):
    # at demand 6 only g3 is large; the regular fleet {g1, g2} serves
    # demand, but its supply reaches it only above p_bar = 22.4 / 6, so one
    # evaluation at p_bar decides the case without the reduced price set
    counts = count_calls(
        monkeypatch, [hullprice.dual_pricing.aggregate_supply, hullprice.dual_pricing.price_set]
    )
    ps, tag = mchp_price_set_limit(ex2._replace(demand=6.0))
    assert tag == "lnmgu_marginal"
    assert ps == (22.4 / 6, 22.4 / 6)
    assert counts == {"aggregate_supply": 1, "price_set": 0}


def _four_branch_limit(inst):
    """The limit set's case analysis, fed the regular fleet's full price set."""
    part = classify_lnmgu(inst, default_epsilon(inst))
    d = inst.demand
    if not part.large:
        return price_set(inst.generators, d), "no_lnmgu"
    p_bar = part.p_bar
    regulars = [g for g in inst.generators if g.id not in part.large]
    if not regulars or not CapacityRule(d).clears(sum(g.x_max for g in regulars)):
        return PriceSet(p_bar, p_bar), "lnmgu_marginal"
    reduced = price_set(regulars, d)
    if reduced.hi < p_bar - PRICE_TOL:
        return reduced, "lnmgu_irrelevant"
    if reduced.lo >= p_bar - PRICE_TOL:
        return PriceSet(p_bar, p_bar), "lnmgu_marginal"
    return PriceSet(reduced.lo, p_bar), "interval_upper_capped"


# the scalings of the uplift claim across demand, and one that puts every
# p_bar below PRICE_TOL, so that p_bar - PRICE_TOL is a negative price
LIMIT_SCALINGS = [(1.0, 1.0), (1e-3, 1e4), (1e3, 1e-3), (1e6, 1e6), (1e3, 1e-9)]


def test_limit_set_is_the_four_branch_analysis_bit_for_bit(monkeypatch):
    """A marginal case settled by one supply check at p_bar gives the set
    and tag the reduced fleet's full price set gives."""
    counts = count_calls(monkeypatch, [hullprice.dual_pricing.aggregate_supply])
    rng = random.Random(27)
    fired = below_tol = 0
    for mw, money in LIMIT_SCALINGS:
        for _ in range(60):
            fleet = oracles.scale_instance(oracles.random_instance(rng), mw, money)
            for _ in range(6):
                inst = fleet._replace(demand=rng.uniform(0.05, 1.0) * fleet.total_capacity)
                counts["aggregate_supply"] = 0
                ps, tag = mchp_price_set_limit(inst)
                # only the one-check branch evaluates supply exactly once
                fired += counts["aggregate_supply"] == 1
                want_ps, want_tag = _four_branch_limit(inst)
                assert tag == want_tag
                assert [x.hex() for x in ps] == [x.hex() for x in want_ps]
                # a marginal set is {p_bar}
                below_tol += tag == "lnmgu_marginal" and ps.lo < PRICE_TOL
    assert fired >= 50
    assert below_tol > 0


def test_mchp_uplift_example_one(ex1):
    sol = solve_primal(ex1)
    res = mchp_uplifts(ex1, sol, 4.0)
    assert res.case_tag == "lnmgu_marginal"
    assert res.per_generator["g"] == pytest.approx(0.0, abs=1e-9)
    assert res.total_uplift == pytest.approx(0.0, abs=1e-9)


def test_mchp_uplift_example_five(ex5):
    sol = solve_primal(ex5)
    res = mchp_uplifts(ex5, sol, 4.0)
    assert res.per_generator["g1"] == pytest.approx(0.0, abs=1e-9)
    assert res.per_generator["g2"] == pytest.approx(2.0, abs=1e-9)
    assert res.total_uplift == pytest.approx(2.0, abs=1e-9)


def test_mchp_uplift_example_two(ex2):
    sol = solve_primal(ex2)
    res = mchp_uplifts(ex2, sol, 5.6)
    assert res.case_tag == "lnmgu_marginal"
    assert res.per_generator["g1"] == pytest.approx(0.0, abs=1e-9)
    assert res.per_generator["g2"] == pytest.approx(3.7, abs=1e-9)
    assert res.per_generator["g3"] == pytest.approx(0.0, abs=1e-9)
    assert res.total_uplift == pytest.approx(3.7, abs=1e-9)


def test_mchp_uplift_rejects_stale_price(ex1):
    sol = solve_primal(ex1)
    with pytest.raises(StalePriceError):
        mchp_uplifts(ex1, sol, 3.0)  # hull price, below the capped set


def test_diagnostics_example_three(ex3):
    sol = solve_primal(ex3)
    chp = uplifts(ex3, sol, 2.0)
    res = mchp_uplifts(ex3, sol, 3.0)
    assert chp.total_uplift == pytest.approx(4.0, abs=1e-9)
    assert res.total_uplift == pytest.approx(0.0, abs=1e-9)
    report = diagnostics(ex3, sol, chp, res)
    assert report.passed


def test_diagnostics_example_five(ex5):
    sol = solve_primal(ex5)
    chp = uplifts(ex5, sol, 2.0)
    res = mchp_uplifts(ex5, sol, 4.0)
    assert chp.total_uplift == pytest.approx(8.0, abs=1e-9)
    assert res.total_uplift == pytest.approx(2.0, abs=1e-9)
    report = diagnostics(ex5, sol, chp, res)
    assert report.passed


def test_diagnostics_zero_startup_instance():
    inst = make_instance(
        3,
        [
            {"id": "a", "w": 0, "curve": {"quadratic": {"a": 1, "q": 0.5}}, "x_max": 4},
            {"id": "b", "w": 0, "curve": {"linear": 2}, "x_max": 4},
        ],
    )
    sol = solve_primal(inst)
    ps = price_set(inst.generators, inst.demand)
    chp = uplifts(inst, sol, ps.representative("lo"))
    limit, tag = mchp_price_set_limit(inst)
    res = mchp_uplifts(inst, sol, limit.representative("lo"))
    assert tag == "no_lnmgu"
    assert limit.lo == ps.lo and limit.hi == ps.hi
    report = diagnostics(inst, sol, chp, res)
    assert report.passed


def test_mchp_dominates_hull_uplift():
    """Capped settlement always pays out no more than hull settlement.

    It pays the gap between the dispatch cost and the capped fleet's dual
    value, and capping lowers every unit's profit, so that dual value at
    the capped price is at least the hull dual value at the hull price."""
    rng = random.Random(701)
    for _ in range(80):
        inst = oracles.random_instance(rng)
        sol = solve_primal(inst)
        hull = price_set(inst.generators, inst.demand)
        chp = uplifts(inst, sol, hull.representative("lo"))
        limit, _ = mchp_price_set_limit(inst)
        res = mchp_uplifts(inst, sol, limit.representative("lo"))
        room = 1e-12 * sol.total_cost
        assert abs(res.gap - res.total_uplift) <= room
        assert res.dual_value >= chp.dual_value - room
        assert res.total_uplift >= -1e-7
        for v in res.per_generator.values():
            assert v >= -1e-7
        assert res.total_uplift <= chp.total_uplift + 1e-6
        if chp.total_uplift <= 1e-9:
            # nothing to reduce: capped prices must not create new uplift
            assert res.total_uplift <= 1e-6


def test_zero_startup_prices_match_dispatch_marginals():
    """With no start-up costs all three price notions coincide."""
    rng = random.Random(702)
    checked = 0
    for _ in range(60):
        inst = oracles.random_instance(rng, force_zero_w=True)
        hull = price_set(inst.generators, inst.demand)
        if hull.unbounded_above:
            continue
        limit, tag = mchp_price_set_limit(inst)
        assert tag == "no_lnmgu"
        assert limit.lo == hull.lo and limit.hi == hull.hi
        lo, hi = oracles.level_set_price_interval(
            inst.generators, inst.demand
        )
        assert hull.lo == pytest.approx(lo, abs=1e-9)
        assert hull.hi == pytest.approx(hi, abs=1e-9)
        checked += 1
    assert checked > 30


def test_eps_prices_approach_limit_from_below():
    """Shrinking the margin raises both endpoints toward the closed form."""
    rng = random.Random(703)
    checked = 0
    for _ in range(200):
        inst = oracles.random_instance(rng, allow_ray=False)
        part = classify_lnmgu(inst, default_epsilon(inst))
        if not part.large:
            continue
        d = inst.demand
        limit, _ = mchp_price_set_limit(inst)
        prev_lo = prev_hi = -float("inf")
        for scale in (1e-3, 1e-4, 1e-5):
            ps = mchp_price_set_eps(inst, scale * d)
            assert not ps.unbounded_above
            assert ps.lo >= prev_lo - 1e-9
            assert ps.hi >= prev_hi - 1e-9
            assert ps.lo <= limit.lo + 1e-9
            assert ps.hi <= limit.hi + 1e-9
            prev_lo, prev_hi = ps.lo, ps.hi
            # no clearing price can exceed the binding unit's average cost
            # at its cap: one step above it the capped unit floods demand
            part_eps = classify_lnmgu(inst, scale * d)
            at = d + part_eps.epsilon
            ceiling = min(
                (g.startup_cost + oracles.curve_value(g.curve, at)) / at
                for g in inst.generators
                if g.id in part_eps.large
            )
            assert ps.hi <= ceiling + 1e-9
        checked += 1
    assert checked > 40


def test_large_units_never_profit_at_limit_price():
    """At the closed-form price every capped unit breaks even at best."""
    rng = random.Random(704)
    checked = 0
    for _ in range(150):
        inst = oracles.random_instance(rng, allow_ray=False)
        part = classify_lnmgu(inst, default_epsilon(inst))
        if not part.large:
            continue
        sol = solve_primal(inst)
        limit, _ = mchp_price_set_limit(inst)
        res = mchp_uplifts(inst, sol, limit.representative("hi"))
        large = [g for g in inst.generators if g.id in part.large]
        for g in large:
            cap = min(inst.demand, g.x_max)
            p = limit.representative("hi")
            best = max(
                0.0,
                p * cap - g.startup_cost - oracles.curve_value(g.curve, cap),
            )
            assert best <= 1e-7
        checked += 1
    assert checked > 30
