"""Acceptance gate: the headline requirements, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import math
import random
import time

import numpy as np
import pytest

from hullprice import (
    dual_value,
    classify_lnmgu,
    ec_min,
    load_sweep,
    mchp_price_set_limit,
    mchp_uplifts,
    price_set,
    run_pipeline,
    solve_primal,
    uplifts,
)
from hullprice.mchp import mchp_price_set_eps

import oracles
import test_properties
from conftest import SQRT32


def _ok(num, text):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_single_unit_closed_forms(ex1):
    rep = run_pipeline(ex1)
    assert rep.chp.price_set.lo == pytest.approx(3.0, abs=1e-9)
    assert rep.chp.price_set.hi == pytest.approx(3.0, abs=1e-9)
    assert rep.chp.total_uplift == pytest.approx(4.0, abs=1e-9)
    assert rep.mchp.price_set.lo == pytest.approx(4.0, abs=1e-9)
    assert rep.mchp.price_set.hi == pytest.approx(4.0, abs=1e-9)
    assert rep.mchp.total_uplift == pytest.approx(0.0, abs=1e-9)

    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        run_pipeline(ex1)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.010
    _ok(1, f"prices 3/4, uplifts 4/0, pipeline best-of-3 {best * 1000:.2f} ms")


def test_criterion_2_three_unit_fixture(ex2):
    gens, d = list(ex2.generators), ex2.demand
    sol = solve_primal(ex2)
    assert sol.total_cost == pytest.approx(20.5, abs=1e-6)
    g1, g2, g3 = sol.schedule
    assert g1.output == pytest.approx(1.0, abs=1e-6)
    assert g2.output == pytest.approx(3.0, abs=1e-6)
    assert not g3.on

    assert ec_min(gens[0]) == pytest.approx(0.0, abs=1e-6)
    assert ec_min(gens[1]) == pytest.approx(SQRT32, abs=1e-6)
    assert ec_min(gens[2]) == pytest.approx(8.0, abs=1e-6)

    ps = price_set(gens, d)
    assert ps.lo == pytest.approx(2.8, abs=1e-6)
    assert ps.hi == pytest.approx(2.8, abs=1e-6)
    chp = uplifts(ex2, sol, ps.representative("lo"))
    for gid, want in (("g1", 0.0), ("g2", 12.1), ("g3", 0.0)):
        assert chp.per_generator[gid] == pytest.approx(want, abs=1e-6)

    limit, _ = mchp_price_set_limit(ex2)
    assert limit.lo == pytest.approx(5.6, abs=1e-6)
    assert limit.hi == pytest.approx(5.6, abs=1e-6)
    res = mchp_uplifts(ex2, sol, limit.representative("lo"))
    for gid, want in (("g1", 0.0), ("g2", 3.7), ("g3", 0.0)):
        assert res.per_generator[gid] == pytest.approx(want, abs=1e-6)

    # independent cross-checks against brute force on a 10^4-point grid
    assert oracles.grid_dual(gens, d, 2.8) == pytest.approx(
        dual_value(gens, d, 2.8), abs=1e-6
    )
    grid = np.linspace(0.0, oracles.price_grid_upper_bound(gens), 10_000)
    step = float(grid[1] - grid[0])
    lo_loc, hi_loc = oracles.located_price_interval(gens, d, grid, npts=200)
    assert abs(lo_loc - 2.8) <= step + 1e-9
    assert abs(hi_loc - 2.8) <= step + 1e-9

    eps = 1e-3 * d
    cgens, caps = oracles.capped_fleet(ex2, classify_lnmgu(ex2, eps))
    cps = mchp_price_set_eps(ex2, eps)
    assert cps.lo == pytest.approx(22.4 / (4.0 + eps), abs=1e-9)
    assert cps.lo < 5.6 < cps.lo + 0.01
    grid2 = np.linspace(0.0, oracles.price_grid_upper_bound(cgens, caps), 10_000)
    step2 = float(grid2[1] - grid2[0])
    lo2, hi2 = oracles.located_price_interval(cgens, d, grid2, caps=caps, npts=200)
    assert abs(lo2 - cps.lo) <= step2 + 1e-9
    assert abs(hi2 - cps.hi) <= step2 + 1e-9
    _ok(2, "dispatch (1, 3, OFF), v 20.5, prices 2.8/5.6, grid oracle agrees")


def test_criterion_3_two_unit_family(ex3, ex4, ex5):
    sol3 = solve_primal(ex3)
    ps3 = price_set(ex3.generators, ex3.demand)
    assert ps3.lo == pytest.approx(2.0, abs=1e-9)
    chp3 = uplifts(ex3, sol3, ps3.representative("lo"))
    assert chp3.per_generator["g1"] == pytest.approx(0.0, abs=1e-9)
    assert chp3.per_generator["g2"] == pytest.approx(4.0, abs=1e-9)
    limit3, tag3 = mchp_price_set_limit(ex3)
    assert tag3 == "lnmgu_irrelevant"
    assert limit3.lo == pytest.approx(3.0, abs=1e-9)
    assert limit3.hi == pytest.approx(3.0, abs=1e-9)
    res3 = mchp_uplifts(ex3, sol3, 3.0)
    assert res3.total_uplift == pytest.approx(0.0, abs=1e-9)

    ps4 = price_set(ex4.generators, ex4.demand)
    assert ps4.lo == pytest.approx(2.0, abs=1e-9)
    assert ps4.hi == pytest.approx(2.0, abs=1e-9)
    limit4, tag4 = mchp_price_set_limit(ex4)
    assert tag4 == "interval_upper_capped"
    assert limit4.lo == pytest.approx(3.0, abs=1e-9)
    assert limit4.hi == pytest.approx(4.0, abs=1e-9)

    sol5 = solve_primal(ex5)
    ps5 = price_set(ex5.generators, ex5.demand)
    assert ps5.lo == pytest.approx(2.0, abs=1e-9)
    chp5 = uplifts(ex5, sol5, ps5.representative("lo"))
    assert chp5.total_uplift == pytest.approx(8.0, abs=1e-9)
    limit5, tag5 = mchp_price_set_limit(ex5)
    assert tag5 == "lnmgu_marginal"
    assert limit5.lo == pytest.approx(4.0, abs=1e-9)
    res5 = mchp_uplifts(ex5, sol5, 4.0)
    assert res5.per_generator["g1"] == pytest.approx(0.0, abs=1e-9)
    assert res5.per_generator["g2"] == pytest.approx(2.0, abs=1e-9)
    assert res5.total_uplift == pytest.approx(2.0, abs=1e-9)
    _ok(3, "price sets {2}->{3}, [3,4], {4} and uplifts 4/0, 8/2 as itemized")


def test_criterion_4_thousand_instance_properties():
    t0 = time.perf_counter()
    test_properties.test_thousand_instance_property_sweep()
    _ok(4, f"1000-instance property sweep in {time.perf_counter() - t0:.1f} s")


def test_criterion_5_grid_oracle_equivalence():
    test_properties.test_grid_dual_locates_both_price_sets()
    _ok(5, "bisected price sets within one grid step of brute force, 200 fleets")


def test_criterion_6_epsilon_convergence(ex1):
    limit, _ = mchp_price_set_limit(ex1)
    assert limit.lo == pytest.approx(4.0, abs=1e-9)
    prev = -math.inf
    for eps in (0.5, 0.05, 0.005):
        ps = mchp_price_set_eps(ex1, eps)
        want = 1.0 + 12.0 / (4.0 + eps)
        assert ps.lo == pytest.approx(want, abs=1e-9)
        assert ps.hi == pytest.approx(want, abs=1e-9)
        assert ps.lo > prev  # price rises as the margin shrinks
        assert ps.lo < limit.lo
        prev = ps.lo
    _ok(6, "eps prices match 1 + 12/(4+eps) and rise toward the limit 4")


def test_criterion_7_load_sweep_monotonicity(ex1):
    rows = load_sweep(ex1, [2.0, 4.0, 5.0])
    mchp_lo = [r.mchp.lo for r in rows]
    assert mchp_lo == pytest.approx([7.0, 4.0, 3.4], abs=1e-9)
    assert mchp_lo[0] > mchp_lo[1] > mchp_lo[2]
    chp_lo = [r.chp.lo for r in rows]
    assert chp_lo == pytest.approx([3.0, 3.0, 3.0], abs=1e-9)

    rng = random.Random(805)
    for _ in range(12):
        inst = oracles.random_instance(rng, allow_ray=False)
        total = inst.total_capacity
        grid = np.linspace(0.3 * total, 0.999 * total, 8)
        swept = load_sweep(inst, [float(x) for x in grid])
        assert all(r.error is None for r in swept)
        for prev, cur in zip(swept, swept[1:]):
            assert cur.chp.lo >= prev.chp.lo - 1e-9
            prev_hi = prev.chp.lo if prev.chp.unbounded_above else prev.chp.hi
            cur_hi = cur.chp.lo if cur.chp.unbounded_above else cur.chp.hi
            if not (prev.chp.unbounded_above or cur.chp.unbounded_above):
                assert cur_hi >= prev_hi - 1e-9
    _ok(7, "hull prices nondecreasing in load; single-unit capped price falls")
