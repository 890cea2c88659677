"""Clearing-price sets, dual values and make-whole settlement."""

import math
import random

import pytest

from hullprice import (
    GeneratorSpec,
    PiecewiseLinear,
    PriceSet,
    Quadratic,
    StalePriceError,
    aggregate_supply,
    classify_lnmgu,
    dual_value,
    ec_min,
    hull_cost,
    price_set,
    solve_primal,
    supply_correspondence,
    uplifts,
)
from hullprice.market_model import CapacityRule
from hullprice.mchp import default_epsilon
from hullprice.tolerances import PRICE_EQ_TOL

import oracles
from conftest import make_instance


def test_price_set_example_one(ex1):
    ps = price_set(ex1.generators, ex1.demand)
    assert ps.lo == pytest.approx(3.0, abs=1e-9)
    assert ps.hi == pytest.approx(3.0, abs=1e-9)
    assert not ps.unbounded_above


def test_price_set_example_two(ex2):
    ps = price_set(ex2.generators, ex2.demand)
    assert ps.lo == pytest.approx(2.8, abs=1e-9)
    assert ps.hi == pytest.approx(2.8, abs=1e-9)


def test_price_set_example_four(ex4):
    ps = price_set(ex4.generators, ex4.demand)
    assert ps.lo == pytest.approx(2.0, abs=1e-9)
    assert ps.hi == pytest.approx(2.0, abs=1e-9)


def test_price_set_respects_cap_override(ex1):
    # a capped unit is the unit with a lower x_max; below its knee, its
    # break-even price is its average cost at the cap, and a curve that
    # runs past the cap prices as if cut there
    pwl = PiecewiseLinear(((2.0, 1.0), (6.0, 3.0)))
    kinked = PiecewiseLinear(((2.0, 1.0), (4.0, 3.0), (8.0, 5.0)))
    cases = [
        # ex1 at cap 5: (12 + 5) / 5
        (ex1.generators[0]._replace(x_max=5.0), ex1.demand, 3.4),
        # inside the second segment: (6 + 2 + 3 * 2) / 4
        (GeneratorSpec("pwl", 6.0, pwl, 4.0), 3.0, 3.5),
        # at the kink at 4, whose own knee is 8: (20 + 2 + 3 * 2) / 4
        (GeneratorSpec("kink", 20.0, kinked, 4.0), 3.0, 7.0),
        # knee sqrt(2 * 8 / 1) = 4, capped at 2: (8 + 2 + 0.5 * 4) / 2
        (GeneratorSpec("quad", 8.0, Quadratic(1.0, 1.0), 2.0), 1.0, 6.0),
    ]
    for unit, demand, want in cases:
        ps = price_set([unit], demand)
        assert ps.lo == pytest.approx(want, abs=1e-9), unit.id
        assert ps.hi == pytest.approx(want, abs=1e-9), unit.id


def test_aggregate_supply_examples(ex1, ex2):
    s = aggregate_supply(ex1.generators, 3.0)
    assert s.lo == pytest.approx(0.0, abs=1e-12)
    assert s.hi == pytest.approx(6.0, abs=1e-12)

    s = aggregate_supply(ex2.generators, 2.8)
    assert s.lo == pytest.approx(1.0, abs=1e-12)
    assert s.hi == pytest.approx(9.0, abs=1e-12)

    s = aggregate_supply(ex2.generators, -1.0)
    assert s.lo == 0.0 and s.hi == 0.0


def test_dual_value_examples(ex1, ex2):
    assert dual_value(ex1.generators, 4.0, 3.0) == pytest.approx(12.0, abs=1e-9)
    assert dual_value(ex2.generators, 4.0, 2.8) == pytest.approx(8.4, abs=1e-9)
    assert dual_value(ex1.generators, 4.0, 0.0) == 0.0
    assert dual_value(ex2.generators, 4.0, 0.0) == 0.0


def test_uplift_example_one(ex1):
    sol = solve_primal(ex1)
    rep = uplifts(ex1, sol, 3.0)
    assert rep.per_generator["g"] == pytest.approx(4.0, abs=1e-9)
    assert rep.total_uplift == pytest.approx(4.0, abs=1e-9)
    assert rep.dual_value == pytest.approx(12.0, abs=1e-9)
    assert rep.gap == pytest.approx(4.0, abs=1e-9)


def test_uplift_example_two(ex2):
    sol = solve_primal(ex2)
    rep = uplifts(ex2, sol, 2.8)
    assert rep.per_generator["g1"] == pytest.approx(0.0, abs=1e-9)
    assert rep.per_generator["g2"] == pytest.approx(12.1, abs=1e-9)
    assert rep.per_generator["g3"] == pytest.approx(0.0, abs=1e-9)
    assert rep.total_uplift == pytest.approx(12.1, abs=1e-9)


def test_uplift_example_three(ex3):
    sol = solve_primal(ex3)
    rep = uplifts(ex3, sol, 2.0)
    assert rep.per_generator["g1"] == pytest.approx(0.0, abs=1e-9)
    assert rep.per_generator["g2"] == pytest.approx(4.0, abs=1e-9)
    assert rep.gap == pytest.approx(4.0, abs=1e-9)


def test_uplift_rejects_stale_price(ex1):
    sol = solve_primal(ex1)
    with pytest.raises(StalePriceError):
        uplifts(ex1, sol, 10.0)
    with pytest.raises(StalePriceError):
        uplifts(ex1, sol, -1.0)


def test_ray_when_capacity_equals_demand():
    inst = make_instance(
        5,
        [
            {"id": "g1", "w": 2, "curve": {"linear": 1}, "x_max": 2},
            {"id": "g2", "w": 3, "curve": {"quadratic": {"a": 0, "q": 1}}, "x_max": 3},
        ],
    )
    ps = price_set(inst.generators, inst.demand)
    assert ps.unbounded_above
    assert math.isinf(ps.hi)
    for kind in ("lo", "mid", "hi"):
        assert ps.representative(kind) == ps.lo
    sol = solve_primal(inst)
    for p in (ps.lo, ps.lo + 5.0):
        rep = uplifts(inst, sol, p)
        assert rep.total_uplift == pytest.approx(rep.gap, abs=1e-9)
        assert rep.total_uplift >= -1e-9
    with pytest.raises(StalePriceError, match=r"clearing set \[[0-9.]+, inf\]$"):
        uplifts(inst, sol, ps.lo - 1.0)


def test_price_set_interval_from_flat_supply():
    # kinked curve with the kink right at demand: every price between the
    # two slopes clears, and the whole interval settles at zero uplift
    inst = make_instance(
        2,
        [{"id": "g", "w": 3, "curve": {"pwl": [[2, 1], [6, 5]]}, "x_max": 6}],
    )
    ps = price_set(inst.generators, inst.demand)
    assert ps.lo == pytest.approx(2.5, abs=1e-9)
    assert ps.hi == pytest.approx(5.0, abs=1e-9)
    sol = solve_primal(inst)
    totals = [
        uplifts(inst, sol, ps.representative(kind)).total_uplift
        for kind in ("lo", "mid", "hi")
    ]
    for t in totals:
        assert t == pytest.approx(totals[0], abs=1e-6)
        assert t == pytest.approx(0.0, abs=1e-6)


def test_representative_kinds():
    ps = PriceSet(1.0, 3.0)
    assert ps.representative("lo") == 1.0
    assert ps.representative("mid") == 2.0
    assert ps.representative("hi") == 3.0
    with pytest.raises(ValueError):
        ps.representative("median")
    assert not ps.is_singleton()
    assert PriceSet(2.0, 2.0).is_singleton()
    assert ps.contains(1.0) and ps.contains(3.0) and not ps.contains(3.5)
    ray = PriceSet(1.0, math.inf)
    assert ray.unbounded_above and not ps.unbounded_above
    assert ray.contains(1e9) and not ray.contains(0.5) and not ray.is_singleton()
    assert [ray.representative(kind) for kind in ("lo", "mid", "hi")] == [1.0] * 3


def test_total_uplift_equals_gap_at_every_representative():
    """Settlement books balance: sum of make-wholes is the duality gap."""
    rng = random.Random(601)
    for _ in range(60):
        inst = oracles.random_instance(rng)
        sol = solve_primal(inst)
        ps = price_set(inst.generators, inst.demand)
        kinds = ("lo",) if ps.unbounded_above else ("lo", "mid", "hi")
        totals = []
        for kind in kinds:
            rep = uplifts(inst, sol, ps.representative(kind))
            assert rep.total_uplift == pytest.approx(rep.gap, abs=1e-7)
            assert rep.gap >= -1e-7
            for v in rep.per_generator.values():
                assert v >= -1e-7  # make-whole payments never claw back
            totals.append(rep.total_uplift)
        for t in totals[1:]:
            # the dual is flat across the clearing set, so the total paid
            # cannot depend on which end of the interval settles
            assert t == pytest.approx(totals[0], abs=1e-6)


def test_clearing_prices_support_demand():
    rng = random.Random(602)
    for _ in range(60):
        inst = oracles.random_instance(rng)
        gens, d = inst.generators, inst.demand
        ps = price_set(gens, d)
        probes = [ps.lo] if ps.unbounded_above else [ps.lo, ps.hi]
        for p in probes:
            # endpoints come out of bisection, so the supplied range is
            # sampled a hair to each side of the located price
            wide_lo = aggregate_supply(gens, p - 1e-9).lo
            wide_hi = aggregate_supply(gens, p + 1e-9).hi
            assert wide_lo - 1e-6 <= d <= wide_hi + 1e-6
        if ps.lo > 1e-3:
            assert aggregate_supply(gens, ps.lo - 1e-3).hi < d
        if not ps.unbounded_above:
            assert aggregate_supply(gens, ps.hi + 1e-3).lo > d


def test_oversized_units_cap_the_clearing_price():
    """A unit whose break-even output exceeds demand bounds the price by
    its average cost there: any higher price floods the market."""
    rng = random.Random(603)
    checked = 0
    for _ in range(250):
        inst = oracles.random_instance(rng, allow_ray=False)
        gens, d = inst.generators, inst.demand
        ceilings = []
        for g in gens:
            knee = min(oracles.bisect_ec_min(g), g.x_max)
            if knee > d + 1e-6:
                avg = (g.startup_cost + oracles.curve_value(g.curve, knee)) / knee
                ceilings.append(avg)
        if not ceilings:
            continue
        ps = price_set(gens, d)
        assert not ps.unbounded_above
        assert ps.hi <= min(ceilings) + 1e-7
        checked += 1
    assert checked > 20


def test_weak_duality():
    rng = random.Random(604)
    for _ in range(40):
        inst = oracles.random_instance(rng)
        gens, d = inst.generators, inst.demand
        v = solve_primal(inst).total_cost
        ps = price_set(gens, d)
        hi = ps.lo + 2.0 if ps.unbounded_above else ps.hi
        for p in (0.0, 0.5 * ps.lo, ps.lo, hi, hi + 1.0, hi + 10.0):
            assert dual_value(gens, d, p) <= v + 1e-7 * max(1.0, abs(v))


def _supply_breaks(units):
    """Each unit's threshold +- PRICE_EQ_TOL, PWL slopes and quadratic ramp ends,
    with the float on either side of each."""
    breaks = []
    for g in units:
        hull = hull_cost(g)
        edges = [hull.threshold - PRICE_EQ_TOL, hull.threshold, hull.threshold + PRICE_EQ_TOL]
        if isinstance(g.curve, Quadratic):
            edges += [g.curve.a + g.curve.q * hull.knee, g.curve.a + g.curve.q * g.x_max]
        else:
            edges += [slope for _, slope in g.curve.segments]
        for p in edges:
            breaks += [math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)]
    return breaks


def _lnmgu_caps(inst):
    """The fleets of the two capped rules, at half the fleet's largest
    minimal economic output, where the unit with that output is an LNMGU:
    large units capped at served(x_max), and the binding one at demand +
    epsilon.  A capped unit is the unit with a lower x_max."""
    gens = inst.generators
    knee = max(ec_min(g) for g in gens)
    if knee == 0.0:
        return []
    inst = inst._replace(demand=0.5 * knee)
    part = classify_lnmgu(inst, default_epsilon(inst))
    assert part.large
    served = CapacityRule(inst.demand).served
    binding = inst.demand + part.epsilon
    return [
        [g._replace(x_max=served(g.x_max)) if g.id in part.large else g for g in gens],
        [g._replace(x_max=binding) if g.id == part.min_avg_id else g for g in gens],
    ]


def test_aggregate_supply_sums_each_units_supply_correspondence():
    # aggregate_supply sums the ends supply_correspondence returns, left
    # to right, float for float; the band around each threshold decides
    rng = random.Random(24)
    for _ in range(150):
        gens = list(oracles.random_instance(rng).generators)
        for p in _supply_breaks(gens):
            lo = hi = 0.0
            for g in gens:
                s = supply_correspondence(g, p)
                lo += s.lo
                hi += s.hi
            got = aggregate_supply(gens, p)
            assert (got.lo.hex(), got.hi.hex()) == (lo.hex(), hi.hex()), p


@pytest.mark.parametrize("mw, money", [(1.0, 1.0), (1e-3, 1e4), (1e3, 1e-3), (1e6, 1e6)])
def test_aggregate_supply_never_falls_as_price_rises(mw, money):
    # a sweep's memo decides a bisection step from a supply known at
    # another price, which is exact only if both ends of aggregate supply
    # are nondecreasing in p float for float, rounding included
    rng = random.Random(18)
    fleets = [oracles.random_instance(rng) for _ in range(24)]
    fleets += [oracles.mixed_fleet(rng, 8) for _ in range(4)]
    capped = 0
    for inst in fleets:
        inst = oracles.scale_instance(inst, mw, money)
        gens = list(inst.generators)
        capped_fleets = _lnmgu_caps(inst)
        capped += len(capped_fleets)
        for units in [gens] + capped_fleets:
            # the oracle reads the caps against the uncapped units
            caps = [u.x_max for u in units]
            top = oracles.price_grid_upper_bound(gens, caps)
            grid = [top * k / 150 for k in range(151)]
            prices = sorted(p for p in grid + _supply_breaks(units) if p >= 0.0)
            supplies = [aggregate_supply(units, p) for p in prices]
            for below, above, p in zip(supplies, supplies[1:], prices[1:]):
                assert below.lo <= above.lo and below.hi <= above.hi, p
    assert capped >= 20
