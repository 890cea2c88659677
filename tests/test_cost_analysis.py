"""Per-generator analysis: hulls, minimal economic output, profit, supply."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullprice import (
    DomainError,
    GeneratorSpec,
    Interval,
    PiecewiseLinear,
    Quadratic,
    ec_min,
    hull_cost,
    profit,
    supply_correspondence,
)
from hullprice.cost_analysis import average_total_cost, cost_eval

import oracles
from conftest import make_instance

SQRT32 = math.sqrt(32.0)


def lin_gen(w, a, x_max, gid="g"):
    x_max = float(x_max)
    return GeneratorSpec(gid, float(w), PiecewiseLinear(((x_max, float(a)),)), x_max)


def quad_gen(w, a, q, x_max, gid="g"):
    return GeneratorSpec(gid, float(w), Quadratic(float(a), float(q)), float(x_max))


def pwl_gen(w, segments, gid="g"):
    segs = tuple((float(r), float(s)) for r, s in segments)
    return GeneratorSpec(gid, float(w), PiecewiseLinear(segs), segs[-1][0])


EX1_GEN = lin_gen(12, 1, 6)
EX2_G2 = quad_gen(16, 0, 1, 8)
EX2_G3 = lin_gen(22.4, 0, 8)


def test_interval_rejects_endpoints_out_of_order():
    with pytest.raises(ValueError, match="out of order"):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError, match="out of order"):
        Interval(lo=2.0, hi=1.0)
    assert Interval(1.0, 1.0) == (1.0, 1.0)


# ------------------------------------------------------------- cost_eval


def test_cost_eval_examples():
    assert cost_eval(EX1_GEN, 4, True) == 16
    assert cost_eval(EX1_GEN, 0, False) == 0
    assert cost_eval(EX2_G2, 3, True) == pytest.approx(20.5, abs=1e-12)


def test_cost_eval_domain_errors():
    with pytest.raises(DomainError):
        cost_eval(EX1_GEN, 7, True)
    with pytest.raises(DomainError):
        cost_eval(EX1_GEN, -1, True)
    with pytest.raises(DomainError):
        cost_eval(EX1_GEN, 2, False)  # positive output while off


def test_cost_eval_boundary_tolerance_is_fixed():
    # outputs up to 1e-7 MW past x_max count as x_max
    assert cost_eval(EX1_GEN, 6 + 5e-8, True) == 18
    with pytest.raises(DomainError):
        cost_eval(EX1_GEN, 6 + 1e-6, True)


# ---------------------------------------------------------- curve slopes


def test_slopes_quadratic_interior():
    c = quad_gen(0, 0, 1, 8).curve
    assert (c.slope_left(3), c.slope_right(3)) == (3, 3)


def test_slopes_pwl_kink():
    c = pwl_gen(0, [(1, 2), (4, 5)]).curve
    assert (c.slope_left(1), c.slope_right(1)) == (2, 5)


def test_slopes_linear_and_boundaries():
    c = lin_gen(0, 1, 6).curve
    assert (c.slope_left(3), c.slope_right(3)) == (1, 1)
    # at the ends of a PWL domain the one slope there stands in for both
    c = pwl_gen(0, [(1, 2), (4, 5)]).curve
    assert c.slope_left(0) == c.slope_right(0) == 2
    assert c.slope_left(4) == c.slope_right(4) == 5


# ----------------------------------------------------- average_total_cost


def test_average_total_cost_examples():
    assert average_total_cost(EX1_GEN, 6) == 3
    assert average_total_cost(lin_gen(0, 1, 5), 5) == 1
    assert average_total_cost(EX2_G3, 8) == pytest.approx(2.8, abs=1e-12)
    with pytest.raises(DomainError):
        average_total_cost(EX1_GEN, 0)
    with pytest.raises(DomainError):
        average_total_cost(EX1_GEN, 6.5)


# ----------------------------------------------------------------- ec_min


def test_ec_min_linear_is_capacity():
    assert ec_min(EX1_GEN) == 6


def test_ec_min_zero_startup_is_zero():
    assert ec_min(lin_gen(0, 1, 6)) == 0
    assert ec_min(quad_gen(0, 1, 2, 4)) == 0
    assert ec_min(pwl_gen(0, [(1, 1), (2, 3)])) == 0


def test_ec_min_quadratic_closed_form():
    assert ec_min(EX2_G2) == pytest.approx(SQRT32, abs=1e-12)
    # the linear coefficient must not move it
    assert ec_min(quad_gen(16, 2.5, 1, 8)) == pytest.approx(SQRT32, abs=1e-12)


def test_ec_min_quadratic_above_cap_clips():
    g = quad_gen(16, 0, 1, 4)  # sqrt(32) > 4
    assert ec_min(g) == 4


def test_ec_min_pwl_kink():
    # h jumps at kinks; crossing at the first kink where x * next slope
    # covers average cost: 2 * 5 - 6 - 2 = 2 >= 0 at x=2
    g = pwl_gen(6, [(2, 1), (5, 5)])
    assert ec_min(g) == 2
    # raising w past the jump pushes the knee to the next kink / cap
    g2 = pwl_gen(9, [(2, 1), (5, 5)])
    assert 2 < ec_min(g2) <= 5


def test_ec_min_with_cap_argument():
    # a capped unit is the unit with a lower x_max
    assert ec_min(EX2_G2._replace(x_max=5)) == 5
    assert ec_min(EX2_G2._replace(x_max=6)) == pytest.approx(SQRT32, abs=1e-12)


def test_ec_min_matches_bisection_oracle():
    rng = random.Random(77)
    for _ in range(120):
        inst = oracles.random_instance(rng)
        for g in inst.generators:
            assert ec_min(g) == pytest.approx(oracles.bisect_ec_min(g), abs=1e-9)
    # long curves, each also capped below its last kink
    rng = random.Random("long")
    interior = [0, 0]
    for nseg in (100, 300, 1000, 2000):
        for _ in range(6):
            (g,) = make_instance(1, [oracles.long_pwl_unit(rng, nseg)]).generators
            capped = g._replace(x_max=round(g.x_max * rng.uniform(0.5, 0.99), 6))
            for k, unit in enumerate((g, capped)):
                knee = ec_min(unit)
                interior[k] += knee < unit.x_max
                assert knee == pytest.approx(oracles.bisect_ec_min(unit), abs=1e-9), nseg
    # the knee falls inside some curves and caps, and at x_max for others
    assert min(interior) >= 3 and max(interior) <= 20


@given(
    w=st.floats(min_value=0.01, max_value=50),
    q=st.floats(min_value=0.05, max_value=5),
    a=st.floats(min_value=0, max_value=5),
    x_max=st.floats(min_value=0.5, max_value=20),
)
@settings(max_examples=120, deadline=None)
def test_ec_min_quadratic_hypothesis(w, q, a, x_max):
    g = quad_gen(w, a, q, x_max)
    expected = min(math.sqrt(2 * w / q), x_max)
    assert ec_min(g) == pytest.approx(expected, abs=1e-9)


# -------------------------------------------------------------- hull_cost


def test_hull_example_chord_to_capacity():
    hull = hull_cost(EX1_GEN)
    assert hull.threshold == pytest.approx(3, abs=1e-12)
    assert hull.knee == 6
    assert oracles.hull_value(EX1_GEN, hull, 3) == pytest.approx(9, abs=1e-12)
    assert oracles.hull_value(EX1_GEN, hull, 6) == pytest.approx(18, abs=1e-12)


def test_hull_zero_startup_is_curve_itself():
    g = quad_gen(0, 1, 2, 4)
    hull = hull_cost(g)
    assert hull.knee == 0
    assert hull.threshold == 1  # right slope at 0
    for x in (0.0, 1.3, 4.0):
        assert oracles.hull_value(g, hull, x) == pytest.approx(g.curve.value(x), abs=1e-12)


def test_hull_capped_below_knee():
    hull = hull_cost(EX2_G2._replace(x_max=5))
    assert hull.knee == 5
    assert hull.threshold == pytest.approx((16 + 12.5) / 5, abs=1e-12)  # 5.7


def test_hull_matches_geometric_oracle():
    rng = random.Random(401)
    for _ in range(40):
        inst = oracles.random_instance(rng)
        for g in inst.generators:
            hull = hull_cost(g)
            xs = np.linspace(0.0, g.x_max, 257)
            got = np.array([oracles.hull_value(g, hull, x) for x in xs])
            want = oracles.hull_values(g, xs, npts=20_001)
            assert np.max(np.abs(got - want)) < 1e-4 * max(1.0, want.max())


def test_hull_dominance_and_contact_set():
    rng = random.Random(402)
    for _ in range(60):
        inst = oracles.random_instance(rng)
        for g in inst.generators:
            hull = hull_cost(g)
            xs = np.linspace(0.0, g.x_max, 1000)
            for x in xs:
                f = 0.0 if x == 0.0 else g.startup_cost + g.curve.value(x)
                fh = oracles.hull_value(g, hull, x)
                assert fh <= f + 1e-9
                if x == 0.0 or x >= hull.knee - 1e-12:
                    assert fh == pytest.approx(f, abs=1e-9)


# ----------------------------------------------------------------- profit


def test_profit_threshold_tie_example():
    assert profit(EX1_GEN, 3) == pytest.approx(0, abs=1e-12)


def test_profit_nonpositive_price():
    assert profit(EX1_GEN, 0) == 0
    assert profit(EX1_GEN, -2) == 0


def test_profit_capped_quadratic_stays_off():
    # 5.6 * 4 - 16 - 8 = -1.6: running never pays at this cap
    assert profit(EX2_G2._replace(x_max=4.0), 5.6) == 0


def test_profit_strictly_on():
    assert profit(EX1_GEN, 5) == pytest.approx(5 * 6 - 12 - 6, abs=1e-12)


def test_profit_matches_grid_oracle():
    rng = random.Random(403)
    for _ in range(50):
        inst = oracles.random_instance(rng)
        for g in inst.generators:
            for p in (0.0, 0.7, 1.9, 3.4, 6.0, 11.0):
                want = oracles.grid_profit(g, p, npts=20_000)
                got = profit(g, p)
                # grid underestimates by at most slope * spacing
                assert got >= want - 1e-9
                assert got <= want + 2e-3 * max(1.0, p)


def test_profit_is_hull_conjugate():
    rng = random.Random(404)
    for _ in range(40):
        inst = oracles.random_instance(rng)
        for g in inst.generators:
            hull = hull_cost(g)
            # candidate maximizers (kinks, ends, stationary points) join the
            # grid so the discretized conjugate is exact, not just close
            cands = [0.0, hull.knee, g.x_max]
            if isinstance(g.curve, PiecewiseLinear):
                cands += [r for r, _ in g.curve.segments]
            base = np.linspace(0.0, g.x_max, 2000)
            for p in (0.3, 1.1, 2.7, 4.5, 8.0):
                pts = list(cands)
                if isinstance(g.curve, Quadratic):
                    pts.append(min(max((p - g.curve.a) / g.curve.q, 0.0), g.x_max))
                xs = np.concatenate([base, np.asarray(pts)])
                fh = np.array([oracles.hull_value(g, hull, x) for x in xs])
                want = float(np.max(p * xs - fh))
                assert profit(g, p) == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------- supply correspondence


def test_supply_threshold_cases_example():
    s = supply_correspondence(EX1_GEN, 3)
    assert (s.lo, s.hi) == (0, 6)
    s = supply_correspondence(EX1_GEN, 2.9)
    assert (s.lo, s.hi) == (0, 0)
    s = supply_correspondence(EX1_GEN, 3.1)
    assert (s.lo, s.hi) == (6, 6)


def test_supply_capped_quadratic_threshold_pattern():
    eps = 0.25
    cap = 4 + eps
    thr = (16 + cap * cap / 2) / cap
    capped = EX2_G2._replace(x_max=cap)
    s = supply_correspondence(capped, thr + 0.01)
    assert s.lo == pytest.approx(cap, abs=1e-9)
    assert s.hi == pytest.approx(cap, abs=1e-9)
    s = supply_correspondence(capped, thr - 0.01)
    assert (s.lo, s.hi) == (0, 0)
    s = supply_correspondence(capped, thr)
    assert s.lo == 0 and s.hi == pytest.approx(cap, abs=1e-9)


def test_supply_zero_startup_marginal_indifference():
    s = supply_correspondence(lin_gen(0, 1, 5), 1)
    assert (s.lo, s.hi) == (0, 5)


def test_supply_monotone_in_price():
    rng = random.Random(405)
    for _ in range(40):
        inst = oracles.random_instance(rng)
        for g in inst.generators:
            prev = None
            for p in np.linspace(0.0, 12.0, 241):
                s = supply_correspondence(g, float(p))
                if prev is not None:
                    assert s.lo >= prev.lo - 1e-12
                    assert s.hi >= prev.hi - 1e-12
                prev = s


def test_supply_gap_below_knee():
    """With w > 0, outputs in (0, knee) appear only exactly at p*."""
    rng = random.Random(406)
    checked = 0
    for _ in range(60):
        inst = oracles.random_instance(rng)
        for g in inst.generators:
            if g.startup_cost <= 0:
                continue
            hull = hull_cost(g)
            if hull.knee <= 1e-9:
                continue
            checked += 1
            for p in np.linspace(0.0, hull.threshold + 6.0, 161):
                s = supply_correspondence(g, float(p))
                if abs(p - hull.threshold) <= 1e-9:
                    assert s.lo == 0 and s.hi >= hull.knee - 1e-9
                else:
                    inside = (s.lo > 1e-9 and s.lo < hull.knee - 1e-9) or (
                        s.hi > 1e-9 and s.hi < hull.knee - 1e-9
                    )
                    assert not inside
    assert checked > 20


def _hull_subdiff(g, hull, x):
    """[lo, hi] of the hulled cost's subdifferential at x (inf at x_max)."""
    tol = 1e-12
    if x <= tol:
        return (-math.inf, hull.threshold)
    if x < hull.knee - tol:
        return (hull.threshold, hull.threshold)
    if abs(x - hull.knee) <= tol:
        hi = g.curve.slope_right(x) if hull.knee < g.x_max else math.inf
        return (hull.threshold, hi)
    if x < g.x_max - tol:
        return (g.curve.slope_left(x), g.curve.slope_right(x))
    return (g.curve.slope_left(g.x_max), math.inf)


def test_supply_inverts_hull_subdifferential():
    rng = random.Random(407)
    for _ in range(30):
        inst = oracles.random_instance(rng)
        for g in inst.generators:
            hull = hull_cost(g)
            for p in (0.2, 0.9, 1.7, 2.6, 3.8, 5.5):
                s = supply_correspondence(g, p)
                for x in (s.lo, s.hi):
                    lo, hi = _hull_subdiff(g, hull, x)
                    assert lo - 1e-7 <= p <= hi + 1e-7
            for frac in (0.0, 0.31, 0.77, 1.0):
                x = frac * g.x_max
                lo, hi = _hull_subdiff(g, hull, x)
                probes = [v for v in (lo, hi) if math.isfinite(v) and v >= 0]
                for p in probes:
                    s = supply_correspondence(g, p)
                    assert s.lo - 1e-6 <= x <= s.hi + 1e-6
