"""Slow independent oracles: output grids, DP enumeration, bisection, MILP.

Nothing here reuses the package's pricing logic.  Curve values and slopes
are recomputed from the record fields, hulls come from a geometric
lower-hull sweep, dispatch from dynamic programming over an output grid
or from bisection on the marginal price, commitment of linear/PWL fleets
from a mixed-integer program, and price/output searches from plain
predicate bisection.  Agreement with the package is therefore a
genuine second opinion, not an echo.  The one exception is
``enumerate_primal``, the commitment search without its bound: it
dispatches with the package's ``economic_dispatch`` on purpose, so that
any difference from ``solve_primal`` is the pruning's alone.
"""

import itertools
import json

import numpy as np

from hullprice import (
    DispatchSolution,
    PiecewiseLinear,
    Quadratic,
    ScheduleEntry,
    parse_instance,
    primal_solver,
)


# ---------------------------------------------------------------- curves


def curve_values(curve, xs):
    """Vectorized c(x) recomputed from the curve parameters."""
    xs = np.asarray(xs, dtype=float)
    if isinstance(curve, Quadratic):
        return curve.a * xs + 0.5 * curve.q * xs * xs
    bx = [0.0]
    by = [0.0]
    total = 0.0
    left = 0.0
    for right, slope in curve.segments:
        total += slope * (right - left)
        bx.append(right)
        by.append(total)
        left = right
    return np.interp(xs, bx, by)


def curve_value(curve, x):
    return float(curve_values(curve, [x])[0])


def slope_right(curve, x):
    if isinstance(curve, Quadratic):
        return curve.a + curve.q * x
    for right, slope in curve.segments:
        if x < right - 1e-12:
            return slope
    return curve.segments[-1][1]


def slope_left(curve, x):
    if isinstance(curve, Quadratic):
        return curve.a + curve.q * x
    left = 0.0
    for right, slope in curve.segments:
        if x <= right + 1e-12 and x > left:
            return slope
        left = right
    return curve.segments[0][1]


def max_out(curve, lam, cap):
    """Largest x in [0, cap] whose left marginal cost is <= lam."""
    if isinstance(curve, Quadratic):
        return min(max((lam - curve.a) / curve.q, 0.0), cap)
    out = 0.0
    for right, slope in curve.segments:
        if slope <= lam:
            out = right
        else:
            break
    return min(out, cap)


def min_out(curve, lam, cap):
    """Smallest x in [0, cap] whose right marginal cost is >= lam."""
    if isinstance(curve, Quadratic):
        return min(max((lam - curve.a) / curve.q, 0.0), cap)
    left = 0.0
    for right, slope in curve.segments:
        if slope >= lam:
            return min(left, cap)
        left = right
    return cap


# ------------------------------------------------------- profits and duals


def grid_profit(gen, p, cap=None, npts=10_000):
    """max(0, max_x p*x - w - c(x)) over an npts output grid."""
    hi = gen.x_max if cap is None else min(cap, gen.x_max)
    xs = np.linspace(0.0, hi, npts)
    gains = p * xs - gen.startup_cost - curve_values(gen.curve, xs)
    return max(0.0, float(gains.max()))


def grid_dual(gens, demand, p, caps=None, npts=10_000):
    """p*d minus total grid profit."""
    if caps is None:
        caps = [g.x_max for g in gens]
    return p * demand - sum(grid_profit(g, p, cap, npts) for g, cap in zip(gens, caps))


def grid_dual_curve(gens, demand, ps, caps=None, npts=200):
    """Dual values over a whole price grid at once (vectorized)."""
    ps = np.asarray(ps, dtype=float)
    if caps is None:
        caps = [g.x_max for g in gens]
    total_profit = np.zeros_like(ps)
    for g, cap in zip(gens, caps):
        hi = min(cap, g.x_max)
        xs = np.linspace(0.0, hi, npts)
        gains = np.outer(ps, xs) - (g.startup_cost + curve_values(g.curve, xs))
        total_profit += np.maximum(gains.max(axis=1), 0.0)
    return ps * demand - total_profit


def price_grid_upper_bound(gens, caps=None):
    if caps is None:
        caps = [g.x_max for g in gens]
    worst_avg = max(
        (g.startup_cost + curve_value(g.curve, c)) / c for g, c in zip(gens, caps)
    )
    worst_marginal = max(slope_left(g.curve, min(c, g.x_max)) for g, c in zip(gens, caps))
    return worst_avg + worst_marginal + 1.0


def located_price_interval(gens, demand, ps, caps=None, npts=200, tie_tol=1e-9):
    """Endpoints of the brute-force dual's argmax set on the price grid."""
    duals = grid_dual_curve(gens, demand, ps, caps, npts)
    top = duals.max()
    ties = np.flatnonzero(duals >= top - tie_tol * max(1.0, abs(top)))
    return float(ps[ties[0]]), float(ps[ties[-1]])


# ----------------------------------------------------------------- hulls


def hull_values(gen, queries, cap=None, npts=2001):
    """Convex envelope of the all-or-nothing total cost, by lower hull.

    PWL breakpoints join the sample so kinked envelopes come out exact;
    smooth curves are covered by the grid alone (second-order error).
    """
    hi = gen.x_max if cap is None else min(cap, gen.x_max)
    xs = np.linspace(0.0, hi, npts)
    if isinstance(gen.curve, PiecewiseLinear):
        brk = [r for r, _ in gen.curve.segments if 0.0 < r < hi]
        xs = np.unique(np.concatenate([xs, np.asarray(brk, dtype=float)]))
    ys = gen.startup_cost + curve_values(gen.curve, xs)
    pts = [(0.0, 0.0)] + list(zip(xs[1:], ys[1:]))
    hull = [pts[0]]
    for pt in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            chord = y1 + (pt[1] - y1) * (x2 - x1) / (pt[0] - x1)
            if chord <= y2:
                hull.pop()
            else:
                break
        hull.append(pt)
    hx = np.array([q[0] for q in hull])
    hy = np.array([q[1] for q in hull])
    return np.interp(np.asarray(queries, dtype=float), hx, hy)


def hull_value(gen, hull, x):
    """The envelope that ``hull``'s threshold and knee describe, at x.

    Below the knee it is the chord from the origin, past it w + c(x).
    """
    if x <= hull.knee:
        return hull.threshold * x
    return gen.startup_cost + curve_value(gen.curve, x)


def bisect_ec_min(gen, width=1e-12):
    """Lowest x where x * right-marginal >= w + c(x), else x_max."""
    w = gen.startup_cost
    if w == 0.0:
        return 0.0
    cap = gen.x_max

    def excess(x):
        return x * slope_right(gen.curve, x) - w - curve_value(gen.curve, x)

    if excess(cap * (1.0 - 1e-12)) < 0.0:
        return cap
    lo, hi = 0.0, cap
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if excess(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


# ----------------------------------------------------- dispatch and prices


def dp_primal(instance, steps=200):
    """Cheapest total cost with outputs restricted to the grid j*d/steps.

    Commitment is implicit: output 0 costs nothing.  Returns inf when the
    grid cannot hit demand exactly (never happens on the test corpus).
    """
    d = instance.demand
    step = d / steps
    xs = np.arange(steps + 1) * step
    dp = np.full(steps + 1, np.inf)
    dp[0] = 0.0
    for g in instance.generators:
        row = g.startup_cost + np.asarray(curve_values(g.curve, xs))
        row[0] = 0.0
        row = np.where(xs <= g.x_max + 1e-9, row, np.inf)
        new = np.full(steps + 1, np.inf)
        for k in range(steps + 1):
            new[k] = np.min(dp[k::-1] + row[: k + 1])
        dp = new
    return float(dp[steps])


def bisect_dispatch(gens, demand, width=5e-13):
    """Economic dispatch of committed units by bisection on the price.

    Brackets the first price whose output ceiling covers demand less a
    relative slack, takes base outputs from the bracket's low side and
    headroom from its high side, and fills the rest in unit order.
    Returns ``(outputs, lam)`` with lam the bracket midpoint.
    """
    caps = [g.x_max for g in gens]

    def ceiling(lam):
        return sum(max_out(g.curve, lam, cap) for g, cap in zip(gens, caps))

    lo = min(slope_right(g.curve, 0.0) for g in gens) - 1.0
    hi = max(slope_left(g.curve, g.x_max) for g in gens) + 1.0
    target = min(demand, sum(caps)) - 1e-12 * max(1.0, abs(demand))
    if ceiling(lo) >= target:
        hi = lo
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if ceiling(mid) >= target:
            hi = mid
        else:
            lo = mid

    outputs = [min_out(g.curve, lo, cap) for g, cap in zip(gens, caps)]
    room = [max_out(g.curve, hi, cap) for g, cap in zip(gens, caps)]
    residual = demand - sum(outputs)
    for i in range(len(outputs)):
        add = min(residual, room[i] - outputs[i])
        if add > 0.0:
            outputs[i] += add
            residual -= add
    return outputs, 0.5 * (lo + hi)


def enumerate_primal(instance):
    """``solve_primal`` as an exhaustive search, pruned by start-up bills only.

    Every subset whose start-up bill is below the incumbent and whose
    capacity meets demand is dispatched, in (size, id) order, and a new
    incumbent must be strictly cheaper.  Dispatch goes through
    ``primal_solver.economic_dispatch`` so that call counters see it.
    """
    rule = primal_solver.CapacityRule(instance.demand)
    pool = sorted(instance.generators, key=lambda g: g.id)
    best_cost = float("inf")
    best = None
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            startup_bill = sum(g.startup_cost for g in combo)
            if startup_bill >= best_cost:
                continue
            if rule.short(sum(g.x_max for g in combo)):
                continue
            outputs, lam = primal_solver.economic_dispatch(combo, instance.demand)
            cost = startup_bill + sum(g.curve.value(x) for g, x in zip(combo, outputs))
            if cost < best_cost:
                best_cost = cost
                best = (combo, outputs, lam)
    combo, outputs, lam = best
    by_id = {g.id: x for g, x in zip(combo, outputs)}
    schedule = tuple(
        ScheduleEntry(id=g.id, on=g.id in by_id, output=by_id.get(g.id, 0.0))
        for g in instance.generators
    )
    return DispatchSolution(
        total_cost=best_cost,
        schedule=schedule,
        committed_set=tuple(e.id for e in schedule if e.on),
        marginal_lambda=lam,
    )


def milp_primal(instance):
    """Least total cost of a linear/PWL fleet, by MILP (SciPy's HiGHS).

    Each unit has a binary u, and each of its segments an output
    0 <= y_k <= len_k * u; the outputs sum to demand, and the cost is
    w * u + sum of s_k * y_k.  Slopes are nondecreasing, so an optimum
    fills each unit's segments in order and the program is the exact
    commitment problem.  HiGHS works to about 1e-7 MW of feasibility.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    cost, upper, integrality = [], [], []
    links = []  # (u column, y column, segment length)
    for g in instance.generators:
        if isinstance(g.curve, Quadratic):
            raise ValueError(f"{g.id}: milp_primal takes linear and PWL units only")
        u = len(cost)
        cost.append(g.startup_cost)
        upper.append(1.0)
        integrality.append(1)
        left = 0.0
        for right, slope in g.curve.segments:
            right = min(right, g.x_max)
            if right > left:
                links.append((u, len(cost), right - left))
                cost.append(slope)
                upper.append(right - left)
                integrality.append(0)
            left = right

    rows = np.zeros((1 + len(links), len(cost)))
    for r, (u, y, length) in enumerate(links, 1):
        rows[0, y] = 1.0
        rows[r, y] = 1.0
        rows[r, u] = -length
    lo = np.full(len(rows), -np.inf)
    hi = np.zeros(len(rows))
    lo[0] = hi[0] = instance.demand
    res = milp(
        cost,
        constraints=LinearConstraint(rows, lo, hi),
        integrality=integrality,
        bounds=Bounds(0.0, upper),
        options={"mip_rel_gap": 1e-12},
    )
    if not res.success:
        raise RuntimeError(f"milp_primal: {res.message}")
    return res.fun


def level_set_price_interval(gens, demand, caps=None, width=1e-12):
    """Marginal-price interval of economic dispatch, from level sets.

    [lo, hi] with lo the first price whose relaxed supply reaches demand
    and hi the last price forced to stay at or below it.  For zero
    start-up costs this is exactly the market price set.
    """
    if caps is None:
        caps = [g.x_max for g in gens]

    def supply_hi(lam):
        return sum(max_out(g.curve, lam, cap) for g, cap in zip(gens, caps))

    def supply_lo(lam):
        return sum(min_out(g.curve, lam, cap) for g, cap in zip(gens, caps))

    lam_min = 0.0
    lam_max = max(slope_left(g.curve, min(cap, g.x_max)) for g, cap in zip(gens, caps)) + 1.0
    slack = 1e-10 * max(1.0, abs(demand))

    if supply_hi(lam_min) >= demand - slack:
        lo = lam_min
    else:
        a, b = lam_min, lam_max
        while b - a > width:
            mid = 0.5 * (a + b)
            if supply_hi(mid) >= demand - slack:
                b = mid
            else:
                a = mid
        lo = b

    if supply_lo(lam_max) <= demand + slack:
        hi = lam_max
    else:
        a, b = lo, lam_max
        while b - a > width:
            mid = 0.5 * (a + b)
            if supply_lo(mid) > demand + slack:
                b = mid
            else:
                a = mid
        hi = a
    return lo, hi


# ------------------------------------------------------------- fleets


def capped_fleet(instance, part):
    """Generators and caps of the capped dual at ``part``'s margin.

    Regular units keep full capacity, the binding large unit is capped at
    demand + epsilon and the other large units are dropped.
    """
    kept = [g for g in instance.generators if g.id not in part.large or g.id == part.min_avg_id]
    caps = [instance.demand + part.epsilon if g.id == part.min_avg_id else g.x_max for g in kept]
    return kept, caps


def entry(solution, gid):
    """The schedule entry of unit ``gid``."""
    return next(e for e in solution.schedule if e.id == gid)


def serialize_instance(instance):
    """Schema JSON of an instance, field for field."""

    def curve_form(curve):
        if isinstance(curve, Quadratic):
            return {"quadratic": {"a": curve.a, "q": curve.q}}
        return {"pwl": [[right, slope] for right, slope in curve.segments]}

    gens = [
        {"id": g.id, "w": g.startup_cost, "curve": curve_form(g.curve), "x_max": g.x_max}
        for g in instance.generators
    ]
    return json.dumps({"demand": instance.demand, "generators": gens})


def scale_instance(instance, mw, money):
    """The same fleet in other units: MW times mw and $ times money.

    Dispatch then scales by mw, prices by money / mw, costs and uplifts
    by money.
    """
    price = money / mw
    spec = json.loads(serialize_instance(instance))
    spec["demand"] *= mw
    for g in spec["generators"]:
        g["w"] *= money
        g["x_max"] *= mw
        curve = g["curve"]
        if "linear" in curve:
            curve["linear"] *= price
        elif "quadratic" in curve:
            curve["quadratic"]["a"] *= price
            curve["quadratic"]["q"] = curve["quadratic"]["q"] / mw * price
        else:
            curve["pwl"] = [[right * mw, slope * price] for right, slope in curve["pwl"]]
    return parse_instance(json.dumps(spec))


# ---------------------------------------------------------- random corpus


def random_instance(rng, allow_ray=True, force_zero_w=False, kinds=("linear", "quadratic", "pwl")):
    """One random market instance, built through the public parser.

    Scales are chosen so every tolerance in the suite has safe margin:
    demand >= 0.5, start-up costs <= 20, marginal costs <= 4, quadratic
    curvature in [0.1, 2], capacities in [0.5, 8].
    """
    n = rng.randint(1, 4)
    all_zero_w = force_zero_w or rng.random() < 0.2
    gens = []
    for k in range(n):
        lo_cap = 1.0 if n == 1 else 0.5
        x_max = round(rng.uniform(lo_cap, 8.0), 6)
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "linear":
            a = 0.0 if rng.random() < 0.1 else round(rng.uniform(0.0, 4.0), 6)
            curve = {"linear": a}
        elif kind == "quadratic":
            curve = {
                "quadratic": {
                    "a": round(rng.uniform(0.0, 3.0), 6),
                    "q": round(rng.uniform(0.1, 2.0), 6),
                }
            }
        elif kind == "pwl":
            nseg = rng.randint(2, 3)
            slopes = sorted(round(rng.uniform(0.0, 4.0), 6) for _ in range(nseg))
            parts = [rng.uniform(0.2, 1.0) for _ in range(nseg)]
            total = sum(parts)
            cum = 0.0
            rights = []
            for part in parts[:-1]:
                cum += part
                rights.append(round(x_max * cum / total, 6))
            rights.append(x_max)
            curve = {"pwl": [[r, s] for r, s in zip(rights, slopes)]}
        else:  # grid-aligned pwl: breakpoints on the 200-point output grid
            nseg = rng.randint(2, 3)
            slopes = sorted(round(rng.uniform(0.0, 4.0), 6) for _ in range(nseg))
            cuts = sorted(rng.sample(range(20, 180), nseg - 1))
            rights = [j * x_max / 199.0 for j in cuts] + [x_max]
            curve = {"pwl": [[r, s] for r, s in zip(rights, slopes)]}
        w = 0.0 if (all_zero_w or rng.random() < 0.25) else round(rng.uniform(0.5, 20.0), 6)
        gens.append({"id": f"g{k + 1}", "w": w, "curve": curve, "x_max": x_max})

    total_cap = sum(g["x_max"] for g in gens)
    if allow_ray and rng.random() < 0.05:
        demand = total_cap
    else:
        demand = max(0.5, rng.uniform(0.35, 0.95) * total_cap)
        demand = min(demand, 0.95 * total_cap)
    return parse_instance(json.dumps({"demand": demand, "generators": gens}))


def mixed_fleet(rng, n, kinds=("linear", "quadratic", "pwl")):
    """n units of the curve ``kinds`` in turn, demand at 50-55% of capacity.

    Capacities lie in [3, 9] MW and one unit in ten has no start-up cost:
    the shape of the 12-unit dispatch benchmark fleets.  Values sit on the
    1/1000 grid, so the JSON round trip is exact.
    """

    def milli(lo, hi):
        return rng.randint(int(lo * 1000), int(hi * 1000)) / 1000.0

    unit_kinds = [kinds[k % len(kinds)] for k in range(n)]
    rng.shuffle(unit_kinds)
    gens = []
    for k, kind in enumerate(unit_kinds):
        x_max = milli(3.0, 9.0)
        if kind == "linear":
            curve = {"linear": milli(0.5, 5.0)}
        elif kind == "quadratic":
            curve = {"quadratic": {"a": milli(0.0, 3.0), "q": milli(0.05, 0.6)}}
        else:
            nseg = rng.randint(2, 4)
            slopes = sorted(milli(0.2, 6.0) for _ in range(nseg))
            cuts = sorted(rng.sample(range(1, round(x_max * 1000)), nseg - 1))
            curve = {"pwl": [[c / 1000.0, s] for c, s in zip(cuts, slopes)]}
            curve["pwl"].append([x_max, slopes[-1]])
        w = 0.0 if rng.random() < 0.1 else milli(4.0, 20.0)
        gens.append({"id": f"g{k + 1:02d}", "w": w, "curve": curve, "x_max": x_max})
    demand = round(rng.uniform(0.5, 0.55) * sum(g["x_max"] for g in gens), 3)
    return parse_instance(json.dumps({"demand": demand, "generators": gens}))


def long_pwl_unit(rng, nseg, gid="long"):
    """One unit's JSON entry with a convex PWL curve of ``nseg`` segments.

    Kinks sit on the 1e-6 MW grid of a capacity in [3, 9] MW, slopes in
    [0.2, 6] on the 1e-6 grid and w in [1, 40]: a curve long enough that
    a pass over its segments per kink shows in wall time.
    """
    x_max = rng.randint(3000, 9000) / 1000.0
    cuts = sorted(rng.sample(range(1, round(x_max * 1e6)), nseg - 1))
    slopes = sorted(rng.randint(200_000, 6_000_000) / 1e6 for _ in range(nseg))
    rights = [c / 1e6 for c in cuts] + [x_max]
    return {
        "id": gid,
        "w": rng.randint(1000, 40000) / 1000.0,
        "curve": {"pwl": [[r, s] for r, s in zip(rights, slopes)]},
        "x_max": x_max,
    }


def max_marginal_cost(instance):
    return max(slope_left(g.curve, g.x_max) for g in instance.generators)
