"""Exact centralized dispatch.

Commitment is solved by a branch-and-bound walk of the subset tree,
pruned by Lagrangian bounds.  At a price p, no unit's variable cost c(x)
falls below p * x less its best profit at p, so a subset costs at least
p times the demand it must serve plus, per unit, its start-up cost less
that profit.  Below a node of the tree, the cheapest subset's bound is
the prefix's terms plus the smallest terms still open, and the bound is
taken at the whole fleet's marginal price and at each incumbent's.  A
node whose bound exceeds the cheapest schedule found so far, or whose
largest reachable capacity is short of demand, is never entered.  Each
remaining subset is dispatched at the shared marginal price, found
exactly from the breakpoints of the units' output ceilings: the slopes
of the PWL curves, a linear cost being one segment, and the two ends of
each quadratic ramp.  Outputs below the price-level set are raised, the
remaining demand is spread over units indifferent at that price.
Start-up costs are added per committed unit after dispatch.
"""

import itertools
import math
from collections.abc import Sequence
from typing import NamedTuple

from .errors import InfeasibleError, SizeError
from .market_model import CapacityRule, GeneratorSpec, MarketInstance, Quadratic
from .tolerances import BOUND_SLACK, DISPATCH_ROOM

MAX_GENERATORS = 24


class ScheduleEntry(NamedTuple):
    id: str
    on: bool
    output: float


class DispatchSolution(NamedTuple):
    """Optimal commitment and dispatch for one instance.

    ``schedule`` holds one entry per generator, in instance order.
    """

    total_cost: float
    schedule: tuple[ScheduleEntry, ...]
    committed_set: tuple[str, ...]
    marginal_lambda: float


def economic_dispatch(gens: Sequence[GeneratorSpec], demand: float):
    """Least-cost split of demand over committed units.

    Returns ``(outputs, lam)`` with outputs aligned to ``gens`` and lam the
    shared marginal price.  Start-up costs play no role here; every unit in
    ``gens`` is treated as running.

    The output ceiling sum(min(max_out_at(lam), cap)) is nondecreasing and
    piecewise linear in lam, bending or jumping only at PWL slopes (a
    linear cost is one segment) and the two ends of each quadratic ramp.
    lam is the first of these breakpoints whose ceiling covers demand, or
    the root of the quadratic ramps' linear piece on the interval just
    before it.  A
    capacity short of demand (``CapacityRule.short``) raises
    InfeasibleError.  A capacity below demand but not short of it runs
    every unit at capacity.  Any other dispatch whose outputs fall short
    of demand in the same sense raises InfeasibleError too.
    """
    gens = tuple(gens)
    caps = [g.x_max for g in gens]
    rule = CapacityRule(demand)
    capacity = sum(caps)
    if rule.short(capacity):
        raise InfeasibleError(f"total capacity {capacity} below demand {demand}")

    def ceiling(lam: float) -> float:
        return sum(min(g.curve.max_out_at(lam), cap) for g, cap in zip(gens, caps))

    prices = set()
    ramps = {}  # unit index -> (start, end) price of a quadratic's output ramp
    for i, (g, cap) in enumerate(zip(gens, caps)):
        curve = g.curve
        if isinstance(curve, Quadratic):
            # however flat, a ramp spans at least one float step in price
            end = curve.a + curve.q * cap
            ramps[i] = (curve.a, max(end, math.nextafter(curve.a, math.inf)))
            prices.update(ramps[i])
        else:
            prices.update(slope for _, slope in curve.segments)
    breaks = sorted(prices)

    need = rule.served(capacity)
    target = need - min(DISPATCH_ROOM * max(1.0, abs(demand)), rule.tol)
    # first breakpoint whose ceiling reaches the target; past the last one
    # every unit is at capacity
    k, top = 0, len(breaks) - 1
    while k < top:
        mid = (k + top) // 2
        if ceiling(breaks[mid]) >= target:
            top = mid
        else:
            k = mid + 1
    lam = breaks[k]
    marginal = ()  # ramps with lam strictly inside them
    if k > 0:
        left = breaks[k - 1]
        active = [i for i, (start, end) in ramps.items() if start <= left and end >= lam]
        if active:
            # on (left, lam) only the active ramps move: solve
            # fixed + sum((lam - a_i) / q_i) = need
            fixed = sum(
                min(g.curve.max_out_at(left), cap)
                for i, (g, cap) in enumerate(zip(gens, caps))
                if i not in active
            )
            ramp_curves = [gens[i].curve for i in active]
            root = (need - fixed + sum(c.a / c.q for c in ramp_curves)) / sum(
                1.0 / c.q for c in ramp_curves
            )
            if root < lam:
                lam, marginal = root, active

    if need < demand:
        # capacity not short of demand but below it: every unit runs flat out
        return list(caps), lam

    # base outputs are the least, headroom the most each unit can give at
    # lam; the residual goes to units with room, in order.  A marginal ramp
    # can move by more than the residual tolerance over one float step of
    # lam, so its base and headroom come from the floats on either side.
    below, above = math.nextafter(lam, -math.inf), math.nextafter(lam, math.inf)
    base = [
        min(g.curve.min_out_at(below if i in marginal else lam), cap)
        for i, (g, cap) in enumerate(zip(gens, caps))
    ]
    room = [
        min(g.curve.max_out_at(above if i in marginal else lam), cap)
        for i, (g, cap) in enumerate(zip(gens, caps))
    ]
    outputs = list(base)
    residual = demand - sum(base)
    for i in range(len(outputs)):
        if residual <= 0.0:
            break
        add = min(residual, room[i] - outputs[i])
        if add > 0.0:
            outputs[i] += add
            residual -= add
    if rule.short(demand - residual):
        raise InfeasibleError(
            f"dispatch left {residual} MW unserved at marginal price {lam}"
        )
    return outputs, lam


def _suffix_sums(values: Sequence[float], reverse: bool = False) -> list[list[float]]:
    """``sums[j][k]``: the sum of the k smallest (``reverse``: largest) of values[j:]."""
    return [
        list(itertools.accumulate(sorted(values[j:], reverse=reverse), initial=0.0))
        for j in range(len(values) + 1)
    ]


class _PriceBound:
    """The commitment search's Lagrangian bound at one price (see ``solve_primal``).

    ``terms`` holds each pool unit's w - pi(p), ``least[j][k]`` the k
    smallest of terms[j:], and ``sums[depth]`` the terms of the search
    path's first ``depth`` units.  A node whose term sums exceed
    ``limit`` holds no subset cheaper than the incumbent.  A node whose
    every leaf reaches demand holds none cheaper by more than the
    rounding room once its term sums reach ``tie_limit``.
    """

    __slots__ = ("price", "terms", "least", "sums", "offset", "tie_offset", "limit", "tie_limit")

    def __init__(
        self, pool: Sequence[GeneratorSpec], price: float, rule: CapacityRule, path: Sequence[int]
    ):
        tops = [min(g.curve.max_out_at(price), g.x_max) for g in pool]
        self.price = price
        self.terms = [g.startup_cost - (price * x - g.curve.value(x)) for g, x in zip(pool, tops)]
        self.least = _suffix_sums(self.terms)
        self.sums = [0.0] * (len(pool) + 1)
        for depth, i in enumerate(path):
            self.sums[depth + 1] = self.sums[depth] + self.terms[i]
        scale = price * (rule.demand + sum(tops)) + sum(g.startup_cost for g in pool)
        # rounding room, less what a dispatch tol short of demand must pay
        self.offset = 2.0 * BOUND_SLACK * scale - price * (rule.demand - rule.tol)
        # less the rounding room, where every subset pays for all of demand
        self.tie_offset = -2.0 * BOUND_SLACK * scale - price * rule.demand
        self.limit = math.inf
        self.tie_limit = math.inf


def solve_primal(instance: MarketInstance) -> DispatchSolution:
    """Globally optimal commitment and dispatch.

    Subsets are searched in (size, id-lexicographic) order and a new
    incumbent must be strictly cheaper, so cost ties resolve to fewer
    committed units, then to the lexicographically first id set.  Subsets
    whose capacity is short of demand are skipped.

    For each size the search walks the tree of sorted-id combinations
    depth first.  A node has chosen a prefix and must choose ``left``
    more units from those after it; the leaves come in the order of
    trying every subset, and each leaf's sums run left to right.  Unit
    i's profit at a price p >= 0, pi_i(p) = max over [0, x_max] of
    p * x - c_i(x), is earned at x = min(max_out_at(p), x_max), and
    c_i(x) >= p * x - pi_i(p) for every output.  A subset S's dispatch
    may serve ``CapacityRule.tol`` less than demand, so at every p it
    costs at least p * (demand - tol) + sum over S of (w_i - pi_i(p)).
    Every subset below a node thus costs at least p * (demand - tol)
    plus the prefix's terms plus the ``left`` smallest terms after it.
    The prices p are the whole fleet's marginal price, dispatched once
    first, and each incumbent's.  A node is skipped when that bound at
    any of them exceeds the incumbent by more than ``BOUND_SLACK`` of
    the incumbent and of 2 * scale(p), with scale(p) = p * (demand +
    sum of the units' profitable outputs) + sum of w (rounding).  It is
    also skipped when the prefix's capacity plus the ``left`` largest
    after it, widened by ``BOUND_SLACK`` of itself, is short of demand.

    Where the prefix's capacity plus the ``left`` smallest after it
    reaches demand, every subset below serves all of it, so the bound
    charges p * demand, and the node is skipped once the bound at any
    price reaches the incumbent less that rounding room.  A leaf whose
    own capacity reaches demand gets the same test.  Costs within the
    rounding room thus tie and go to walk order, so exact ties, such as
    identical units, cost one dispatch instead of one per subset.
    Otherwise a skipped subset could not have become the incumbent, and
    the answer is that of trying every subset.  A fleet short of demand
    raises InfeasibleError before any subset is tried.
    """
    gens = tuple(instance.generators)
    n = len(gens)
    if n > MAX_GENERATORS:
        raise SizeError(f"{n} generators exceed the exhaustive-search limit {MAX_GENERATORS}")

    demand = instance.demand
    rule = CapacityRule(demand)
    _, fleet_price = economic_dispatch(gens, demand)
    pool = sorted(gens, key=lambda g: g.id)
    caps = [g.x_max for g in pool]
    least_caps = _suffix_sums(caps)
    most_caps = _suffix_sums(caps, reverse=True)
    room = 1.0 + BOUND_SLACK
    tie_room = 1.0 - BOUND_SLACK
    path = []  # pool indices of the current node's prefix
    bounds = [_PriceBound(pool, fleet_price, rule, path)]
    best_cost = math.inf
    best = None

    def walk(start, left, cap):
        # the subsets that extend path by `left` units of pool[start:]
        nonlocal best_cost, best
        depth = len(path)
        for j in range(start, n - left + 1):
            # both bounds only grow as j moves right, and once every leaf
            # reaches demand, every leaf further right does
            full = cap + least_caps[j][left] >= demand
            for b in bounds:
                total = b.sums[depth] + b.least[j][left]
                if total >= b.tie_limit if full else total > b.limit:
                    return
            if rule.short((cap + most_caps[j][left]) * room):
                return
            for b in bounds:
                b.sums[depth + 1] = b.sums[depth] + b.terms[j]
            path.append(j)
            if left > 1:
                walk(j + 1, left - 1, cap + caps[j])
            elif not rule.short(cap + caps[j]) and all(
                b.sums[depth + 1] < b.tie_limit
                if cap + caps[j] >= demand
                else b.sums[depth + 1] <= b.limit
                for b in bounds
            ):
                combo = [pool[i] for i in path]
                outputs, lam = economic_dispatch(combo, demand)
                cost = sum(g.startup_cost for g in combo) + sum(
                    g.curve.value(x) for g, x in zip(combo, outputs)
                )
                if cost < best_cost:
                    best_cost = cost
                    best = (combo, outputs, lam)
                    if all(b.price != lam for b in bounds):
                        bounds.append(_PriceBound(pool, lam, rule, path))
                    for b in bounds:
                        b.limit = best_cost * room + b.offset
                        b.tie_limit = best_cost * tie_room + b.tie_offset
            path.pop()

    for size in range(1, n + 1):
        walk(0, size, 0.0)
    if best is None:
        raise InfeasibleError("no committable subset can serve demand")

    best_combo, best_outputs, best_lambda = best
    by_id = {g.id: x for g, x in zip(best_combo, best_outputs)}
    schedule = tuple(
        ScheduleEntry(id=g.id, on=g.id in by_id, output=by_id.get(g.id, 0.0))
        for g in gens
    )
    committed = tuple(e.id for e in schedule if e.on)

    return DispatchSolution(
        total_cost=best_cost,
        schedule=schedule,
        committed_set=committed,
        marginal_lambda=best_lambda,
    )
