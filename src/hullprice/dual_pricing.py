"""Market-clearing price sets, dual values and uplift settlement.

The price set is where the aggregate profit-maximizing supply meets
demand.  Aggregate supply is a sum of per-generator intervals that grows
with price, so both endpoints come out of monotone bisection: the lower
endpoint is the first price whose best-case supply covers demand, the
upper endpoint the last price whose worst-case supply does not exceed it.

The dual value at a price p is p*d minus total price-taker profit; its
gap to the exact dispatch cost equals the total uplift paid when
settling at p, generator by generator.
"""

import bisect
import math
from collections.abc import Sequence
from typing import NamedTuple

from .cost_analysis import Interval, average_total_cost, cost_eval, profit, supply_correspondence
from .errors import InfeasibleError, StalePriceError
from .market_model import CapacityRule, GeneratorSpec, MarketInstance
from .primal_solver import DispatchSolution
from .tolerances import STALE_PRICE_TOL

# bisection stop width for price endpoints ($ / MWh)
_PRICE_WIDTH = 5e-13


class PriceSet(NamedTuple):
    """Closed interval of market-clearing prices.

    ``unbounded_above`` marks the ray case (capacity exactly equals
    demand); ``hi`` is +inf there.
    """

    lo: float
    hi: float
    unbounded_above: bool = False

    def is_singleton(self, tol: float = 1e-9) -> bool:
        return not self.unbounded_above and self.hi - self.lo <= tol

    def contains(self, p: float, tol: float = 0.0) -> bool:
        if p < self.lo - tol:
            return False
        return self.unbounded_above or p <= self.hi + tol

    def representative(self, kind: str = "lo") -> float:
        """A concrete settlement price: lo, mid or hi of the set.

        The ray case has no finite mid or hi, so everything falls back to
        the lower endpoint there.
        """
        if kind not in ("lo", "mid", "hi"):
            raise ValueError(f"unknown representative {kind!r}")
        if self.unbounded_above or kind == "lo":
            return self.lo
        if kind == "mid":
            return 0.5 * (self.lo + self.hi)
        return self.hi


class UpliftReport(NamedTuple):
    """Settlement at one price: per-generator make-whole payments.

    ``price_set`` is the clearing set the price was checked against.
    """

    price_used: float
    per_generator: dict[str, float]
    total_uplift: float
    dual_value: float
    gap: float
    price_set: PriceSet


def _resolve_caps(gens: Sequence[GeneratorSpec], caps: Sequence[float] | None):
    if caps is None:
        return [g.x_max for g in gens]
    return list(caps)


def aggregate_supply(
    gens: Sequence[GeneratorSpec], p: float, caps: Sequence[float] | None = None
) -> Interval:
    """Sum of all generators' optimal output ranges at price p."""
    caps = _resolve_caps(gens, caps)
    lo = 0.0
    hi = 0.0
    for g, cap in zip(gens, caps):
        s = supply_correspondence(g, p, cap)
        lo += s.lo
        hi += s.hi
    return Interval(lo, hi)


def _price_upper_bound(gens, caps) -> float:
    worst_avg = max(average_total_cost(g, cap) for g, cap in zip(gens, caps))
    worst_marginal = max(g.curve.slope_left(cap) for g, cap in zip(gens, caps))
    return worst_avg + worst_marginal + 1.0


def _bisect(lo: float, hi: float, pred) -> tuple[float, float]:
    """Bracket the switch of a monotone predicate on [lo, hi].

    ``pred`` must be False at ``lo`` and True at ``hi``.  Returns
    ``(last_false, first_true)``, no wider than ``_PRICE_WIDTH`` or as
    tight as floats allow.
    """
    while hi - lo > _PRICE_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # float resolution exhausted
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _known_pred(prices: list, supplies: list, supply_at, test):
    """``test(supply_at(p))``, decided from the known supplies where they can.

    ``supplies`` holds the supply at each of the sorted ``prices``, so a
    ``test`` monotone in supply fails up to a price ``fails`` and passes
    from the next, ``passes``.  Only a price strictly between the two is
    evaluated; it joins the lists and takes the place of one of them.
    An insert moves every other predicate's switch, so each predicate is
    used up before the next is made on the same lists.
    """
    k = bisect.bisect_left(supplies, True, key=test)
    fails = prices[k - 1] if k else -math.inf
    passes = prices[k] if k < len(prices) else math.inf

    def pred(p: float) -> bool:
        nonlocal k, fails, passes
        if p <= fails:
            return False
        if p >= passes:
            return True
        s = supply_at(p)
        prices.insert(k, p)
        supplies.insert(k, s)
        if test(s):
            passes = p
            return True
        fails = p
        k += 1
        return False

    return pred


def price_set(
    gens: Sequence[GeneratorSpec],
    demand: float,
    caps: Sequence[float] | None = None,
    *,
    memo: dict | None = None,
) -> PriceSet:
    """All prices at which aggregate supply can clear demand.

    The lower endpoint is the first price at which supply reaches the
    served amount less the crossing slack of ``CapacityRule``, the upper
    one the last at which supply does not pass demand plus it.  Every
    unit runs at its cap at the bisection's upper bound, so supply there
    is the capacity, which reaches the lower crossing unless the fleet is
    short and passes the upper one unless the set is a ray.

    ``memo`` is internal to ``load_sweep``: a dict, owned by the caller,
    from (units, caps) to the prices that fleet's aggregate supply was
    evaluated at, sorted, and the supplies there.  Supply does not
    depend on demand and never falls as price rises, float for float:
    each unit's ends come from comparisons, ``min``/``max``, subtracting
    a constant and dividing by a positive one, and a correctly rounded
    sum does not fall when a term rises.  Each bisection's test is
    monotone in supply, so it switches once along the known prices,
    between a ``fails`` and a ``passes`` price.  A step at or below
    ``fails`` or at or above ``passes`` is decided without evaluating
    the fleet; a step between is evaluated, kept, and narrows the pair.
    A decided step is the answer evaluation would give, so the set is
    bit-identical with or without a memo.  Without one every step is
    evaluated: a report prices one demand, and keeping its supplies for
    the call costs more than the steps its two bisections share.
    """
    gens = tuple(gens)
    caps = _resolve_caps(gens, caps)
    capacity = sum(min(cap, g.x_max) for g, cap in zip(gens, caps))
    rule = CapacityRule(demand)
    if rule.short(capacity):
        raise InfeasibleError(f"total capacity {capacity} below demand {demand}")

    p_ub = _price_upper_bound(gens, caps)
    target = rule.served(capacity) - rule.slack

    if memo is None:

        def decide(test):
            return lambda p: test(aggregate_supply(gens, p, caps))

    else:
        known = memo.setdefault((gens, tuple(caps)), ([], []))

        def decide(test):
            return _known_pred(*known, lambda p: aggregate_supply(gens, p, caps), test)

    reaches = decide(lambda s: s.hi >= target)
    if reaches(0.0):
        lower = 0.0
    else:
        _, lower = _bisect(0.0, p_ub, reaches)

    if rule.ray(capacity):
        # at full output the market only just covers demand; every higher
        # price still clears
        return PriceSet(lo=lower, hi=math.inf, unbounded_above=True)

    upper, _ = _bisect(lower, p_ub, decide(lambda s: s.lo > demand + rule.slack))
    return PriceSet(lo=lower, hi=max(upper, lower), unbounded_above=False)


def dual_value(gens: Sequence[GeneratorSpec], demand: float, p: float) -> float:
    """p * demand minus total price-taker profit at p."""
    return p * demand - sum(profit(g, p) for g in gens)


def lost_profits(
    instance: MarketInstance,
    dispatch: DispatchSolution,
    p: float,
    caps: Sequence[float],
) -> dict[str, float]:
    """Each unit's best profit at p within its cap minus what its schedule earns.

    ``dispatch.schedule`` lists the units in instance order.
    """
    per = {}
    for g, entry, cap in zip(instance.generators, dispatch.schedule, caps, strict=True):
        actual = p * entry.output - cost_eval(g, entry.output, entry.on)
        per[g.id] = profit(g, p, cap) - actual
    return per


def uplifts(instance: MarketInstance, dispatch: DispatchSolution, p: float) -> UpliftReport:
    """Make-whole payments when the exact schedule settles at price p.

    Each generator is paid the difference between its best profit at p and
    the profit its scheduled output actually earns, so following the
    schedule is never worse than self-scheduling.  The price must lie in
    (or within STALE_PRICE_TOL of) the current price set.
    """
    gens = instance.generators
    ps = price_set(gens, instance.demand)
    if not ps.contains(p, tol=STALE_PRICE_TOL):
        raise StalePriceError(
            f"price {p} is outside the clearing set [{ps.lo}, "
            f"{'inf' if ps.unbounded_above else ps.hi}]"
        )
    per = lost_profits(instance, dispatch, p, [g.x_max for g in gens])
    vd = dual_value(gens, instance.demand, p)
    return UpliftReport(
        price_used=p,
        per_generator=per,
        total_uplift=sum(per.values()),
        dual_value=vd,
        gap=dispatch.total_cost - vd,
        price_set=ps,
    )
