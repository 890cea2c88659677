"""Reduced-uplift pricing via capacity-capped duals.

A generator whose minimal economic output exceeds every output the market
could ever ask of it (its capacity exceeds demand and its average cost is
still falling at demand) distorts hull-based prices downward: the price
must make room for output levels that can never be scheduled.  Capping
such units at demand (plus a vanishing margin) in the dual removes the
distortion, raises the clearing price and shrinks total uplift, while
every other generator keeps its full capacity.  A capped unit is the same
unit with a lower x_max, ``g._replace(x_max=cap)``.

Only the capped unit with the lowest average total cost at the cap ever
binds, so at most one such unit is retained in the capped dual; the rest
can be dropped without moving the price set.  In the vanishing-margin
limit the price set has a closed form built from the capped units'
average total cost at demand and the clearing prices of the remaining
fleet.
"""

import math
from typing import NamedTuple

from .cost_analysis import average_total_cost, ec_min
from .dual_pricing import PriceSet, UpliftReport, price_set, settle, supply_reaches
from .errors import DomainError
from .market_model import CapacityRule, GeneratorSpec, MarketInstance
from .primal_solver import DispatchSolution
from .tolerances import DOMINANCE_SLACK, EPSILON_SHARE, PRICE_TOL

# case tags for the vanishing-margin price set
CASE_NO_LNMGU = "no_lnmgu"
CASE_LNMGU_MARGINAL = "lnmgu_marginal"
CASE_INTERVAL_UPPER_CAPPED = "interval_upper_capped"
CASE_LNMGU_IRRELEVANT = "lnmgu_irrelevant"


class LnmguPartition(NamedTuple):
    """Split of the fleet around demand scale at margin epsilon.

    ``large`` holds ids whose minimal economic output exceeds their
    contract cap (all of them necessarily have capacity above demand);
    every other unit is regular.  ``min_avg_id`` is the large unit with the
    lowest average total cost at demand + epsilon, the only one that can
    bind in the capped dual.  ``epsilon`` is the margin actually used
    after auto-shrinking below the smallest large-unit headroom.
    ``p_bar`` is the lowest average total cost at demand of a large unit,
    or None when there is none.
    """

    large: tuple[str, ...]
    min_avg_id: str | None
    epsilon: float
    p_bar: float | None


class MchpResult(NamedTuple):
    """Settlement at a vanishing-margin capped-dual price.

    The first six fields are ``UpliftReport``'s, with ``dual_value`` that
    of the capped fleet.  ``partition`` is the fleet split the settlement
    capped its units by.
    """

    price_used: float
    per_generator: dict[str, float]
    total_uplift: float
    dual_value: float
    gap: float
    price_set: PriceSet
    case_tag: str
    partition: LnmguPartition


class DiagnosticsReport(NamedTuple):
    """Structural checks tying exact dispatch, hull prices and capped prices."""

    single_large_unit_committed: bool
    reduction_invariant: bool
    price_ordering: bool
    uplift_dominance: bool
    limit_consistent_with_eps: bool

    @property
    def passed(self) -> bool:
        return all(self)


def default_epsilon(instance: MarketInstance) -> float:
    """Margin used for numeric cross-checks of the analytic limit."""
    return EPSILON_SHARE * instance.demand


def classify_lnmgu(instance: MarketInstance, epsilon: float) -> LnmguPartition:
    """Partition the fleet and pick the binding capped unit.

    ``epsilon`` must be positive; it is shrunk to half the smallest
    large-unit headroom (minimal economic output minus demand) whenever it
    would reach that headroom, so demand + epsilon always sits strictly
    inside every large unit's uneconomic range.
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    d = instance.demand
    rule = CapacityRule(d)
    large: list[GeneratorSpec] = []
    headroom = math.inf
    for g in instance.generators:
        floor = ec_min(g)
        if floor > rule.served(g.x_max) + rule.tol:
            large.append(g)
            headroom = min(headroom, floor - d)

    eps_used = 0.5 * headroom if epsilon >= headroom else epsilon
    min_avg_id = p_bar = None
    if large:
        # min keeps the first of equal costs, so ties go to the smallest id
        by_id = sorted(large, key=lambda g: g.id)
        min_avg_id = min(by_id, key=lambda g: average_total_cost(g, d + eps_used)).id
        p_bar = min(average_total_cost(g, d) for g in large)
    return LnmguPartition(
        large=tuple(g.id for g in large),
        min_avg_id=min_avg_id,
        epsilon=eps_used,
        p_bar=p_bar,
    )


def _capped(gens, ids, cap: float) -> list[GeneratorSpec]:
    """The fleet with every unit in ``ids`` capped: its x_max lowered to ``cap``."""
    return [g._replace(x_max=cap) if g.id in ids else g for g in gens]


def mchp_price_set_eps(instance: MarketInstance, epsilon: float) -> PriceSet:
    """Clearing prices of the capped dual at a positive margin.

    Regular units keep full capacity; the binding large unit is capped at
    demand + epsilon; the remaining large units are dropped.
    """
    part = classify_lnmgu(instance, epsilon)
    if not part.large:
        return price_set(list(instance.generators), instance.demand)
    kept = [g for g in instance.generators if g.id not in part.large or g.id == part.min_avg_id]
    kept = _capped(kept, {part.min_avg_id}, instance.demand + part.epsilon)
    return price_set(kept, instance.demand)


def mchp_price_set_limit(
    instance: MarketInstance, *, memo: dict | None = None
) -> tuple[PriceSet, str]:
    """Vanishing-margin clearing prices, in closed form.

    With no large units this is the ordinary price set.  Otherwise let
    p_bar be the cheapest large unit's average total cost at demand and
    P_red the price set of the regular fleet alone:

    - regular fleet does not clear demand by itself (``CapacityRule``):
      the set is {p_bar}, a large unit is marginal;
    - P_red lies entirely below p_bar: the large units are priced out and
      the set is P_red;
    - P_red straddles p_bar: the set is P_red truncated above at p_bar;
    - P_red lies at or above p_bar: the set collapses to {p_bar}.

    Where the regular fleet's best-case supply at p_bar - PRICE_TOL falls
    short of P_red's lower crossing (``supply_reaches``), P_red's lower
    end lies above that price, so one supply evaluation settles the
    marginal case; only otherwise is P_red bisected.

    ``memo`` is ``price_set``'s supply memo, passed on to that check and
    to every price set this computes, so a sweep that has priced the
    level's hull set gets the ordinary one from the memo.
    """
    return _limit_set(instance, classify_lnmgu(instance, default_epsilon(instance)), memo)


def _limit_set(
    instance: MarketInstance, part: LnmguPartition, memo: dict | None = None
) -> tuple[PriceSet, str]:
    """``mchp_price_set_limit`` on a fleet already partitioned."""
    gens = list(instance.generators)
    d = instance.demand
    if not part.large:
        return price_set(gens, d, memo=memo), CASE_NO_LNMGU

    large = set(part.large)
    p_bar = part.p_bar
    regulars = [g for g in gens if g.id not in large]
    # the capped dual prices the regular fleet inside one that serves all
    # of demand, so it sets the price only if it clears demand by itself
    if not regulars or not CapacityRule(d).clears(sum(g.x_max for g in regulars)):
        return PriceSet(lo=p_bar, hi=p_bar), CASE_LNMGU_MARGINAL

    # the reduced set's lower end is the first price at which
    # ``supply_reaches`` passes, so where it fails at p_bar - PRICE_TOL
    # that end lies above it: the marginal case, decided without bisecting
    if not supply_reaches(regulars, d, memo=memo)(p_bar - PRICE_TOL):
        return PriceSet(lo=p_bar, hi=p_bar), CASE_LNMGU_MARGINAL

    reduced = price_set(regulars, d, memo=memo)
    if reduced.hi < p_bar - PRICE_TOL:
        return reduced, CASE_LNMGU_IRRELEVANT
    if reduced.lo >= p_bar - PRICE_TOL:
        return PriceSet(lo=p_bar, hi=p_bar), CASE_LNMGU_MARGINAL
    return PriceSet(lo=reduced.lo, hi=p_bar), CASE_INTERVAL_UPPER_CAPPED


def mchp_uplifts(instance: MarketInstance, dispatch: DispatchSolution, p: float) -> MchpResult:
    """Settle the exact schedule at a capped-dual price: ``settle`` on the
    fleet with every large unit capped.

    Profits are evaluated with every large unit capped at demand, so the
    price can rise to p_bar without creating a lost-profit claim for
    output the market could never absorb.  Uplifts stay nonnegative and
    never exceed their hull-price counterparts in total; at the limit
    price no large unit retains positive capped profit.
    """
    part = classify_lnmgu(instance, default_epsilon(instance))
    limit_set, tag = _limit_set(instance, part)
    # a large unit's x_max exceeds demand, so demand is its contract cap
    units = _capped(instance.generators, part.large, instance.demand)
    return MchpResult(*settle(instance, dispatch, p, units, limit_set), tag, part)


def diagnostics(
    instance: MarketInstance,
    dispatch: DispatchSolution,
    chp_report: UpliftReport,
    mchp_result: MchpResult,
) -> DiagnosticsReport:
    """Cross-checks between exact dispatch, hull prices and capped prices.

    ``dispatch`` is the exact schedule both settlements were made against;
    the hull set and the fleet partition are read from the settlements.
    All checks hold for every valid instance; a failure points at a
    numerics bug, not at the input.
    """
    d = instance.demand
    part = mchp_result.partition

    large = set(part.large)
    committed_large = sum(1 for e in dispatch.schedule if e.on and e.id in large)
    single_large = committed_large <= 1

    reduction_ok = limit_ok = True
    if part.large:
        # dropping all non-binding large units must not move the eps price set
        kept = mchp_price_set_eps(instance, part.epsilon)
        gens = instance.generators
        full = price_set(_capped(gens, large, d + part.epsilon), d)
        reduction_ok = abs(kept.lo - full.lo) <= PRICE_TOL and (
            kept.hi == full.hi or abs(kept.hi - full.hi) <= PRICE_TOL
        )

        # the closed-form limit must agree with a small positive margin.
        # Average cost falls on (d, d + eps) and marginal cost is
        # nonnegative, so the margin lowers p_bar by at most eps * p_bar / d.
        gap = part.epsilon * part.p_bar / d + PRICE_TOL
        limit = mchp_result.price_set
        limit_ok = abs(kept.lo - limit.lo) <= gap and (
            math.inf in (limit.hi, kept.hi) or abs(kept.hi - limit.hi) <= gap
        )

    # capped prices sit inside the hull price set or strictly above it
    hull_set = chp_report.price_set
    ordering_ok = all(
        hull_set.contains(e, tol=PRICE_TOL) or e > hull_set.hi for e in mchp_result.price_set
    )

    dominance_ok = mchp_result.total_uplift <= chp_report.total_uplift + DOMINANCE_SLACK

    return DiagnosticsReport(
        single_large_unit_committed=single_large,
        reduction_invariant=reduction_ok,
        price_ordering=ordering_ok,
        uplift_dominance=dominance_ok,
        limit_consistent_with_eps=limit_ok,
    )
