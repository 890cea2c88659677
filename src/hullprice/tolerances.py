"""Numeric tolerances used across the package."""

# Prices this close are one price ($/MWh): a price set this narrow is a
# single price, a reduced fleet's endpoint this close to p_bar meets it,
# and two price sets whose endpoints agree this closely are the same set.
PRICE_TOL = 1e-9

# Width at which bisection stops bracketing a price-set endpoint ($/MWh).
# Well below PRICE_EQ_TOL, so a bracketed endpoint sits inside the band
# of the threshold that sets it.
PRICE_WIDTH = 5e-13

# Half-width of the band in which a price counts as exactly at a supply
# threshold.  Two orders of magnitude below PRICE_TOL (but still well
# above the PRICE_WIDTH bisection bracket), so bisected price-set
# endpoints stay far inside that tolerance.
PRICE_EQ_TOL = 1e-11

# Slack for comparing MW with demand (MW); see demand_tol.
FEASIBILITY_TOL = 1e-9

# Relative slack of the commitment search's Lagrangian bounds.  At a
# price p, the bound sums p * (demand - tol) and, per unit,
# w - (p * x - c(x)) at the unit's most profitable output x.  The terms
# have mixed signs, so the rounding is relative to their parts, not to
# the bound: every part is at most
# scale(p) = p * (demand + sum of x) + sum of w, as c(x) <= p * x there.
# The bound, a subset's cost and the demand it serves each come from sums
# of at most 24 units' parts and from curve values a few float steps per
# segment long, so for curves of tens of segments their errors total a
# few hundred ulps of scale(p) + incumbent.  A node of the search sums
# its terms in another order than its leaves do, so it gets one more
# scale(p), and a node's capacity bound one part of itself.  4096 ulps
# (2**-40) leaves room for curves of about a thousand segments.
BOUND_SLACK = 2.0**-40

# How far a settlement price may drift outside the computed price set
# before it is rejected as stale ($/MWh).
STALE_PRICE_TOL = 1e-6

# Capped total uplift may exceed hull total uplift by this much before
# the dominance diagnostic fails ($): room for the rounding of two sums
# of per-unit profit differences.  It is absolute, so it does not scale
# with the instance's money unit [units].
DOMINANCE_SLACK = 1e-6

# Default margin of the capped dual, as a share of demand (MW per MW).
# The margin lowers p_bar by at most this share of p_bar, so the price
# set at that margin stays that close to the vanishing-margin limit.
EPSILON_SHARE = 1e-6

# Room, per MW of demand (at least 1 MW), by which economic dispatch's
# output ceiling may miss the served amount at a breakpoint and still
# reach it: the ceiling is a sum of rounded unit outputs, so one that
# meets the served amount exactly can read a few ulps below it.  The
# room is cut to the dispatch's own tolerance ``CapacityRule.tol``, which
# it exceeds above 1,000 MW of demand, so the breakpoint search never
# accepts a ceiling that the residual check then calls short.
DISPATCH_ROOM = 1e-12

# How far outside [0, x_max] an output may fall before cost evaluation
# refuses it (MW).
BOUNDARY_TOL = 1e-7


def boundary_tol() -> float:
    """Comparison tolerance for arguments at API boundaries (MW)."""
    return BOUNDARY_TOL


def demand_tol(demand: float) -> float:
    """Slack for comparing MW with demand.

    FEASIBILITY_TOL, widened to one part in 1e14 of demand above 1e5 MW,
    where one float step of demand exceeds it.
    """
    return max(FEASIBILITY_TOL, 1e-14 * demand)


def supply_slack(demand: float) -> float:
    """How far supply may miss demand at a price-set crossing (MW).

    One part in 1e10 of demand, and 1e-10 MW below 1 MW.
    """
    return 1e-10 * max(1.0, demand)
