"""Numeric tolerances used across the package."""

# Half-width of the band in which a price counts as exactly at a supply
# threshold.  Two orders of magnitude below the 1e-9 price reporting
# tolerance (but still well above the 5e-13 bisection bracket width), so
# bisected price-set endpoints stay far inside that tolerance.
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

# How far outside [0, x_max] an output or cap may fall before cost
# evaluation refuses it (MW).
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
