"""Per-generator cost analysis.

Everything a single generator contributes to pricing lives here: total
cost with the start-up jump, marginal-cost ranges, the minimal output at
which average total cost stops falling, the convex envelope of the jumpy
cost function, and the price-taking profit and supply responses derived
from that envelope.

The total cost of a unit producing x > 0 is w + c(x); at x = 0 it is 0.
The start-up jump makes this nonconvex, so the supply response below the
envelope's tangent point is all-or-nothing.
"""

import math
from typing import NamedTuple, Optional

from .errors import DomainError
from .market_model import GeneratorSpec, Linear, PiecewiseLinear, Quadratic
from .tolerances import PRICE_EQ_TOL, boundary_tol

# money-scale tie tolerance for profit sign decisions
_PROFIT_TIE_TOL = 1e-9


class _Endpoints(NamedTuple):
    lo: float
    hi: float


class Interval(_Endpoints):
    """Closed interval [lo, hi]; degenerate when lo == hi."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


class HulledCurve(NamedTuple):
    """Convex envelope of the jumpy total cost on [0, cap].

    A chord of slope ``threshold`` runs from the origin to ``knee``; past
    the knee the envelope rejoins w + c(x).  A generator with no start-up
    cost has knee 0 and the envelope is just its variable cost.
    """

    threshold: float
    knee: float
    cap: float
    startup_cost: float
    curve: object

    def value(self, x: float) -> float:
        if x < 0 or x > self.cap + boundary_tol():
            raise DomainError(f"x={x} outside [0, {self.cap}]")
        if x <= self.knee:
            return self.threshold * x
        return self.startup_cost + self.curve.value(x)


class ProfitResult(NamedTuple):
    """Optimal profit of a price taker and where it is attained.

    The argmax is {0} when staying off is strictly best, an interval of
    on-outputs when producing is strictly best, or both at a tie.
    """

    value: float
    off_optimal: bool
    on_outputs: Optional[Interval]


def cost_eval(gen: GeneratorSpec, x: float, on: bool) -> float:
    """Total cost of one generator at output x with commitment flag on."""
    tol = boundary_tol()
    if x < -tol or x > gen.x_max + tol:
        raise DomainError(f"{gen.id}: output {x} outside [0, {gen.x_max}]")
    if x > tol and not on:
        raise DomainError(f"{gen.id}: positive output {x} while off")
    if not on:
        return 0.0
    return gen.startup_cost + gen.curve.value(min(max(x, 0.0), gen.x_max))


def marginal_subdiff(gen: GeneratorSpec, x: float) -> Interval:
    """Range of marginal costs of the variable-cost curve at x.

    A one-sided slope stands in at the boundaries, so the result is a
    single point there and at any smooth interior point; at a kink it is
    the [left slope, right slope] interval.
    """
    tol = boundary_tol()
    if x < -tol or x > gen.x_max + tol:
        raise DomainError(f"{gen.id}: x={x} outside [0, {gen.x_max}]")
    x = min(max(x, 0.0), gen.x_max)
    if x == 0.0:
        s = gen.curve.slope_right(0.0)
        return Interval(s, s)
    if x == gen.x_max:
        s = gen.curve.slope_left(gen.x_max)
        return Interval(s, s)
    return Interval(gen.curve.slope_left(x), gen.curve.slope_right(x))


def average_total_cost(gen: GeneratorSpec, x: float) -> float:
    """(w + c(x)) / x; defined for 0 < x <= x_max."""
    tol = boundary_tol()
    if x <= 0 or x > gen.x_max + tol:
        raise DomainError(f"{gen.id}: x={x} outside (0, {gen.x_max}]")
    x = min(x, gen.x_max)
    return (gen.startup_cost + gen.curve.value(x)) / x


def _resolve_cap(gen: GeneratorSpec, cap: Optional[float]) -> float:
    if cap is None:
        return gen.x_max
    if cap <= 0 or cap > gen.x_max + boundary_tol():
        raise DomainError(f"{gen.id}: cap {cap} outside (0, {gen.x_max}]")
    return min(cap, gen.x_max)


def ec_min(gen: GeneratorSpec, cap: Optional[float] = None) -> float:
    """Minimal economic output: where average total cost stops falling.

    Returns the lowest x in (0, cap) whose average total cost lies in the
    marginal-cost range at x, 0 for units with no start-up cost, and cap
    when average cost is still falling at the limit.  Average total cost
    is strictly decreasing below this point, so no price-taking unit ever
    produces inside (0, ec_min).
    """
    cap = _resolve_cap(gen, cap)
    w = gen.startup_cost
    if w == 0.0:
        return 0.0
    curve = gen.curve
    if isinstance(curve, Linear):
        # average (w + a x)/x falls forever; scale point is the cap
        return cap
    if isinstance(curve, Quadratic):
        if curve.q == 0.0:
            return cap
        x = math.sqrt(2.0 * w / curve.q)
        return x if x < cap else cap
    # piecewise linear: x * slope_right(x) - w - c(x) is constant between
    # kinks and nondecreasing, so the first kink where it turns >= 0 is
    # the lowest crossing
    total = 0.0
    left = 0.0
    for right, slope in curve.segments[:-1]:
        total += slope * (right - left)
        left = right
        if left >= cap:
            break
        next_slope = curve.slope_right(left)
        if left * next_slope - w - total >= 0.0:
            return left
    return cap


def hull_cost(gen: GeneratorSpec, cap: Optional[float] = None) -> HulledCurve:
    """Convex envelope of the total cost on [0, cap].

    The chord from the origin is tangent at the (possibly capped) minimal
    economic output; its slope is the lowest average total cost, the price
    at which running the unit first breaks even.
    """
    cap = _resolve_cap(gen, cap)
    knee = ec_min(gen, cap)
    if knee > 0.0:
        threshold = (gen.startup_cost + gen.curve.value(knee)) / knee
    else:
        threshold = gen.curve.slope_right(0.0)
    return HulledCurve(
        threshold=threshold,
        knee=knee,
        cap=cap,
        startup_cost=gen.startup_cost,
        curve=gen.curve,
    )


def _on_argmax(gen: GeneratorSpec, p: float, cap: float) -> Interval:
    """Argmax of p*x - c(x) over [0, cap] (start-up cost not included)."""
    lo = min(gen.curve.min_out_at(p), cap)
    hi = min(gen.curve.max_out_at(p), cap)
    return Interval(lo, hi)


def profit(gen: GeneratorSpec, p: float, cap: Optional[float] = None) -> ProfitResult:
    """Best profit of a price taker at price p, output limited to cap.

    Maximizes p*x - w - c(x) against the off option worth 0.
    """
    cap = _resolve_cap(gen, cap)
    on = _on_argmax(gen, p, cap)
    gross = p * on.hi - gen.curve.value(on.hi)
    net = gross - gen.startup_cost
    if net > _PROFIT_TIE_TOL:
        return ProfitResult(value=net, off_optimal=False, on_outputs=on)
    if net < -_PROFIT_TIE_TOL:
        return ProfitResult(value=0.0, off_optimal=True, on_outputs=None)
    # tie between off and running; for w = 0 the tie is real only if the
    # on-argmax reaches down to 0
    off = gen.startup_cost > 0.0 or on.lo <= _PROFIT_TIE_TOL
    return ProfitResult(value=max(0.0, net), off_optimal=off, on_outputs=on)


def supply_correspondence(gen: GeneratorSpec, p: float, cap: Optional[float] = None) -> Interval:
    """Profit-maximizing output range at price p (hulled response).

    Below the break-even threshold the unit stays off.  Exactly at the
    threshold every output from 0 up to the best on-output is optimal for
    the hulled cost; above it the response is the on-argmax clipped to
    [knee, cap].  The band PRICE_EQ_TOL decides "exactly at".
    """
    cap = _resolve_cap(gen, cap)
    hull = hull_cost(gen, cap)
    if p < hull.threshold - PRICE_EQ_TOL:
        return Interval(0.0, 0.0)
    on = _on_argmax(gen, p, cap)
    t_lo = min(max(on.lo, hull.knee), cap)
    t_hi = min(max(on.hi, hull.knee), cap)
    if p <= hull.threshold + PRICE_EQ_TOL:
        return Interval(0.0, t_hi)
    return Interval(t_lo, t_hi)
