"""Per-generator cost analysis.

Everything a single generator contributes to pricing lives here: total
cost with the start-up jump, average total cost, the minimal output at
which it stops falling, the break-even threshold and knee of the convex
envelope of the jumpy cost function, and the price-taking profit and
supply responses derived from that envelope.

The total cost of a unit producing x > 0 is w + c(x); at x = 0 it is 0.
The start-up jump makes this nonconvex, so the supply response below the
envelope's tangent point is all-or-nothing.
"""

import math
from typing import NamedTuple

from .errors import DomainError
from .market_model import GeneratorSpec, Quadratic
from .tolerances import PRICE_EQ_TOL, boundary_tol


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


class Hull(NamedTuple):
    """Where the convex envelope of the jumpy total cost leaves its chord.

    A chord of slope ``threshold`` runs from the origin to ``knee``; past
    the knee the envelope rejoins w + c(x).  A generator with no start-up
    cost has knee 0 and the envelope is just its variable cost.
    """

    threshold: float
    knee: float


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


def average_total_cost(gen: GeneratorSpec, x: float) -> float:
    """(w + c(x)) / x; defined for 0 < x <= x_max."""
    tol = boundary_tol()
    if x <= 0 or x > gen.x_max + tol:
        raise DomainError(f"{gen.id}: x={x} outside (0, {gen.x_max}]")
    x = min(x, gen.x_max)
    return (gen.startup_cost + gen.curve.value(x)) / x


def _knee(gen: GeneratorSpec) -> float:
    """``ec_min``'s answer in one pass over the unit's segments."""
    x_max = gen.x_max
    w = gen.startup_cost
    if w == 0.0:
        return 0.0
    curve = gen.curve
    if isinstance(curve, Quadratic):
        x = math.sqrt(2.0 * w / curve.q)
        return x if x < x_max else x_max
    # piecewise linear: x * slope_right(x) - w - c(x) is constant between
    # kinks and nondecreasing, so the first kink where it turns >= 0 is
    # the lowest crossing; with one segment, average cost falls up to x_max.
    # Endpoints ascend, so a kink's right-hand slope is the next segment's.
    segments = curve.segments
    total = 0.0
    left = 0.0
    for (right, slope), (_, next_slope) in zip(segments, segments[1:]):
        total += slope * (right - left)
        left = right
        if left >= x_max:
            break
        if left * next_slope - w - total >= 0.0:
            return left
    return x_max


def ec_min(gen: GeneratorSpec) -> float:
    """Minimal economic output: where average total cost stops falling.

    Returns the lowest x in (0, x_max) whose average total cost lies in
    the marginal-cost range at x, 0 for units with no start-up cost, and
    x_max when average cost is still falling at capacity.  Average total
    cost is strictly decreasing below this point, so no price-taking unit
    ever produces inside (0, ec_min).  A capped unit is the unit with a
    lower x_max.  One pass over a PWL unit's segments, O(segments).
    """
    return _knee(gen)


def hull_cost(gen: GeneratorSpec) -> Hull:
    """Break-even threshold and knee of the convex envelope on [0, x_max].

    The chord from the origin is tangent at the minimal economic output;
    its slope is the lowest average total cost, the price at which running
    the unit first breaks even.  Finding the knee and costing it each take
    one pass over a PWL unit's segments, so the hull is O(segments).

    Every supply evaluation rebuilds each unit's hull.  A per-unit table,
    each unit's hull computed once per run, ran ``dispatch_n12`` 2.63x,
    ``cli_batch`` 2.19x and ``sweep_n8`` 2.14x faster, bit for bit, but
    read ``peak_rss_mb`` +50%, +25% and +21% (one 40-s pair each, Python
    3.11 on 2 shared cores), because the benchmark's pool keeps every
    operation.  It stays shelved until the pool is fixed [shelved] [bench].
    """
    knee = _knee(gen)
    if knee > 0.0:
        return Hull((gen.startup_cost + gen.curve.value(knee)) / knee, knee)
    return Hull(gen.curve.slope_right(0.0), knee)


def profit(gen: GeneratorSpec, p: float) -> float:
    """Best profit of a price taker at price p, output limited to x_max.

    Maximizes p*x - w - c(x) against the off option worth 0.
    """
    x = min(gen.curve.max_out_at(p), gen.x_max)
    return max(0.0, p * x - gen.curve.value(x) - gen.startup_cost)


def _supply_ends(gen: GeneratorSpec, p: float) -> tuple[float, float]:
    """``supply_correspondence``'s two ends as plain floats, unvalidated."""
    x_max = gen.x_max
    hull = hull_cost(gen)
    if p < hull.threshold - PRICE_EQ_TOL:
        return 0.0, 0.0
    t_hi = min(max(gen.curve.max_out_at(p), hull.knee), x_max)
    if p <= hull.threshold + PRICE_EQ_TOL:
        return 0.0, t_hi
    return min(max(gen.curve.min_out_at(p), hull.knee), x_max), t_hi


def supply_correspondence(gen: GeneratorSpec, p: float) -> Interval:
    """Profit-maximizing output range at price p (hulled response).

    Below the break-even threshold the unit stays off.  Exactly at the
    threshold every output from 0 up to the best on-output is optimal for
    the hulled cost; above it the response is the on-argmax clipped to
    [knee, x_max].  The band PRICE_EQ_TOL decides "exactly at".
    """
    return Interval(*_supply_ends(gen, p))
