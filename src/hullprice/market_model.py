"""Market data model: cost curves, generators, instances, JSON interchange.

An instance is one period of a single-node power market: a fixed demand in
MW and a list of generators.  Each generator has a nonnegative start-up
cost, a convex nondecreasing variable-cost curve starting at c(0) = 0, and
a capacity limit.  Curves are piecewise linear (PWL) or quadratic with
q > 0, which keeps every downstream computation (marginal cost ranges,
level sets, conjugates) in closed form.  A linear cost, and a quadratic
one with q = 0, is read as one PWL segment up to x_max.  Only the
generator holds its capacity; a quadratic curve has no domain of its own.

JSON schema::

    {"demand": number,
     "generators": [{"id": str,
                     "w": number,
                     "curve": {"linear": a}
                            | {"quadratic": {"a": a, "q": q}}
                            | {"pwl": [[x1, s1], [x2, s2], ...]},
                     "x_max": number}]}

PWL pairs are (segment right endpoint, slope), contiguous from 0; the last
endpoint must equal x_max.
"""

import json
import math
import sys
from array import array
from collections.abc import Sequence
from typing import NamedTuple

from .errors import InfeasibleError, SchemaError, ValidationError
from .tolerances import boundary_tol, demand_tol, supply_slack


class Quadratic(NamedTuple):
    """c(x) = a*x + (q/2)*x^2 with q > 0; marginal cost a + q*x.

    The curve has no domain of its own: callers clip output to the
    generator's cap.  A linear cost is a one-segment PiecewiseLinear.
    """

    a: float
    q: float

    def value(self, x: float) -> float:
        return self.a * x + 0.5 * self.q * x * x

    def slope_right(self, x: float) -> float:
        return self.a + self.q * x

    def max_out_at(self, lam: float) -> float:
        return max((lam - self.a) / self.q, 0.0)

    # the marginal cost is continuous, so both sides agree
    slope_left = slope_right
    min_out_at = max_out_at


class PiecewiseLinear(NamedTuple):
    """Contiguous linear segments from 0: ((right endpoint, slope), ...).

    Segment k covers (x_{k-1}, x_k] with constant slope s_k; valid curves
    have ascending endpoints and nondecreasing nonnegative slopes.
    """

    segments: tuple

    @property
    def domain_max(self) -> float:
        return self.segments[-1][0]

    def value(self, x: float) -> float:
        total = 0.0
        left = 0.0
        for right, slope in self.segments:
            if x <= right:
                return total + slope * (x - left)
            total += slope * (right - left)
            left = right
        return total

    def slope_right(self, x: float) -> float:
        # at interior kinks: slope of the next segment; at domain_max: last slope
        for right, slope in self.segments:
            if x < right:
                return slope
        return self.segments[-1][1]

    def slope_left(self, x: float) -> float:
        # at 0 there is no left slope; return the first segment's
        for right, slope in self.segments:
            if x <= right:
                return slope
        return self.segments[-1][1]

    def max_out_at(self, lam: float) -> float:
        out = 0.0
        for right, slope in self.segments:
            if slope <= lam:
                out = right
            else:
                break
        return out

    def min_out_at(self, lam: float) -> float:
        left = 0.0
        for right, slope in self.segments:
            if slope >= lam:
                return left
            left = right
        return self.domain_max


CostCurve = Quadratic | PiecewiseLinear


class GeneratorSpec(NamedTuple):
    """One generator: id, start-up cost w, variable-cost curve, capacity."""

    id: str
    startup_cost: float
    curve: CostCurve
    x_max: float


class MarketInstance(NamedTuple):
    """Demand and a sequence of GeneratorSpec: a tuple, or a Fleet when parsed."""

    demand: float
    generators: Sequence

    @property
    def total_capacity(self) -> float:
        return sum(g.x_max for g in self.generators)


class Fleet(Sequence):
    """Generators stored packed: ids, curve shapes and one array of numbers.

    A number takes 8 bytes here instead of a float object and the slot
    that holds it, so a held instance of twelve units takes about a
    quarter of the memory of its GeneratorSpecs.  Iterating builds fresh
    GeneratorSpecs equal to those packed, so a caller that walks the
    units more than once takes ``tuple(fleet)`` first.  A Fleet equals a
    tuple of the same GeneratorSpecs.
    """

    __slots__ = ("_ids", "_sizes", "_numbers")

    def __init__(self, generators):
        ids, sizes, numbers = [], [], []
        for g in generators:
            curve = g.curve
            if isinstance(curve, Quadratic):
                values = curve  # (a, q)
                sizes.append(0)
            else:
                values = [v for segment in curve.segments for v in segment]
                sizes.append(len(curve.segments))
            ids.append(g.id)
            numbers += (g.startup_cost, g.x_max, *values)
        self._ids = tuple(ids)
        # pwl segments per unit, 0 for a quadratic curve
        self._sizes = tuple(sizes)
        self._numbers = array("d", numbers)

    def __iter__(self):
        numbers = self._numbers.tolist()
        k = 0
        for gid, size in zip(self._ids, self._sizes):
            startup_cost, x_max = numbers[k], numbers[k + 1]
            k += 2
            if size:
                end = k + 2 * size
                flat = numbers[k:end]
                curve = PiecewiseLinear(tuple(zip(flat[0::2], flat[1::2])))
            else:
                end = k + 2
                curve = Quadratic(*numbers[k:end])
            k = end
            yield GeneratorSpec(gid, startup_cost, curve, x_max)

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other):
        if not isinstance(other, (tuple, Fleet)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Fleet({tuple(self)!r})"


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: integer too large for a float") from None


def _reject_constant(name):
    raise SchemaError(f"non-finite literal {name} not allowed")


def _curve_from_json(obj, gid: str, x_max: float) -> CostCurve:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(f"{gid}: curve must be exactly one of linear/quadratic/pwl")
    (kind, body), = obj.items()
    if kind == "linear":
        a = _require_number(body, f"{gid}: linear slope")
    elif kind == "quadratic":
        if not isinstance(body, dict) or set(body) != {"a", "q"}:
            raise SchemaError(f"{gid}: quadratic curve needs keys a and q")
        a = _require_number(body["a"], f"{gid}: quadratic a")
        q = _require_number(body["q"], f"{gid}: quadratic q")
        if q:
            return Quadratic(a, q)
    elif kind == "pwl":
        if not isinstance(body, list) or not body:
            raise SchemaError(f"{gid}: pwl curve needs a nonempty pair list")
        segments = []
        for pair in body:
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{gid}: pwl entries must be [endpoint, slope] pairs")
            segments.append(
                (
                    _require_number(pair[0], f"{gid}: pwl endpoint"),
                    _require_number(pair[1], f"{gid}: pwl slope"),
                )
            )
        return PiecewiseLinear(tuple(segments))
    else:
        raise SchemaError(f"{gid}: unknown curve kind {kind!r}")
    # a linear or flat quadratic cost is one segment up to the cap
    return PiecewiseLinear(((x_max, a),))


def parse_instance(text: str) -> MarketInstance:
    """Parse and validate an instance from JSON text.

    Raises SchemaError for malformed or mistyped input, and otherwise what
    check_instance raises.  Every instance this returns passes
    validate_instance with no findings.
    """
    instance = read_instance(text)
    check_instance(instance)
    return instance


def read_instance(text: str) -> MarketInstance:
    """Parse an instance from JSON text, checking the schema only.

    The generators come back as a Fleet.  Raises SchemaError for
    malformed or mistyped input; the model invariants are left to
    check_instance.
    """
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deeply") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")
    extra = set(raw) - {"demand", "generators"}
    if extra:
        raise SchemaError(f"unknown top-level keys: {sorted(extra)}")
    if "demand" not in raw or "generators" not in raw:
        raise SchemaError("top level needs keys demand and generators")
    demand = _require_number(raw["demand"], "demand")
    if not isinstance(raw["generators"], list):
        raise SchemaError("generators must be a list")

    gens = []
    for k, entry in enumerate(raw["generators"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"generators[{k}]: expected an object")
        extra = set(entry) - {"id", "w", "curve", "x_max"}
        if extra:
            raise SchemaError(f"generators[{k}]: unknown keys {sorted(extra)}")
        missing = {"id", "w", "curve", "x_max"} - set(entry)
        if missing:
            raise SchemaError(f"generators[{k}]: missing keys {sorted(missing)}")
        gid = entry["id"]
        if not isinstance(gid, str) or not gid:
            raise SchemaError(f"generators[{k}]: id must be a nonempty string")
        # instances of one fleet, such as its periods, share their id strings
        gid = sys.intern(gid)
        x_max = _require_number(entry["x_max"], f"{gid}: x_max")
        gens.append(
            GeneratorSpec(
                id=gid,
                startup_cost=_require_number(entry["w"], f"{gid}: w"),
                curve=_curve_from_json(entry["curve"], gid, x_max),
                x_max=x_max,
            )
        )

    return MarketInstance(demand=demand, generators=Fleet(gens))


def _curve_violations(g: GeneratorSpec):
    """Yield (rule, message) pairs for one generator's curve."""
    c = g.curve
    if isinstance(c, Quadratic):
        if not (math.isfinite(c.a) and math.isfinite(c.q)):
            yield ("coefficients", f"{g.id}: non-finite cost coefficient")
        elif c.a < 0 or c.q < 0:
            yield ("coefficients", f"{g.id}: negative cost coefficient")
        elif not c.q > 0:
            yield ("coefficients", f"{g.id}: flat quadratic; a linear cost is one pwl segment")
        return
    # piecewise linear
    endpoints = [right for right, _ in c.segments]
    slopes = [slope for _, slope in c.segments]
    if any(not math.isfinite(v) for v in endpoints + slopes):
        yield ("coefficients", f"{g.id}: non-finite cost coefficient")
        return
    prev = 0.0
    for right in endpoints:
        if right <= prev:
            yield ("breakpoints", f"{g.id}: non-ascending breakpoints")
            break
        prev = right
    if any(s < 0 for s in slopes):
        yield ("coefficients", f"{g.id}: negative slope")
    if any(b < a for a, b in zip(slopes, slopes[1:])):
        yield ("convexity", f"{g.id}: non-convex curve")


class CapacityRule:
    """Capacity against one demand level, the one place that compares them.

    A fleet whose capacity is ``short`` of demand is infeasible.
    Otherwise it serves min(demand, capacity) (``served``), and if its
    capacity is also a ``ray`` every price above its lowest clearing price
    still clears.  Part of a larger fleet meets that fleet's price-set
    crossing on its own only when its capacity ``clears`` demand.  For a
    single unit, ``served`` is its contract cap cmax = min(demand, x_max).
    ``tol`` bounds feasibility and unserved dispatch, ``slack`` the
    price-set crossings.  The bands nest whatever their order: ``clears``
    uses the narrower of the two, so it implies not ``short``, and
    ``ray`` the wider, so it takes in every feasible capacity up to demand.
    """

    __slots__ = ("demand", "tol", "slack")

    def __init__(self, demand: float):
        self.demand = demand
        self.tol = demand_tol(demand)
        self.slack = supply_slack(demand)

    def served(self, capacity: float) -> float:
        return min(self.demand, capacity)

    def short(self, capacity: float) -> bool:
        return capacity < self.demand - self.tol

    def ray(self, capacity: float) -> bool:
        return capacity <= self.demand + max(self.tol, self.slack)

    def clears(self, capacity: float) -> bool:
        return capacity >= self.demand - min(self.tol, self.slack)


def validate_instance(instance: MarketInstance):
    """Return all invariant violations, deterministically ordered.

    Instance-level findings come first, then per-generator findings sorted
    by (generator id, rule name).  Empty list means the instance is valid.
    """
    return [msg for _, _, msg in _findings(instance)]


def check_instance(instance: MarketInstance) -> None:
    """Raise ValidationError listing every violation, if there is one.

    InfeasibleError when capacity short of demand is the only violation.
    """
    _raise(_findings(instance))


def check_fleet(generators) -> None:
    """check_instance for the generators alone, whatever the demand."""
    _raise(sorted(_fleet_findings(generators), key=_order))


def demand_violations(demand: float, generators) -> list:
    """Violations of one demand level against a valid fleet."""
    return [msg for _, _, msg in _demand_findings(demand, generators)]


def _raise(found) -> None:
    if found:
        messages = [msg for _, _, msg in found]
        only_infeasible = [rule for _, rule, _ in found] == ["infeasible"]
        raise (InfeasibleError if only_infeasible else ValidationError)(
            "; ".join(messages), messages
        )


def _order(finding):
    return finding[0], finding[1]


def _findings(instance: MarketInstance):
    """``validate_instance`` as sorted (generator id, rule, message) triples."""
    gens = tuple(instance.generators)
    found = _demand_findings(instance.demand, gens)
    found += _fleet_findings(gens)
    found.sort(key=_order)
    return found


def _demand_findings(demand: float, generators):
    if not math.isfinite(demand):
        return [("", "demand", "demand not finite")]
    found = []
    if demand <= 0:
        found.append(("", "demand", "demand not positive"))
    if generators:
        cap = sum(g.x_max for g in generators)
        if CapacityRule(demand).short(cap):
            found.append(
                ("", "infeasible", f"infeasible: total capacity {cap} below demand {demand}")
            )
    return found


def _fleet_findings(generators):
    tol = boundary_tol()
    found = []
    if not generators:
        found.append(("", "generators", "no generators"))

    seen = set()
    for g in generators:
        if g.id in seen:
            found.append(("", f"id {g.id}", f"duplicate id {g.id}"))
        seen.add(g.id)

    total = 0.0
    for g in generators:
        before = len(found)
        if not math.isfinite(g.x_max):
            found.append((g.id, "capacity", f"{g.id}: x_max not finite"))
        elif g.x_max <= 0:
            found.append((g.id, "capacity", f"{g.id}: x_max not positive"))
        elif isinstance(g.curve, PiecewiseLinear) and abs(g.curve.domain_max - g.x_max) > tol:
            found.append((g.id, "curve_domain", f"{g.id}: curve domain mismatch"))
        if not math.isfinite(g.startup_cost):
            found.append((g.id, "startup", f"{g.id}: startup_cost not finite"))
        elif g.startup_cost < 0:
            found.append((g.id, "startup", f"{g.id}: startup_cost negative"))
        for rule, msg in _curve_violations(g):
            found.append((g.id, rule, msg))
        if len(found) == before:
            # bounds the unit's cost, and its Lagrangian term at any price
            # up to its top marginal cost
            top = g.startup_cost + g.x_max * g.curve.slope_left(g.x_max)
            if math.isfinite(top):
                total += top
            else:
                found.append((g.id, "overflow", f"{g.id}: cost at x_max overflows a float"))
    if not math.isfinite(total):
        found.append(("", "overflow", "fleet cost at capacity overflows a float"))
    return found
