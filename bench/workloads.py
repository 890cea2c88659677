"""Seeded instance generator for the pricing benchmark.

Every operation of a workload is built from ``random.Random(f"{seed}/{workload}/{index}")``,
so the same seed always gives the same inputs and operation ``i`` does not
depend on how many operations came before it.  Fleets are valid by
construction: PWL breakpoints are distinct multiples of 1/1000 MW, so they
are strictly ascending after rounding, and slopes are sorted.  A fleet is
never re-drawn or dropped because the program fails on it.

Each workload cycles through a fixed list of instance shapes, so every run
carries the same mix of plain fleets, oversized units and rejects whatever
the seed.  The shapes are what put each of the four capped case tags
(``no_lnmgu``, ``lnmgu_marginal``, ``lnmgu_irrelevant``,
``interval_upper_capped``) into the workloads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import List, Optional

DISPATCH_UNITS = 12
SWEEP_UNITS = 8
SWEEP_LEVELS = 40
FORMATS = ("json", "csv", "markdown")
REPS = ("lo", "mid", "hi")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


@dataclass(frozen=True)
class Op:
    """One client operation and what a correct answer looks like."""

    index: int
    shape: str
    text: str  # instance file content
    demand: float
    ids: tuple
    argv_extra: tuple = ()  # cli flags after the file name
    expected_exit: int = EXIT_OK
    grid: Optional[tuple] = None  # sweep demand levels


def _milli(rng: random.Random, lo: float, hi: float) -> float:
    """A value in [lo, hi] on the 1/1000 grid, so JSON round-trips exactly."""
    return rng.randint(int(lo * 1000), int(hi * 1000)) / 1000.0


def _curve(rng: random.Random, kind: str, x_max: float) -> dict:
    if kind == "linear":
        return {"linear": _milli(rng, 0.5, 5.0)}
    if kind == "quadratic":
        return {"quadratic": {"a": _milli(rng, 0.0, 3.0), "q": _milli(rng, 0.05, 0.6)}}
    nseg = rng.randint(2, 4)
    slopes = sorted(_milli(rng, 0.2, 6.0) for _ in range(nseg))
    top = round(x_max * 1000)
    cuts = sorted(rng.sample(range(1, top), nseg - 1))
    rights = [c / 1000.0 for c in cuts] + [x_max]
    return {"pwl": [[r, s] for r, s in zip(rights, slopes)]}


def _unit(rng: random.Random, gid: str, kind: str, cap_lo: float, cap_hi: float) -> dict:
    x_max = _milli(rng, cap_lo, cap_hi)
    w = 0.0 if rng.random() < 0.1 else _milli(rng, 4.0, 20.0)
    return {"id": gid, "w": w, "curve": _curve(rng, kind, x_max), "x_max": x_max}


def _fleet(rng: random.Random, n: int, cap_lo: float, cap_hi: float) -> List[dict]:
    """n units, the three curve kinds as evenly split as n allows, in random order.

    An even split keeps the pricing work per fleet alike from seed to seed.
    """
    first = rng.randrange(3)
    kinds = [("linear", "quadratic", "pwl")[(first + k) % 3] for k in range(n)]
    rng.shuffle(kinds)
    return [_unit(rng, f"g{k + 1:02d}", kind, cap_lo, cap_hi) for k, kind in enumerate(kinds)]


def _capacity(gens: List[dict]) -> float:
    return sum(g["x_max"] for g in gens)


def _oversized(rng: random.Random, gid: str, demand: float, expensive: bool) -> dict:
    """A linear unit with start-up cost and capacity above demand.

    Its average cost falls all the way to capacity, so its minimal economic
    output exceeds demand: it is an LNMGU.  A cheap one tends to set the
    capped price (``lnmgu_marginal``); an expensive one is priced out
    (``lnmgu_irrelevant``).
    """
    x_max = round(demand * rng.uniform(1.3, 2.5), 3)
    if expensive:
        a, w = _milli(rng, 6.0, 9.0), _milli(rng, 20.0, 40.0)
    else:
        a, w = _milli(rng, 0.1, 1.0), _milli(rng, 0.5 * demand, 1.5 * demand)
    return {"id": gid, "w": w, "curve": {"linear": a}, "x_max": x_max}


def _instance_text(demand: float, gens: List[dict]) -> str:
    return json.dumps({"demand": demand, "generators": gens})


def _ids(gens: List[dict]) -> tuple:
    return tuple(g["id"] for g in gens)


def _demand(rng: random.Random, gens: List[dict], lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi) * _capacity(gens), 3)


def _interval_capped(rng: random.Random, n: int) -> tuple:
    """A fleet whose capped price set is the regular set cut off above.

    The regular units are linear and demand equals the total capacity of
    the cheapest k of them, so the regular fleet clears on the whole gap
    between unit k's and unit k+1's break-even prices.  The oversized
    unit's average cost at demand is placed inside that gap.
    """
    m = max(n - 1, 3)
    gens = []
    threshold = 0.5
    for k in range(m):
        x_max = _milli(rng, 2.0, 4.0)
        threshold += _milli(rng, 1.0, 2.0)
        w = 0.0 if k == 0 else _milli(rng, 0.5, 3.0)
        a = round(threshold - w / x_max, 3)
        gens.append({"id": f"g{k + 1:02d}", "w": w, "curve": {"linear": a}, "x_max": x_max})
    k = rng.randint(2, m - 1)  # demand >= 4 MW >= every regular capacity
    demand = round(sum(g["x_max"] for g in gens[:k]), 3)
    t = [g["curve"]["linear"] + g["w"] / g["x_max"] for g in gens]
    p_bar = _milli(rng, t[k - 1] + 0.25 * (t[k] - t[k - 1]), t[k - 1] + 0.75 * (t[k] - t[k - 1]))
    big_a = _milli(rng, 0.0, 0.5 * p_bar)
    big = {
        "id": "big",
        "w": round((p_bar - big_a) * demand, 3),
        "curve": {"linear": big_a},
        "x_max": round(2.0 * demand, 3),
    }
    return demand, gens + [big]


def _reject(rng: random.Random, index: int) -> tuple:
    """A deliberately bad instance file and the exit code it must get."""
    gens = _fleet(rng, 3, 1.0, 6.0)
    demand = _demand(rng, gens, 0.4, 0.8)
    kind = (index // len(CLI_SHAPES)) % 5
    if kind == 0:
        gens[1]["w"] = -_milli(rng, 1.0, 5.0)
    elif kind == 1:
        gens[2]["id"] = gens[0]["id"]
    elif kind == 2:
        gens[0]["curve"] = {"pwl": [[0.5 * gens[0]["x_max"], 3.0], [gens[0]["x_max"], 1.0]]}
    elif kind == 3:
        demand = -demand
    else:
        return "rejected:malformed", '{"demand": 4, "generators": [', 4.0, (), EXIT_INVALID
    return "rejected:invalid", _instance_text(demand, gens), demand, _ids(gens), EXIT_INVALID


# ------------------------------------------------------------------ shapes

# Oversized units are left to the other workloads.  A fleet with one
# enumerates about half again as many subsets (every subset that holds the
# big unit can serve demand), and such a two-speed mix makes the latency
# percentiles of a 25-40-report run jump from run to run.
DISPATCH_SHAPES = ("plain",)

SWEEP_SHAPES = ("oversized_cheap", "oversized_expensive")

CLI_SHAPES = (
    "plain", "plain", "oversized_cheap", "plain", "plain", "oversized_expensive",
    "plain", "plain", "interval_capped", "plain", "plain", "rejected",
    "plain", "plain", "oversized_cheap", "plain", "plain", "oversized_expensive",
    "plain", "plain", "interval_capped", "plain", "plain", "infeasible",
)


def dispatch_op(seed: int, index: int) -> Op:
    """A 12-unit fleet priced through run_pipeline and render_report."""
    rng = random.Random(f"{seed}/dispatch_n12/{index}")
    gens = _fleet(rng, DISPATCH_UNITS, 3.0, 9.0)
    # enumeration work depends mostly on demand over capacity; a narrow band
    # keeps the work per report within about 7% from fleet to fleet
    demand = _demand(rng, gens, 0.5, 0.55)
    return Op(index, DISPATCH_SHAPES[0], _instance_text(demand, gens), demand, _ids(gens))


def sweep_op(seed: int, index: int) -> Op:
    """An 8-unit fleet plus one oversized unit, swept over (0, capacity)."""
    rng = random.Random(f"{seed}/sweep_n8/{index}")
    shape = SWEEP_SHAPES[index % len(SWEEP_SHAPES)]
    gens = _fleet(rng, SWEEP_UNITS, 1.0, 10.0)
    ref = _demand(rng, gens, 0.4, 0.6)
    gens.append(_oversized(rng, "big", ref, shape == "oversized_expensive"))
    demand = max(g["x_max"] for g in gens)
    cap = _capacity(gens)
    grid = tuple(round(cap * (k + 0.5) / SWEEP_LEVELS, 3) for k in range(SWEEP_LEVELS))
    argv = ("--sweep", ",".join(repr(d) for d in grid), "--format", "csv")
    return Op(index, shape, _instance_text(demand, gens), demand, _ids(gens), argv, EXIT_OK, grid)


def cli_op(seed: int, index: int) -> Op:
    """A 2-6-unit instance priced through the command line."""
    rng = random.Random(f"{seed}/cli_batch/{index}")
    shape = CLI_SHAPES[index % len(CLI_SHAPES)]
    argv = ("--format", FORMATS[index % 3], "--rep", REPS[(index // 3) % 3])
    n = rng.randint(2, 6)
    expected = EXIT_OK
    if shape == "rejected":
        shape, text, demand, ids, expected = _reject(rng, index)
        return Op(index, shape, text, demand, ids, argv, expected)
    if shape == "interval_capped":
        demand, gens = _interval_capped(rng, n)
    elif shape == "plain":
        gens = _fleet(rng, n, 1.0, 8.0)
        # at 50-85% of capacity about a third of all priced instances,
        # oversized shapes included, have an LNMGU
        demand = _demand(rng, gens, 0.5, 0.85)
    elif shape == "infeasible":
        gens = _fleet(rng, n, 1.0, 8.0)
        demand = _demand(rng, gens, 1.05, 1.5)
        expected = EXIT_INFEASIBLE
    else:
        gens = _fleet(rng, n - 1, 1.0, 8.0)
        demand = _demand(rng, gens, 0.3, 0.8)
        gens.append(_oversized(rng, "big", demand, shape == "oversized_expensive"))
    return Op(index, shape, _instance_text(demand, gens), demand, _ids(gens), argv, expected)


MAKERS = {"dispatch_n12": dispatch_op, "sweep_n8": sweep_op, "cli_batch": cli_op}
