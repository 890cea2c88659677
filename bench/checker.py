"""Output checks for the pricing benchmark, made from outside the package.

Each check reads what a user sees (the rendered report, the sweep CSV, the
exit code) and returns a list of problems; an empty list means the output
is correct.  The checks restate the paper's identities rather than
re-running the program's own diagnostics:

- the report's own ``checks.passed`` (or the CLI's five ``check ...: ok``
  lines, or ``Diagnostics: passed``);
- the scheduled outputs sum to demand;
- ``chp.gap`` equals ``chp.total_uplift``: settling at a hull price pays
  exactly the duality gap;
- the capped total uplift is at most the hull total uplift + 1e-6;
- every uplift is at least -tol;
- each price set has lo <= hi;
- the capped lo is at least the hull lo - tol;
- over a sweep, the hull lo does not fall as demand rises;
- the command line exits with the expected code.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

TOL = 1e-6
DOMINANCE_SLACK = 1e-6
CASE_TAGS = ("no_lnmgu", "lnmgu_marginal", "lnmgu_irrelevant", "interval_upper_capped")
CLI_CHECK_NAMES = (
    "single_large_unit_committed",
    "reduction_invariant",
    "price_ordering",
    "uplift_dominance",
    "limit_consistent_with_eps",
)


@dataclass
class Verdict:
    problems: List[str] = field(default_factory=list)
    case_tags: List[str] = field(default_factory=list)  # as shown in the output

    @property
    def ok(self) -> bool:
        return not self.problems


def _tol(scale: float) -> float:
    return TOL * max(1.0, abs(scale))


def _num(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _common(
    v: Verdict,
    demand: float,
    outputs: Sequence[float],
    hull: tuple,
    capped: tuple,
    hull_uplifts: Sequence[float],
    capped_uplifts: Sequence[float],
    scale: float,
) -> None:
    """Checks every report format carries: schedule, sets and uplifts."""
    if abs(sum(outputs) - demand) > _tol(demand):
        v.problems.append(f"scheduled outputs sum to {sum(outputs)}, demand is {demand}")
    for name, (lo, hi) in (("hull", hull), ("capped", capped)):
        if lo > hi:
            v.problems.append(f"{name} price set has lo {lo} > hi {hi}")
    if capped[0] < hull[0] - _tol(hull[0]):
        v.problems.append(f"capped lo {capped[0]} below hull lo {hull[0]}")
    for name, ups in (("hull", hull_uplifts), ("capped", capped_uplifts)):
        worst = min(ups, default=0.0)
        if worst < -_tol(scale):
            v.problems.append(f"negative {name} uplift {worst}")
    if sum(capped_uplifts) > sum(hull_uplifts) + DOMINANCE_SLACK:
        v.problems.append(
            f"capped total uplift {sum(capped_uplifts)} exceeds hull total {sum(hull_uplifts)}"
        )


def _set_from_json(ps: dict) -> tuple:
    return ps["lo"], math.inf if ps["hi"] is None else ps["hi"]


def check_report_json(text: str, demand: float, ids: Sequence[str]) -> Verdict:
    """Checks on the canonical JSON report."""
    v = Verdict()
    try:
        doc = json.loads(text)
        chp, mchp, dispatch = doc["chp"], doc["mchp"], doc["dispatch"]
        schedule = dispatch["schedule"]
        outputs = [e["x"] for e in schedule]
        got_ids = [e["id"] for e in schedule]
        hull, capped = _set_from_json(chp["price_set"]), _set_from_json(mchp["price_set"])
        hull_up = [chp["uplifts"][i] for i in ids]
        capped_up = [mchp["uplifts"][i] for i in ids]
        passed = doc["checks"]["passed"]
        gap, total = chp["gap"], chp["total_uplift"]
        cost = dispatch["total_cost"]
        v.case_tags.append(mchp["case"])
    except (ValueError, KeyError, TypeError) as exc:
        v.problems.append(f"unreadable JSON report: {exc!r}")
        return v
    if passed is not True:
        v.problems.append("report checks did not pass")
    if got_ids != list(ids):
        v.problems.append(f"schedule ids {got_ids} differ from fleet ids {list(ids)}")
    if abs(gap - total) > _tol(cost):
        v.problems.append(f"hull gap {gap} differs from hull total uplift {total}")
    if abs(sum(hull_up) - total) > _tol(cost):
        v.problems.append(f"hull uplifts sum to {sum(hull_up)}, total says {total}")
    _common(v, demand, outputs, hull, capped, hull_up, capped_up, cost)
    return v


def check_report_csv(text: str, demand: float, ids: Sequence[str], stderr: str) -> Verdict:
    """Checks on the per-generator CSV report plus the CLI's check lines."""
    v = Verdict()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["id", "u", "x", "chp_uplift", "mchp_uplift"]:
        v.problems.append(f"unexpected CSV header {rows[:1]}")
        return v
    try:
        body = rows[1:]
        got_ids = [r[0] for r in body]
        outputs = [float(r[2]) for r in body]
        hull_up = [float(r[3]) for r in body]
        capped_up = [float(r[4]) for r in body]
    except (ValueError, IndexError) as exc:
        v.problems.append(f"unreadable CSV report: {exc!r}")
        return v
    if got_ids != list(ids):
        v.problems.append(f"CSV ids {got_ids} differ from fleet ids {list(ids)}")
    _check_cli_lines(v, stderr)
    # the CSV carries no price sets; pass the checks on them trivially
    _common(v, demand, outputs, (0.0, 0.0), (0.0, 0.0), hull_up, capped_up, demand)
    return v


def _check_cli_lines(v: Verdict, stderr: str) -> None:
    for name in CLI_CHECK_NAMES:
        if f"check {name}: ok" not in stderr:
            v.problems.append(f"CLI did not report check {name}: ok")


_SET_RE = re.compile(r"^\{(?P<one>[^}]+)\}$|^\[(?P<lo>[^,]+), (?P<hi>[^\])]+)[\])]$")


def _set_from_markdown(cell: str) -> tuple:
    m = _SET_RE.match(cell.strip())
    if m is None:
        raise ValueError(f"bad price set cell {cell!r}")
    if m.group("one") is not None:
        x = float(m.group("one"))
        return x, x
    return float(m.group("lo")), _num(m.group("hi"))


def check_report_markdown(text: str, demand: float, ids: Sequence[str]) -> Verdict:
    """Checks on the markdown comparison tables."""
    v = Verdict()
    cells = {}
    gen_rows = []
    in_gens = False
    for line in text.splitlines():
        if not line.startswith("|"):
            continue
        parts = [p.strip() for p in line.strip("|").split("|")]
        if parts[0] == "generator":
            in_gens = True
        elif in_gens and parts[0] != "---":
            gen_rows.append(parts)
        elif not in_gens:
            cells[parts[0]] = parts[1:]
    try:
        hull = _set_from_markdown(cells["price set"][0])
        capped = _set_from_markdown(cells["price set"][1])
        v.case_tags.append(cells["case"][1])
        got_ids = [r[0] for r in gen_rows]
        outputs = [float(r[2]) for r in gen_rows]
        hull_up = [float(r[3]) for r in gen_rows]
        capped_up = [float(r[4]) for r in gen_rows]
        total_hull = float(cells["total uplift"][0])
    except (KeyError, IndexError, ValueError) as exc:
        v.problems.append(f"unreadable markdown report: {exc!r}")
        return v
    if "Diagnostics: passed" not in text:
        v.problems.append("markdown report does not say Diagnostics: passed")
    if got_ids != list(ids):
        v.problems.append(f"markdown ids {got_ids} differ from fleet ids {list(ids)}")
    if abs(sum(hull_up) - total_hull) > _tol(total_hull) + 1e-9 * len(hull_up):
        v.problems.append(f"hull uplifts sum to {sum(hull_up)}, total says {total_hull}")
    _common(v, demand, outputs, hull, capped, hull_up, capped_up, total_hull)
    return v


def check_sweep_csv(text: str, grid: Sequence[float]) -> Verdict:
    """Checks on a ``--sweep ... --format csv`` table."""
    v = Verdict()
    rows = list(csv.reader(io.StringIO(text)))
    header = ["demand", "chp_lo", "chp_hi", "mchp_lo", "mchp_hi", "case", "error"]
    if not rows or rows[0] != header:
        v.problems.append(f"unexpected sweep header {rows[:1]}")
        return v
    body = rows[1:]
    if len(body) != len(grid):
        v.problems.append(f"sweep has {len(body)} rows for {len(grid)} demand levels")
        return v
    prev_lo = -math.inf
    for d, row in zip(grid, body):
        try:
            demand, chp_lo, chp_hi, mchp_lo, mchp_hi = (_num(x) for x in row[:5])
            case, error = row[5], row[6]
        except (ValueError, IndexError) as exc:
            v.problems.append(f"unreadable sweep row {row}: {exc!r}")
            continue
        if error:
            v.problems.append(f"demand {d}: {error}")
            continue
        if abs(demand - d) > _tol(d):
            v.problems.append(f"row demand {demand} for grid level {d}")
        if case not in CASE_TAGS:
            v.problems.append(f"demand {d}: unknown case tag {case!r}")
        v.case_tags.append(case)
        for name, lo, hi in (("hull", chp_lo, chp_hi), ("capped", mchp_lo, mchp_hi)):
            if lo > hi:
                v.problems.append(f"demand {d}: {name} price set has lo {lo} > hi {hi}")
        if mchp_lo < chp_lo - _tol(chp_lo):
            v.problems.append(f"demand {d}: capped lo {mchp_lo} below hull lo {chp_lo}")
        if chp_lo < prev_lo - _tol(prev_lo):
            v.problems.append(f"demand {d}: hull lo {chp_lo} fell from {prev_lo}")
        prev_lo = chp_lo
    return v


def check_cli(
    code: int,
    expected: int,
    stdout: str,
    stderr: str,
    fmt: Optional[str],
    demand: float,
    ids: Sequence[str],
    grid: Optional[Sequence[float]] = None,
) -> Verdict:
    """Exit code first, then the printed report for runs that should price."""
    if code != expected:
        return Verdict([f"exit code {code}, expected {expected}"])
    if expected != 0:
        if stdout:
            return Verdict(["a rejected instance still printed a report"])
        return Verdict()
    if grid is not None:
        return check_sweep_csv(stdout, grid)
    if fmt == "json":
        v = check_report_json(stdout, demand, ids)
        _check_cli_lines(v, stderr)
        return v
    if fmt == "csv":
        return check_report_csv(stdout, demand, ids, stderr)
    v = check_report_markdown(stdout, demand, ids)
    _check_cli_lines(v, stderr)
    return v
