"""End-to-end pricing pipeline and report rendering.

run_pipeline chains validation, exact dispatch, hull pricing, capped
pricing and diagnostics into one report object.  render_report turns it
into canonical JSON (sorted keys, 12 significant digits, so reruns are
byte-identical), a per-generator CSV, or a markdown comparison table.
load_sweep reprices the same fleet over a demand grid.
"""

import csv
import io
import json
import math
import re
from contextlib import contextmanager
from collections.abc import Sequence
from typing import NamedTuple

from .dual_pricing import PriceSet, UpliftReport, price_set, uplifts
from .errors import PricingError, UnknownFormatError
from .market_model import MarketInstance, check_fleet, check_instance, demand_violations
from .mchp import DiagnosticsReport, MchpResult, diagnostics, mchp_price_set_limit, mchp_uplifts
from .primal_solver import DispatchSolution, solve_primal

FORMATS = ("json", "csv", "markdown")


class PricingReport(NamedTuple):
    """Everything one pricing run produces."""

    demand: float
    dispatch: DispatchSolution
    chp: UpliftReport
    mchp: MchpResult
    checks: DiagnosticsReport
    price_representative: str


@contextmanager
def _stage(name: str):
    try:
        yield
    except PricingError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def run_pipeline(instance: MarketInstance, price_representative: str = "lo") -> PricingReport:
    """Validate, dispatch and price one instance.

    ``price_representative`` picks the settlement price from each price
    set (lo, mid or hi).  The capped prices come from the closed-form
    vanishing-margin set.  An invalid instance raises what
    ``check_instance`` raises; errors of the later stages propagate with
    the failing stage prepended to the message.
    """
    # one set of unit objects for every stage (a Fleet builds them anew on
    # each pass)
    instance = instance._replace(generators=tuple(instance.generators))
    check_instance(instance)

    with _stage("dispatch"):
        dispatch = solve_primal(instance)

    with _stage("hull_pricing"):
        gens = list(instance.generators)
        chp_set = price_set(gens, instance.demand)
        p_chp = chp_set.representative(price_representative)
        chp_report = uplifts(instance, dispatch, p_chp)

    with _stage("capped_pricing"):
        mchp_set, _ = mchp_price_set_limit(instance)
        p_mchp = mchp_set.representative(price_representative)
        mchp_result = mchp_uplifts(instance, dispatch, p_mchp)

    with _stage("diagnostics"):
        checks = diagnostics(instance, dispatch, chp_report, mchp_result)

    return PricingReport(
        demand=instance.demand,
        dispatch=dispatch,
        chp=chp_report,
        mchp=mchp_result,
        checks=checks,
        price_representative=price_representative,
    )


def _sig(x):
    """Round a float to 12 significant digits for canonical output."""
    if x is None or isinstance(x, bool):
        return x
    if isinstance(x, float):
        if math.isinf(x):
            return None
        return float(f"{x:.12g}")
    return x


# One cell form of a price set per format: a JSON object, two CSV cells
# (a ray's upper end reads inf) and one markdown cell.
def _set_json(ps: PriceSet) -> dict:
    return {"lo": _sig(ps.lo), "hi": _sig(ps.hi), "unbounded_above": ps.unbounded_above}


def _set_csv(ps: PriceSet) -> list:
    return [_sig(ps.lo), "inf" if ps.unbounded_above else _sig(ps.hi)]


def _set_markdown(ps: PriceSet) -> str:
    if ps.unbounded_above:
        return f"[{_sig(ps.lo)}, inf)"
    if ps.is_singleton():
        return f"{{{_sig(ps.lo)}}}"
    return f"[{_sig(ps.lo)}, {_sig(ps.hi)}]"


def _inline_markdown(text: str) -> str:
    # a line break would end the row or paragraph, and could open a heading
    return re.sub(r"\r\n?|\n", "<br>", text)


def _cell_markdown(cell) -> str:
    # a bare pipe would split the cell
    return _inline_markdown(str(cell).replace("|", "\\|"))


def _table_markdown(header: Sequence[str], rows) -> str:
    lines = [header, ["---"] * len(header), *rows]
    return "\n".join("| " + " | ".join(map(_cell_markdown, cells)) + " |" for cells in lines)


def _render(fmt: str, document, table, blocks) -> str:
    """The one format dispatch, with the one writer of each format.

    ``document()`` gives the JSON value, ``table()`` the CSV (header,
    rows) and ``blocks()`` the markdown paragraphs and tables, each
    called only for its own format.
    """
    if fmt == "json":
        return json.dumps(document(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        header, rows = table()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        return "\n\n".join(blocks()) + "\n"
    raise UnknownFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def report_dict(report: PricingReport) -> dict:
    """Canonical dict form of a report."""
    return {
        "demand": _sig(report.demand),
        "price_representative": report.price_representative,
        "dispatch": {
            "total_cost": _sig(report.dispatch.total_cost),
            "committed": list(report.dispatch.committed_set),
            "marginal_lambda": _sig(report.dispatch.marginal_lambda),
            "schedule": [
                {"id": e.id, "u": int(e.on), "x": _sig(e.output)}
                for e in report.dispatch.schedule
            ],
        },
        "chp": {
            "price_set": _set_json(report.chp.price_set),
            "price_used": _sig(report.chp.price_used),
            "dual_value": _sig(report.chp.dual_value),
            "gap": _sig(report.chp.gap),
            "total_uplift": _sig(report.chp.total_uplift),
            "uplifts": {gid: _sig(v) for gid, v in report.chp.per_generator.items()},
        },
        "mchp": {
            "price_set": _set_json(report.mchp.price_set),
            "case": report.mchp.case_tag,
            "epsilon_used": _sig(report.mchp.partition.epsilon),
            "total_uplift": _sig(report.mchp.total_uplift),
            "uplifts": {gid: _sig(v) for gid, v in report.mchp.per_generator.items()},
        },
        "checks": {**report.checks._asdict(), "passed": report.checks.passed},
    }


def _generator_rows(report: PricingReport) -> list[list]:
    """Each unit's commitment, output and its two uplifts."""
    return [
        [
            e.id,
            int(e.on),
            _sig(e.output),
            _sig(report.chp.per_generator[e.id]),
            _sig(report.mchp.per_generator[e.id]),
        ]
        for e in report.dispatch.schedule
    ]


def _report_markdown(report: PricingReport) -> list[str]:
    chp, mchp = report.chp, report.mchp
    summary = [
        ["price set", _set_markdown(chp.price_set), _set_markdown(mchp.price_set)],
        ["price used", _sig(chp.price_used), _sig(mchp.price_used)],
        ["total uplift", _sig(chp.total_uplift), _sig(mchp.total_uplift)],
        ["case", "-", mchp.case_tag],
    ]
    return [
        f"## Pricing report (demand {_sig(report.demand)} MW)",
        f"Exact dispatch cost: {_sig(report.dispatch.total_cost)} "
        f"(committed: {_inline_markdown(', '.join(report.dispatch.committed_set)) or 'none'})",
        _table_markdown(["quantity", "hull pricing", "capped pricing"], summary),
        _table_markdown(
            ["generator", "u", "x", "hull uplift", "capped uplift"], _generator_rows(report)
        ),
        f"Diagnostics: {'passed' if report.checks.passed else 'FAILED'}",
    ]


def render_report(report: PricingReport, fmt: str = "json") -> str:
    """Render a report as canonical json, csv or markdown."""
    return _render(
        fmt,
        lambda: report_dict(report),
        lambda: (["id", "u", "x", "chp_uplift", "mchp_uplift"], _generator_rows(report)),
        lambda: _report_markdown(report),
    )


class SweepRow(NamedTuple):
    demand: float
    chp: PriceSet | None
    mchp: PriceSet | None
    case_tag: str | None
    error: str | None = None


def load_sweep(instance: MarketInstance, demands: Sequence[float]) -> list[SweepRow]:
    """Clearing prices of the same fleet over a grid of demands.

    The instance's own demand plays no part.  An invalid fleet raises
    ValidationError; infeasible or invalid demand levels produce a row
    with the error message instead of price sets.  Every level's price
    sets share one memo of the fleet's aggregate supply by price (see
    ``price_set``), so a price asked for again is not evaluated again.
    """
    instance = instance._replace(generators=tuple(instance.generators))
    check_fleet(instance.generators)
    memo: dict = {}
    rows = []
    for d in map(float, demands):
        violations = demand_violations(d, instance.generators)
        if violations:
            rows.append(SweepRow(d, None, None, None, "; ".join(violations)))
            continue
        chp = price_set(instance.generators, d, memo=memo)
        mchp_set, tag = mchp_price_set_limit(instance._replace(demand=d), memo=memo)
        rows.append(SweepRow(d, chp, mchp_set, tag))
    return rows


def render_sweep(rows: Sequence[SweepRow], fmt: str = "json") -> str:
    """Render a demand sweep as canonical json, csv or markdown."""

    def document():
        return [
            {"demand": _sig(r.demand), "error": r.error}
            if r.error is not None
            else {
                "demand": _sig(r.demand),
                "chp": _set_json(r.chp),
                "mchp": _set_json(r.mchp),
                "case": r.case_tag,
            }
            for r in rows
        ]

    def table():
        header = ["demand", "chp_lo", "chp_hi", "mchp_lo", "mchp_hi", "case", "error"]
        return header, [
            [_sig(r.demand), "", "", "", "", "", r.error]
            if r.error is not None
            else [_sig(r.demand), *_set_csv(r.chp), *_set_csv(r.mchp), r.case_tag, ""]
            for r in rows
        ]

    def blocks():
        header = ["demand", "hull prices", "capped prices", "case"]
        return [
            _table_markdown(
                header,
                [
                    [_sig(r.demand), "-", "-", r.error]
                    if r.error is not None
                    else [_sig(r.demand), _set_markdown(r.chp), _set_markdown(r.mchp), r.case_tag]
                    for r in rows
                ],
            )
        ]

    return _render(fmt, document, table, blocks)
