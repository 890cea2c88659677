"""Pipeline reports, renderers, demand sweeps and the CLI."""

import csv
import gc
import io
import json
import math
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hullprice
from hullprice import (
    SweepRow,
    UnknownFormatError,
    mchp_price_set_limit,
    parse_instance,
    price_set,
    primal_solver,
    load_sweep,
    render_report,
    render_sweep,
    run_pipeline,
)
from hullprice.cli import main
from hullprice.market_model import demand_violations
from hullprice.mchp import default_epsilon
from hullprice.report import report_dict

import oracles
from conftest import (
    EX1_JSON,
    EX2_JSON,
    EX3_JSON,
    EX4_JSON,
    EX5_JSON,
    LARGE_MW_FLEET,
    count_calls,
    make_instance,
)


def test_pipeline_example_three(ex3):
    rep = run_pipeline(ex3)
    assert rep.dispatch.total_cost == pytest.approx(12.0, abs=1e-9)
    assert rep.chp.price_set.lo == pytest.approx(2.0, abs=1e-9)
    assert rep.chp.total_uplift == pytest.approx(4.0, abs=1e-9)
    assert rep.mchp.price_set.lo == pytest.approx(3.0, abs=1e-9)
    assert rep.mchp.total_uplift == pytest.approx(0.0, abs=1e-9)
    assert rep.mchp.case_tag == "lnmgu_irrelevant"
    assert rep.checks.passed


def test_pipeline_example_five(ex5):
    rep = run_pipeline(ex5)
    assert rep.chp.total_uplift == pytest.approx(8.0, abs=1e-9)
    assert rep.mchp.total_uplift == pytest.approx(2.0, abs=1e-9)
    assert rep.mchp.case_tag == "lnmgu_marginal"
    assert rep.checks.passed


def test_pipeline_marginal_unit_needs_no_uplift():
    inst = make_instance(
        3, [{"id": "g", "w": 0, "curve": {"quadratic": {"a": 1, "q": 1}}, "x_max": 6}]
    )
    rep = run_pipeline(inst)
    assert rep.chp.price_set.lo == pytest.approx(4.0, abs=1e-9)
    assert rep.mchp.price_set.lo == pytest.approx(4.0, abs=1e-9)
    assert rep.chp.total_uplift == pytest.approx(0.0, abs=1e-9)
    assert rep.mchp.total_uplift == pytest.approx(0.0, abs=1e-9)
    assert rep.mchp.case_tag == "no_lnmgu"
    assert rep.checks.passed


@pytest.mark.parametrize(
    "spec, max_price_sets, supply_evals",
    [
        (EX1_JSON, 4, 348),
        (EX2_JSON, 4, 358),
        (EX3_JSON, 6, 534),
        (EX4_JSON, 6, 448),
        (EX5_JSON, 4, 354),
    ],
    ids=["ex1", "ex2", "ex3", "ex4", "ex5"],
)
def test_pipeline_reuses_price_sets_and_partition(monkeypatch, spec, max_price_sets, supply_evals):
    # one hull set each in run_pipeline and uplifts' stale check, the same
    # pair for the reduced fleet when it can serve demand (each after one
    # supply check below p_bar that did not settle the case), and the two
    # capped sets diagnostics compares.  A report prices one demand and
    # keeps no supply memo, so its supply evaluations are pinned exactly.
    counts = count_calls(
        monkeypatch,
        [
            hullprice.dual_pricing.price_set,
            hullprice.dual_pricing.aggregate_supply,
            hullprice.mchp.classify_lnmgu,
            hullprice.mchp.mchp_price_set_eps,
        ],
    )
    assert run_pipeline(parse_instance(json.dumps(spec))).checks.passed
    assert counts["price_set"] <= max_price_sets
    assert counts["aggregate_supply"] == supply_evals
    assert counts["mchp_price_set_eps"] == 1
    assert counts["classify_lnmgu"] <= 4


def test_pipeline_prices_a_long_curve_in_linear_time():
    # a unit's hull is one pass over its segments per supply evaluation;
    # one pass per kink took about 5 s for this report, one pass 0.13 s
    rng = random.Random("long/1000")
    gens = [
        oracles.long_pwl_unit(rng, 1000),
        {"id": "g1", "w": 5, "curve": {"linear": 2}, "x_max": 4},
        {"id": "g2", "w": 0, "curve": {"quadratic": {"a": 1, "q": 0.5}}, "x_max": 6},
    ]
    inst = make_instance(0.6 * sum(g["x_max"] for g in gens), gens)
    t0 = time.perf_counter()
    rep = run_pipeline(inst)
    assert time.perf_counter() - t0 < 1.0
    assert rep.checks.passed


def test_pipeline_report_invariants(ex1, ex2, ex3, ex4, ex5):
    for inst in (ex1, ex2, ex3, ex4, ex5):
        rep = run_pipeline(inst)
        assert rep.chp.gap >= rep.mchp.total_uplift - 1e-6
        assert rep.chp.price_set.contains(rep.chp.price_used, tol=1e-9)
        d = report_dict(rep)
        assert "timings" not in json.dumps(d)
        for section in ("dispatch", "chp", "mchp", "checks"):
            assert section in d


def test_json_rendering_is_deterministic(ex2):
    first = render_report(run_pipeline(ex2), "json")
    second = render_report(run_pipeline(ex2), "json")
    assert first == second
    payload = json.loads(first)
    assert payload["demand"] == 4.0
    assert payload["dispatch"]["committed"] == ["g1", "g2"]
    assert payload["chp"]["price_set"]["lo"] == pytest.approx(2.8, abs=1e-9)
    assert payload["mchp"]["case"] == "lnmgu_marginal"
    assert payload["checks"]["passed"] is True
    assert "timings" not in payload


def test_json_rendering_is_json_dumps():
    # canonical JSON is json.dumps(sort_keys=True, indent=2), here on random
    # reports and sweeps whose ids need escaping
    rng = random.Random(27)
    for k in range(20):
        spec = json.loads(oracles.serialize_instance(oracles.random_instance(rng)))
        for n, g in enumerate(spec["generators"]):
            g["id"] = f'g{n}"\\/\u00e9\U0001f600\t{k}'
        inst = parse_instance(json.dumps(spec))
        rep = run_pipeline(inst)
        want = json.dumps(report_dict(rep), sort_keys=True, indent=2) + "\n"
        assert render_report(rep, "json") == want
        grid = [0.5 * inst.total_capacity, inst.total_capacity, 2 * inst.total_capacity]
        swept = render_sweep(load_sweep(inst, grid), "json")
        assert json.loads(swept)[1]["chp"]["hi"] is None
        assert swept == json.dumps(json.loads(swept), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_rendering_leaves_no_reference_cycles(ex3, fmt):
    rep = run_pipeline(ex3)
    rows = load_sweep(ex3, [1, 4, 40])
    gc.disable()
    try:
        gc.collect()
        render_report(rep, fmt)
        render_sweep(rows, fmt)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_json_encodes_ray_as_null():
    inst = make_instance(
        3, [{"id": "g", "w": 1, "curve": {"linear": 2}, "x_max": 3}]
    )
    payload = json.loads(render_report(run_pipeline(inst), "json"))
    assert payload["chp"]["price_set"]["unbounded_above"] is True
    assert payload["chp"]["price_set"]["hi"] is None


def test_csv_rendering(ex2):
    out = render_report(run_pipeline(ex2), "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "u", "x", "chp_uplift", "mchp_uplift"]
    assert [r[0] for r in rows[1:]] == ["g1", "g2", "g3"]
    assert [r[1] for r in rows[1:]] == ["1", "1", "0"]
    g2 = rows[2]
    assert float(g2[2]) == pytest.approx(3.0, abs=1e-9)
    assert float(g2[3]) == pytest.approx(12.1, abs=1e-9)
    assert float(g2[4]) == pytest.approx(3.7, abs=1e-9)


def test_markdown_rendering(ex1):
    out = render_report(run_pipeline(ex1), "markdown")
    assert out.startswith("## Pricing report (demand 4.0 MW)")
    cells = {}
    for line in out.splitlines():
        parts = [c.strip() for c in line.split("|")[1:-1]]
        if parts:
            cells[parts[0]] = parts[1:]
    # hull numbers carry bisection noise below 1e-9; the capped side is
    # computed in closed form and renders exactly
    hull_set, capped_set = cells["price set"]
    assert float(hull_set.strip("{}")) == pytest.approx(3.0, abs=1e-9)
    assert capped_set == "{4.0}"
    assert float(cells["total uplift"][0]) == pytest.approx(4.0, abs=1e-9)
    assert cells["total uplift"][1] == "0.0"
    assert cells["case"] == ["-", "lnmgu_marginal"]
    assert cells["g"][0] == "1"
    assert float(cells["g"][1]) == pytest.approx(4.0, abs=1e-9)
    assert "Diagnostics: passed" in out


def _markdown_tables(out):
    """Each table of a markdown output, as its rows of cells."""
    tables = []
    for block in out.split("\n\n"):
        lines = block.splitlines()
        if lines and lines[0].startswith("|"):
            for line in lines:
                assert line.startswith("| ") and line.endswith(" |"), line
            # an escaped pipe stays inside its cell
            tables.append([re.split(r"(?<!\\)\|", line)[1:-1] for line in lines])
    return tables


def test_markdown_rows_have_as_many_cells_as_their_header():
    inst = make_instance(
        4,
        [
            {"id": "a|b", "w": 12, "curve": {"linear": 1}, "x_max": 12},
            {"id": "c\nd", "w": 0, "curve": {"linear": 3}, "x_max": 2},
            {"id": "e\r\nf|", "w": 0, "curve": {"linear": 4}, "x_max": 1},
        ],
    )
    report = render_report(run_pipeline(inst), "markdown")
    sweep = render_sweep(load_sweep(inst, [2.0, 4.0, 40.0]), "markdown")
    tables = _markdown_tables(report) + _markdown_tables(sweep)
    assert len(tables) == 3
    for header, *rows in tables:
        for row in rows:
            assert len(row) == len(header), row
    ids = [row[0].strip() for row in tables[1][2:]]
    assert ids == ["a\\|b", "c<br>d", "e<br>f\\|"]


def test_markdown_paragraph_keeps_a_line_break_in_an_id_on_its_line():
    inst = make_instance(1, [{"id": "g\n# x", "w": 0, "curve": {"linear": 1}, "x_max": 2}])
    lines = render_report(run_pipeline(inst), "markdown").splitlines()
    assert not [line for line in lines if line.startswith("# x")]
    assert "Exact dispatch cost: 1.0 (committed: g<br># x)" in lines


def test_unknown_format_rejected(ex1):
    rep = run_pipeline(ex1)
    with pytest.raises(UnknownFormatError):
        render_report(rep, "yaml")
    with pytest.raises(UnknownFormatError):
        render_sweep(load_sweep(ex1, [4.0]), "xml")


def test_sweep_example_one(ex1):
    rows = load_sweep(ex1, [2.0, 4.0, 5.0, 6.0, 7.0, 0.0])
    ok = rows[:4]
    assert [r.chp.lo for r in ok[:3]] == pytest.approx([3.0, 3.0, 3.0], abs=1e-9)
    assert [r.mchp.lo for r in ok[:3]] == pytest.approx([7.0, 4.0, 3.4], abs=1e-9)
    assert [r.case_tag for r in ok[:3]] == ["lnmgu_marginal"] * 3
    # capped prices fall as demand dilutes the start-up cost
    assert ok[0].mchp.lo > ok[1].mchp.lo > ok[2].mchp.lo

    # at demand = capacity the unit is no longer oversized and both
    # notions agree on the ray of average-cost-and-above prices
    ray = ok[3]
    assert ray.case_tag == "no_lnmgu"
    assert ray.chp.unbounded_above and ray.mchp.unbounded_above
    assert ray.chp.lo == pytest.approx(3.0, abs=1e-9)
    assert ray.mchp.lo == pytest.approx(3.0, abs=1e-9)

    assert rows[4].error is not None and "infeasible" in rows[4].error
    assert rows[4].chp is None and rows[4].case_tag is None
    assert rows[5].error is not None and "demand not positive" in rows[5].error


def test_sweep_reprices_a_level_without_an_lnmgu_from_the_memo(ex2, monkeypatch):
    # levels 10 and 16 have no oversized unit: their capped set is the hull
    # set, which the sweep prices again from the memo without evaluating
    # the fleet's supply again
    counts = count_calls(monkeypatch, [hullprice.dual_pricing.aggregate_supply])
    rows = load_sweep(ex2, [10, 16])
    assert [r.case_tag for r in rows] == ["no_lnmgu", "no_lnmgu"]
    assert rows[0].mchp == rows[0].chp and rows[1].mchp == rows[1].chp
    sweep_evals = counts["aggregate_supply"]
    counts["aggregate_supply"] = 0
    memo: dict = {}
    for d in (10, 16):
        price_set(ex2.generators, d, memo=memo)
    assert counts["aggregate_supply"] == sweep_evals > 0


def test_sweep_pins_its_supply_evaluations_on_the_golden_grid(ex2, monkeypatch):
    # the sweep counterpart of the report pins above: ex2's golden grid
    # has a level of every case.  At demand 6 the regular fleet serves
    # demand but not below p_bar, so one supply check there settles the
    # marginal case in place of the reduced fleet's price set
    counts = count_calls(monkeypatch, [hullprice.dual_pricing.aggregate_supply])
    rows = load_sweep(ex2, [1, 3, 4, 6, 9, 12, 4, 0.5, 40])
    assert {r.case_tag for r in rows} == {
        "interval_upper_capped",
        "lnmgu_marginal",
        "no_lnmgu",
        "lnmgu_irrelevant",
        None,
    }
    assert counts["aggregate_supply"] == 192


def _per_level_sweep(instance, demands):
    """``load_sweep`` with every level priced afresh, keeping no supply memo."""
    gens = tuple(instance.generators)
    rows = []
    for d in map(float, demands):
        violations = demand_violations(d, gens)
        if violations:
            rows.append(SweepRow(d, None, None, None, "; ".join(violations)))
            continue
        chp = price_set(gens, d)
        mchp_set, tag = mchp_price_set_limit(instance._replace(demand=d))
        rows.append(SweepRow(d, chp, mchp_set, tag))
    return rows


def _random_grid(rng, instance):
    """Unsorted levels over the fleet, with a repeat, a ray and an infeasible level."""
    capacity = instance.total_capacity
    levels = [rng.uniform(0.02, 0.99) * capacity for _ in range(5)]
    levels += [capacity, rng.uniform(1.01, 1.5) * capacity, rng.choice(levels)]
    rng.shuffle(levels)
    return levels


@pytest.mark.parametrize("mw, money", [(1.0, 1.0), (1e-3, 1e4), (1e3, 1e-3), (1e6, 1e6)])
def test_sweep_memo_gives_the_rows_of_a_sweep_without_it(mw, money):
    # a memoised supply is the supply evaluation would return, so every
    # bisection takes the same path: rows are equal float for float
    rng = random.Random(14)
    rays = errors = 0
    for _ in range(100):
        inst = oracles.scale_instance(oracles.random_instance(rng), mw, money)
        grid = _random_grid(rng, inst)
        rows = load_sweep(inst, grid)
        assert rows == _per_level_sweep(inst, grid)
        rays += sum(r.error is None and r.chp.unbounded_above for r in rows)
        errors += sum(r.error is not None for r in rows)
    assert rays > 0 and errors > 0


@pytest.mark.parametrize(
    "kinds",
    [("linear", "pwl"), ("quadratic",)],
    ids=["step_supply", "ramp_supply"],
)
def test_sweep_memo_gives_the_rows_of_step_only_and_ramp_only_fleets(kinds):
    # PWL and linear units supply a step function, so many known prices
    # share one supply; quadratic units ramp, so every level crosses a
    # ramp at a new price.  Grids run down, then up, and repeat levels.
    rng = random.Random(18)
    for k in range(40):
        if k % 4:
            inst = oracles.random_instance(rng, kinds=kinds)
        else:
            inst = oracles.mixed_fleet(rng, 6, kinds=kinds)
        capacity = inst.total_capacity
        down = sorted((rng.uniform(0.02, 1.0) * capacity for _ in range(8)), reverse=True)
        grid = down + [capacity] + down[::-1] + down[::3]
        assert load_sweep(inst, grid) == _per_level_sweep(inst, grid)


def _fleet_with_oversized_unit(rng):
    """An 8-unit ``mixed_fleet`` and a cheap linear unit 1.5 times its capacity."""
    spec = json.loads(oracles.serialize_instance(oracles.mixed_fleet(rng, 8)))
    capacity = sum(g["x_max"] for g in spec["generators"])
    spec["generators"].append(
        {"id": "big", "w": 0.5 * capacity, "curve": {"linear": 0.5}, "x_max": 1.5 * capacity}
    )
    return parse_instance(json.dumps(spec))


def test_sweep_memo_saves_most_supply_evaluations(monkeypatch):
    # levels share the bisection's bracket, so their probes repeat; the
    # memo answers a repeated price without evaluating the fleet again
    inst = _fleet_with_oversized_unit(random.Random(1))
    capacity = inst.total_capacity
    grid = [capacity * (k + 0.5) / 40 for k in range(40)]
    counts = count_calls(monkeypatch, [hullprice.dual_pricing.aggregate_supply])
    want = _per_level_sweep(inst, grid)
    without_memo = counts["aggregate_supply"]
    counts["aggregate_supply"] = 0
    rows = load_sweep(inst, grid)
    assert rows == want
    assert {r.case_tag for r in rows} >= {"lnmgu_marginal", "no_lnmgu"}
    # without a memo a level with no oversized unit prices its hull set
    # twice, once for each side
    assert counts["aggregate_supply"] <= 0.23 * without_memo


def test_sweep_renderings(ex1):
    rows = load_sweep(ex1, [2.0, 6.0, 7.0])

    out = render_sweep(rows, "csv")
    lines = out.splitlines()
    assert lines[0] == "demand,chp_lo,chp_hi,mchp_lo,mchp_hi,case,error"
    first = lines[1].split(",")
    assert first[0] == "2.0"
    assert float(first[1]) == pytest.approx(3.0, abs=1e-9)
    assert float(first[2]) == pytest.approx(3.0, abs=1e-9)
    assert first[3] == "7.0" and first[4] == "7.0"
    assert first[5] == "lnmgu_marginal" and first[6] == ""
    assert ",inf," in lines[2]  # ray rows keep a readable upper bound
    assert lines[3].split(",")[1] == ""  # error rows leave prices blank

    payload = json.loads(render_sweep(rows, "json"))
    assert payload[0]["chp"]["lo"] == pytest.approx(3.0, abs=1e-9)
    assert payload[1]["chp"]["hi"] is None
    assert "error" in payload[2] and "chp" not in payload[2]

    md = render_sweep(rows, "markdown")
    assert md.splitlines()[0] == "| demand | hull prices | capped prices | case |"
    assert "{7.0}" in md
    assert ", inf)" in md  # ray rows render as a half-open interval


# ------------------------------------------------------------------- CLI


@pytest.fixture()
def ex1_file(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(EX1_JSON))
    return str(path)


def test_cli_default_json(ex1_file, capsys):
    assert main([ex1_file]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["chp"]["price_set"]["lo"] == pytest.approx(3.0, abs=1e-9)
    assert payload["mchp"]["price_set"]["lo"] == pytest.approx(4.0, abs=1e-9)
    checks = [line for line in err.splitlines() if line.startswith("check ")]
    assert len(checks) == 5
    assert all(line.endswith(": ok") for line in checks)


def test_cli_markdown_and_rep(ex1_file, capsys):
    assert main([ex1_file, "--format", "markdown", "--rep", "hi"]) == 0
    out, _ = capsys.readouterr()
    assert out.startswith("## Pricing report")
    assert "Diagnostics: passed" in out


def test_cli_rep_picks_interval_end(tmp_path, capsys):
    spec = {
        "demand": 2,
        "generators": [
            {"id": "g", "w": 3, "curve": {"pwl": [[2, 1], [6, 5]]}, "x_max": 6}
        ],
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(spec))
    assert main([str(path), "--rep", "hi"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chp"]["price_used"] == pytest.approx(5.0, abs=1e-9)
    assert main([str(path), "--rep", "lo"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chp"]["price_used"] == pytest.approx(2.5, abs=1e-9)


def test_cli_reports_default_epsilon_and_has_no_override(ex1_file, ex1, capsys):
    with pytest.raises(SystemExit) as exc:
        main([ex1_file, "--epsilon", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err

    assert main([ex1_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mchp"]["epsilon_used"] == default_epsilon(ex1) == 4e-6


def test_cli_sweep(ex1_file, capsys):
    assert main([ex1_file, "--sweep", "2,4,5", "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0].startswith("demand,")
    assert len(out.splitlines()) == 4
    assert "sweep: 3/3 demand levels priced" in err

    assert main([ex1_file, "--sweep", "2,9"]) == 1
    out, err = capsys.readouterr()
    assert "sweep: 1/2 demand levels priced" in err
    assert "demand 9.0:" in err


def test_cli_sweep_takes_a_grid_that_starts_with_a_minus_sign(ex1_file, capsys):
    assert main([ex1_file, "--sweep=-1,2", "--format", "csv"]) == 1
    joined = capsys.readouterr()
    for flag in ("--sweep", "--sw"):
        assert main([ex1_file, flag, "-1,2", "--format", "csv"]) == 1
        assert capsys.readouterr() == joined
    assert "demand -1.0: demand not positive" in joined.err
    assert "sweep: 1/2 demand levels priced" in joined.err


@pytest.mark.parametrize("grid", ["nan,2", "inf,2", "2,-inf", "-inf", "-inf,2"])
def test_cli_sweep_rejects_a_non_finite_level(ex1_file, capsys, grid):
    # a NaN level would render as "demand": NaN, which is not JSON
    with pytest.raises(SystemExit) as exc:
        main([ex1_file, "--sweep", grid, "--format", "json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "is not finite" in err


FOUR_MW_FLEET = [
    {"id": "a", "w": 1, "curve": {"linear": 2}, "x_max": 2},
    {"id": "b", "w": 0, "curve": {"linear": 3}, "x_max": 2},
]


@pytest.mark.parametrize("file_demand", [50, -1])
def test_cli_sweep_ignores_the_files_demand(tmp_path, capsys, file_demand):
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps({"demand": file_demand, "generators": FOUR_MW_FLEET}))
    assert main([str(path), "--sweep", "1,2,3", "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1.0", "2.0", "3.0"]
    assert "sweep: 3/3 demand levels priced" in err


def test_cli_sweep_over_an_invalid_fleet_exits_2(tmp_path, capsys):
    fleet = [dict(FOUR_MW_FLEET[0], w=-1), FOUR_MW_FLEET[1]]
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps({"demand": 3, "generators": fleet}))
    assert main([str(path), "--sweep", "1,2,3", "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a: startup_cost negative\n"


def test_cli_schema_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main([str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_validation_error_exits_2(tmp_path, capsys):
    spec = {
        "demand": -1,
        "generators": [
            {"id": "g", "w": 0, "curve": {"linear": 1}, "x_max": 2}
        ],
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(spec))
    assert main([str(path)]) == 2
    assert "demand not positive" in capsys.readouterr().err


def test_cli_infeasible_exits_3(tmp_path, capsys):
    spec = {
        "demand": 100,
        "generators": [
            {"id": "g", "w": 0, "curve": {"linear": 1}, "x_max": 2}
        ],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    assert main([str(path)]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_cli_fleet_beyond_the_search_limit_exits_4(tmp_path, capsys):
    spec = {
        "demand": 10,
        "generators": [
            {"id": f"g{k:02d}", "w": 0, "curve": {"linear": 1}, "x_max": 1} for k in range(25)
        ],
    }
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(spec))
    assert main([str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "[dispatch] 25 generators exceed the exhaustive-search limit 24" in err


def test_cli_prices_a_fleet_at_the_search_limit(tmp_path, capsys):
    inst = oracles.mixed_fleet(random.Random("cli/24"), primal_solver.MAX_GENERATORS)
    path = tmp_path / "fleet.json"
    path.write_text(oracles.serialize_instance(inst))
    assert main([str(path)]) == 0
    checks = [line for line in capsys.readouterr().err.splitlines() if line.startswith("check ")]
    assert len(checks) == 5
    assert all(line.endswith(": ok") for line in checks)


def test_cli_large_mw_ray_prices_cleanly(tmp_path, capsys):
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"demand": 12000, "generators": LARGE_MW_FLEET}))
    assert main([str(path)]) == 0
    out, err = capsys.readouterr()
    schedule = {e["id"]: e for e in json.loads(out)["dispatch"]["schedule"]}
    assert (schedule["g0"]["u"], schedule["g0"]["x"]) == (1, 2000.0)
    assert (schedule["g1"]["u"], schedule["g1"]["x"]) == (1, 10000.0)
    checks = [line for line in err.splitlines() if line.startswith("check ")]
    assert len(checks) == 5
    assert all(line.endswith(": ok") for line in checks)


def test_cli_costly_oversized_unit_passes_limit_check(tmp_path, capsys):
    """At $1e4/MWh the margin moves the capped price by about w*eps/d^2
    (0.24 here), far above a fixed 1e-4 but within eps * p_bar / d."""
    spec = {
        "demand": 0.5,
        "generators": [{"id": "g1", "w": 120000, "curve": {"pwl": [[1, 10000]]}, "x_max": 1}],
    }
    path = tmp_path / "costly.json"
    path.write_text(json.dumps(spec))
    assert main([str(path)]) == 0
    checks = [line for line in capsys.readouterr().err.splitlines() if line.startswith("check ")]
    assert len(checks) == 5
    assert all(line.endswith(": ok") for line in checks)


def test_cli_ignores_pricer_tol(ex1_file, capsys, monkeypatch):
    """The boundary tolerance is fixed; the old override variable is inert."""
    monkeypatch.delenv("PRICER_TOL", raising=False)
    assert main([ex1_file]) == 0
    unset = capsys.readouterr()
    monkeypatch.setenv("PRICER_TOL", "abc")
    assert main([ex1_file]) == 0
    assert capsys.readouterr() == unset


def test_cli_unreadable_file_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"demand": 4, "generators": [{"id": "\xe9", "w": 0}]}')
    assert main([str(latin1)]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "demand, w, curve, x_max",
    [
        (1, 1e308, {"linear": 1e308}, 5),
        (1, 0, {"linear": 1e300}, 1e10),
        (1e200, 0, {"quadratic": {"a": 1, "q": 1e200}}, 1e201),
        (1, 0, {"quadratic": {"a": 1, "q": 1}}, 1e200),
    ],
    ids=["start-up plus linear", "linear", "steep quadratic", "wide quadratic"],
)
def test_cli_cost_that_overflows_a_float_exits_2(tmp_path, capsys, demand, w, curve, x_max):
    # each file passed validation before, and was then priced as
    # infeasible or failed its checks on inf - inf arithmetic
    spec = {"demand": demand, "generators": [{"id": "a", "w": w, "curve": curve, "x_max": x_max}]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(spec))
    assert main([str(path)]) == 2
    assert capsys.readouterr() == ("", "error: a: cost at x_max overflows a float\n")


@pytest.mark.parametrize(
    "error, code",
    [
        (hullprice.PricingError, 1),
        (hullprice.DomainError, 1),
        (hullprice.StalePriceError, 1),
        (hullprice.SchemaError, 2),
        (hullprice.ValidationError, 2),
        (hullprice.UnknownFormatError, 2),
        (hullprice.InfeasibleError, 3),
        (hullprice.SizeError, 4),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_cli_exit_code_follows_the_error_type(ex1_file, capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error("[stage] what went wrong")

    monkeypatch.setattr(hullprice.cli, "run_pipeline", fail)
    assert main([ex1_file]) == code
    assert capsys.readouterr() == ("", "error: [stage] what went wrong\n")


def test_cli_rejects_unknown_format(ex1_file):
    with pytest.raises(SystemExit) as exc:
        main([ex1_file, "--format", "yaml"])
    assert exc.value.code == 2


def test_records_are_immutable(ex1):
    rep = run_pipeline(ex1)
    for record, field in (
        (rep.chp.price_set, "lo"),
        (ex1, "demand"),
        (rep.chp, "total_uplift"),
        (rep.checks, "price_ordering"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
    assert rep.chp.price_set._replace(lo=0.0).lo == 0.0
    assert rep.chp.price_set.lo != 0.0


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Records are named tuples, so importing the package needs neither module.

    The runtime is the standard library: nothing else is loaded either.
    """
    src = str(Path(hullprice.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hullprice.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
        "print(sorted({m.partition('.')[0] for m in sys.modules} "
        "- sys.stdlib_module_names - {'hullprice', '__main__'}))"
    )
    # -S keeps site hooks from importing modules the package does not
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["[]", "[]", ""]


def test_a_reimport_leaves_the_previous_package_collectable():
    """Nothing outside the package (typing's caches, say) holds its old classes."""
    src = str(Path(hullprice.__file__).resolve().parent.parent)
    code = f"""
import gc, sys, weakref
sys.path.insert(0, {src!r})

def purge():
    for name in [m for m in sys.modules if m == "hullprice" or m.startswith("hullprice.")]:
        del sys.modules[name]

import hullprice.cli
first = [weakref.ref(hullprice.GeneratorSpec), weakref.ref(hullprice.PriceSet)]
for _ in range(2):
    purge()
    import hullprice.cli
gc.collect()
print([ref() is None for ref in first])
"""
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[True, True]"
