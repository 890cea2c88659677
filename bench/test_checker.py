"""Self-tests of the benchmark's generator, output checker, tracer and speed correction.

    python3 -m pytest bench/test_checker.py

The checker must pass a genuine report and flag a tampered one; the
generator must produce what each operation expects; two traced runs of the
same operations must count the same calls; a call is corrected by the
reference samples near it only.
"""

import json
from pathlib import Path

import pytest

import checker
import run
import speed
import tracing
import workloads

hullprice, hullprice_cli = run._import_hullprice()


@pytest.fixture
def client(tmp_path: Path):
    return run.Client("cli_batch", 7, tmp_path, hullprice, hullprice_cli)


def _genuine_json(seed=3, index=0):
    op = workloads.dispatch_op(seed, index)
    report = hullprice.run_pipeline(hullprice.parse_instance(op.text))
    return op, hullprice.render_report(report, "json")


def test_genuine_report_passes():
    op, text = _genuine_json()
    assert checker.check_report_json(text, op.demand, op.ids).ok


def test_tampered_uplift_is_flagged():
    op, text = _genuine_json()
    doc = json.loads(text)
    gid = op.ids[0]
    doc["chp"]["uplifts"][gid] += 0.5
    verdict = checker.check_report_json(json.dumps(doc), op.demand, op.ids)
    assert not verdict.ok
    assert any("uplifts sum" in p for p in verdict.problems)


def test_negative_capped_uplift_is_flagged():
    op, text = _genuine_json()
    doc = json.loads(text)
    doc["mchp"]["uplifts"][op.ids[-1]] = -0.01
    assert not checker.check_report_json(json.dumps(doc), op.demand, op.ids).ok


def test_wrong_exit_code_is_flagged():
    verdict = checker.check_cli(1, 0, "", "", "json", 4.0, ("g",))
    assert verdict.problems == ["exit code 1, expected 0"]
    assert not checker.check_cli(0, 2, "{}", "", "json", 4.0, ("g",)).ok


def test_sweep_with_falling_hull_price_is_flagged():
    text = (
        "demand,chp_lo,chp_hi,mchp_lo,mchp_hi,case,error\n"
        "1.0,3.0,3.0,3.0,3.0,no_lnmgu,\n"
        "2.0,2.5,2.5,2.5,2.5,no_lnmgu,\n"
    )
    verdict = checker.check_sweep_csv(text, (1.0, 2.0))
    assert any("fell" in p for p in verdict.problems)


@pytest.mark.parametrize("fmt_index", [0, 1, 2])
def test_every_cli_format_passes_on_a_genuine_run(client, fmt_index):
    prepared = client.op(fmt_index)  # indices 0-2: valid fleets in json, csv, markdown
    op = prepared[0]
    assert op.expected_exit == workloads.EXIT_OK
    assert client.check(op, client.call(prepared)).ok


@pytest.mark.parametrize("name", sorted(workloads.MAKERS))
def test_generated_instances_get_the_expected_verdict(name):
    make = workloads.MAKERS[name]
    for seed in (1, 2):
        for index in range(2 * len(workloads.CLI_SHAPES)):
            op = make(seed, index)
            if op.expected_exit == workloads.EXIT_OK:
                hullprice.parse_instance(op.text)
                continue
            with pytest.raises((hullprice.SchemaError, hullprice.ValidationError)) as info:
                hullprice.parse_instance(op.text)
            infeasible = bool(getattr(info.value, "violations", ())) and all(
                v.startswith("infeasible") for v in info.value.violations
            )
            assert infeasible == (op.expected_exit == workloads.EXIT_INFEASIBLE)


def test_same_seed_same_inputs():
    assert workloads.cli_op(5, 17) == workloads.cli_op(5, 17)
    assert workloads.cli_op(5, 17) != workloads.cli_op(6, 17)


def test_traced_counts_repeat(client):
    ops = [client.op(i) for i in range(len(workloads.CLI_SHAPES))]

    def traced_counts():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for prepared in ops:
                assert client.check(prepared[0], client.call(prepared)).ok
        finally:
            tracer.uninstall()
        calls = {name: n for name, (n, _) in tracer.layer_totals().items()}
        return calls, tracer.counts()

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first[0]["primal_solver.solve_primal"] > 0
    assert first[1]["cost_analysis.hull_cost"] > 0
    # uninstall put every original back
    assert hullprice.price_set.__name__ == "price_set"
    assert hullprice.mchp.price_set is hullprice.dual_pricing.price_set


def test_speed_correction_uses_nearby_samples():
    machine = speed.Speed()
    quiet = speed.QUIET_REFERENCE_S
    # twice as slow around t = 10 s, quiet far away at t = 100 s
    machine.starts = [9.0, 10.5, 100.0]
    machine.samples = [2 * quiet, 2 * quiet, quiet]
    assert machine.corrected(10.0, 0.4) == pytest.approx(0.2)
    assert machine.corrected(100.0, 0.4) == pytest.approx(0.4)
    # no sample near: the mean of all of them
    assert machine.corrected(50.0, 0.5) == pytest.approx(0.5 * 3 / 5)
