"""Pricing benchmark: run one workload for one seed and print one result line.

    python3 bench/run.py --workload dispatch_n12 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``hullprice`` from
``src/`` there and nowhere else.  One closed-loop client in this process
sends the next operation only after the previous one returns.  With
``--trace 0`` it times operations for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it runs a fixed, seed-determined list
of operations untraced and then traced, and reports per-layer metrics and
the tracing overhead.  Every operation's output is checked.  End-to-end
times are corrected for the machine's speed during the run (speed.py).
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checker
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 15
# operations prepared during set-up; later ones are made on demand, untimed
POOL_SIZE = {"dispatch_n12": 8, "sweep_n8": 8, "cli_batch": 96}
# seed-state operations per second on a 2-core box, used only to size the traced run
TRACE_RATE = {"dispatch_n12": 0.75, "sweep_n8": 1.0, "cli_batch": 27.0}
SHAPE_CYCLE = {
    "dispatch_n12": len(workloads.DISPATCH_SHAPES),
    "sweep_n8": len(workloads.SWEEP_SHAPES),
    "cli_batch": len(workloads.CLI_SHAPES),
}

SPAN_SELF_MS = (
    "primal_solver.solve_primal",
    "primal_solver.economic_dispatch",
    "mchp.diagnostics",
    "dual_pricing.price_set",
    "dual_pricing.aggregate_supply",
    "mchp.mchp_price_set_limit",
    "mchp.mchp_uplifts",
    "dual_pricing.uplifts",
    "market_model.parse_instance",
    "market_model.validate_instance",
    "report.run_pipeline",
    "report.render_report",
    "report.load_sweep",
    "report.render_sweep",
    "cli.main",
)
SPAN_CALLS = (
    "primal_solver.solve_primal",
    "primal_solver.economic_dispatch",
    "dual_pricing.price_set",
    "dual_pricing.aggregate_supply",
    "mchp.classify_lnmgu",
    "mchp.mchp_price_set_limit",
    "mchp.mchp_price_set_eps",
    "market_model.validate_instance",
)
COUNTER_CALLS = tuple(f"{m}.{f}" for m, funcs in tracing.COUNTED.items() for f in funcs)


class MissingProgram(Exception):
    """The checkout holds no hullprice sources to benchmark."""


def _import_hullprice():
    """Fresh import of hullprice from this checkout's src/."""
    if not (SRC / "hullprice" / "__init__.py").is_file():
        raise MissingProgram(f"no hullprice package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "hullprice" or n.startswith("hullprice.")]:
        del sys.modules[name]
    hp = importlib.import_module("hullprice")
    cli = importlib.import_module("hullprice.cli")
    if Path(hp.__file__).resolve().parent != SRC / "hullprice":
        raise MissingProgram(f"hullprice imported from {hp.__file__}, not from {SRC}")
    return hp, cli


class Client:
    """Prepares, sends and checks the operations of one workload."""

    def __init__(self, workload: str, seed: int, workdir: Path, hp, cli):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.hp, self.cli = hp, cli
        self.make = workloads.MAKERS[workload]
        self.pool = []

    def op(self, index: int):
        """Operation ``index`` with its prepared input, made once."""
        while len(self.pool) <= index:
            self.pool.append(self._prepare(self.make(self.seed, len(self.pool))))
        return self.pool[index]

    def _prepare(self, op):
        if self.workload == "dispatch_n12":
            return op, self.hp.parse_instance(op.text)
        path = self.workdir / f"op{op.index}.json"
        path.write_text(op.text, encoding="utf-8")
        return op, [str(path), *op.argv_extra]

    def call(self, prepared):
        """The timed part: one library report or one command-line run."""
        op, arg = prepared
        if self.workload == "dispatch_n12":
            report = self.hp.run_pipeline(arg)
            return self.hp.render_report(report, "json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(arg)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, op, raw) -> checker.Verdict:
        if self.workload == "dispatch_n12":
            return checker.check_report_json(raw, op.demand, op.ids)
        code, out, err = raw
        fmt = op.argv_extra[op.argv_extra.index("--format") + 1]
        return checker.check_cli(code, op.expected_exit, out, err, fmt, op.demand, op.ids, op.grid)

    @staticmethod
    def levels(op) -> int:
        """Demand levels the operation prices; a rejected instance prices none."""
        if op.grid is not None:
            return len(op.grid)
        return 1 if op.expected_exit == 0 else 0


def setup(workload: str, seed: int, workdir: Path):
    """Import the package and prepare the first operations.

    Returns the start time, the seconds taken and the client.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    start = time.perf_counter()
    hp, cli = _import_hullprice()
    workdir.mkdir(parents=True)
    client = Client(workload, seed, workdir, hp, cli)
    client.op(POOL_SIZE[workload] - 1)
    return start, time.perf_counter() - start, client


class Tally:
    """Latencies, levels, failures and case tags of a series of operations."""

    def __init__(self, label: str):
        self.label = label
        self.starts = []
        self.latency = []
        self.levels = 0
        self.failures = []
        self.tags = Counter()
        self.metrics = {}  # name -> (value, unit)
        self.notes = []  # summary lines for people

    def add(self, client: Client, prepared, tracer=None) -> None:
        op = prepared[0]
        if tracer is not None:
            tracer.operation = op.index
        start = time.perf_counter()
        try:
            raw = client.call(prepared)
        except Exception:  # the benchmark keeps going and counts the failure
            elapsed = time.perf_counter() - start
            verdict = checker.Verdict([f"raised {traceback.format_exc(limit=3)}"])
        else:
            elapsed = time.perf_counter() - start
            verdict = client.check(op, raw)
        self.starts.append(start)
        self.latency.append(elapsed)
        self.levels += client.levels(op)
        for tag in verdict.case_tags:
            self.tags[tag] += 1
        if not verdict.ok:
            self.failures.append((op, verdict.problems))

    def report_failures(self, workload: str, seed: int) -> None:
        for op, problems in self.failures:
            print(
                f"FAILED {workload} seed {seed} op {op.index} ({op.shape}): "
                + "; ".join(problems)
                + f"\n  instance: {op.text}\n  flags: {' '.join(op.argv_extra)}",
                file=sys.stderr,
            )


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(client: Client, seconds: float, setups, machine: speed.Speed) -> Tally:
    """Run operations for ``seconds``; ``setups`` holds (start, seconds) of each set-up."""
    tally = Tally("untraced")
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        tally.add(client, client.op(index))
        machine.after(tally.latency[-1])
        index += 1
    n = len(tally.latency)
    busy = sum(tally.latency)
    # every time below is corrected to the machine's quiet speed
    quiet = [machine.corrected(s, t) for s, t in zip(tally.starts, tally.latency)]
    quiet_busy = sum(quiet)
    priced = [t * 1000.0 for (op, _), t in zip(client.pool, quiet) if client.levels(op)]
    ms = [t * 1000.0 for t in quiet]
    raw_setup = statistics.median(t for _, t in setups)
    tally.metrics = {
        "setup_s": (statistics.median(machine.corrected(s, t) for s, t in setups), "s"),
        "reports_per_s": (n / quiet_busy, "1/s"),
        "report_p50_ms": (_percentile(ms, 50), "ms"),
        "report_p95_ms": (_percentile(ms, 95), "ms"),
        "levels_per_s": (tally.levels / quiet_busy, "1/s"),
        "sweep_p50_ms": (_percentile(priced, 50), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    beyond = n - int(0.95 * n)
    ref_ms = statistics.mean(machine.samples) * 1000.0
    raw_p50 = _percentile([t * 1000.0 for t in tally.latency], 50)
    tally.notes = [
        f"{n} operations in {busy:.2f} s of calls; {tally.levels} demand levels priced",
        f"reference loop: {len(machine.samples)} samples, mean {ref_ms:.3f} ms "
        f"(quiet {speed.QUIET_REFERENCE_S * 1000.0:g} ms); uncorrected: setup_s {raw_setup:.4g}, "
        f"reports_per_s {n / busy:.4g}, report_p50_ms {raw_p50:.4g}",
        f"report_p95_ms has {beyond} of {n} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: not resolved on this workload)"),
    ]
    return tally


def trace_operations(workload: str, seconds: float) -> int:
    """Operations in the traced run: whole shape cycles, about seconds/3 untraced."""
    cycle = SHAPE_CYCLE[workload]
    return cycle * max(1, round(seconds * TRACE_RATE[workload] / 3.0 / cycle))


def per_layer(client: Client, seconds: float, workload: str, seed: int) -> Tally:
    count = trace_operations(workload, seconds)
    plain, traced = Tally("untraced"), Tally("traced")
    tracer = tracing.Tracer()
    # each operation runs untraced and traced back to back, in alternating
    # order, so drift in machine speed and warm caches cancel in the overhead
    for i in range(count):
        prepared = client.op(i)
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                plain.add(client, prepared)
                continue
            tracer.install()
            try:
                traced.add(client, prepared, tracer)
            finally:
                tracer.uninstall()

    totals = tracer.layer_totals()
    counts = tracer.counts()
    metrics = {}
    for name in SPAN_CALLS:
        metrics[f"{name}.calls"] = (totals.get(name, (0, 0.0))[0] / count, "calls/op")
    for name in COUNTER_CALLS:
        metrics[f"{name}.calls"] = (counts.get(name, 0) / count, "calls/op")
    for name in SPAN_SELF_MS:
        metrics[f"{name}.self_ms"] = (totals.get(name, (0, 0.0))[1] * 1000.0 / count, "ms/op")
    dispatched = totals.get("primal_solver.economic_dispatch", (0, 0.0))[0]
    price_sets = totals.get("dual_pricing.price_set", (0, 0.0))[0]
    supply = totals.get("dual_pricing.aggregate_supply", (0, 0.0))[0]
    metrics["primal_solver.dispatched_subset_ratio"] = (
        dispatched / tracer.subsets_offered if tracer.subsets_offered else 0.0,
        "ratio",
    )
    metrics["dual_pricing.supply_evals_per_price_set"] = (
        supply / price_sets if price_sets else 0.0,
        "calls/call",
    )
    metrics["mchp.diagnostics.failed"] = (tracer.failed_diagnostics, "count")
    metrics["traced.peak_rss_mb"] = (_peak_rss_mb(), "MB")
    plain_s, traced_s = sum(plain.latency), sum(traced.latency)
    metrics["trace.overhead_ms"] = ((traced_s - plain_s) * 1000.0 / count, "ms/op")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    traced.metrics = metrics

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"trace-{workload}-seed{seed}.json.gz"
    tracer.write(spans_file)
    traced.notes = [
        f"{count} operations, untraced {plain_s:.2f} s, traced {traced_s:.2f} s; "
        f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}",
    ]
    if plain.failures:
        plain.report_failures(workload, seed)
    return traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        machine = speed.Speed()
        for _ in range(SETUP_REPEATS):
            start, setup_s, client = setup(args.workload, args.seed, workdir)
            setups.append((start, setup_s))
            machine.after(setup_s)
        if args.trace:
            tally = per_layer(client, args.seconds, args.workload, args.seed)
        else:
            tally = end_to_end(client, args.seconds, setups, machine)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally.report_failures(args.workload, args.seed)
    attempted, failed = len(tally.latency), len(tally.failures)
    print(f"workload {args.workload} seed {args.seed} ({tally.label})")
    for note in tally.notes:
        print(f"  {note}")
    print(f"  failed_ratio {failed / attempted} ({failed} of {attempted} operations)")
    if failed:
        print(f"  failing operations: {[op.index for op, _ in tally.failures]}")
    print("  case tags: " + ", ".join(f"{k}={v}" for k, v in sorted(tally.tags.items())))
    for name, (value, unit) in tally.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in tally.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
