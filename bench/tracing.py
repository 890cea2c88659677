"""Span and counter tracing of hullprice, installed from outside the package.

The package binds functions with ``from .x import f``, so one function
object can sit in several module namespaces (``price_set`` lives in
``dual_pricing``, ``mchp``, ``report`` and the package itself).  Installing
the tracer replaces the object under every name that holds it, in every
loaded ``hullprice`` module; uninstalling puts the originals back.  Only the
traced run installs it.

Spans (name, start, end, parent span, operation) stay in memory until the
run ends.  A span's self time is its duration minus the time its child
spans cover.  The hot per-unit functions get a call counter and no span.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

SPANNED = {
    "cli": ("main",),
    "report": ("run_pipeline", "render_report", "load_sweep", "render_sweep"),
    "market_model": ("parse_instance", "validate_instance"),
    "primal_solver": ("solve_primal", "economic_dispatch"),
    "dual_pricing": ("price_set", "aggregate_supply", "uplifts", "dual_value"),
    "mchp": (
        "classify_lnmgu",
        "mchp_price_set_limit",
        "mchp_price_set_eps",
        "mchp_uplifts",
        "diagnostics",
    ),
}
COUNTED = {
    "cost_analysis": ("hull_cost", "supply_correspondence", "ec_min", "profit"),
    "tolerances": ("boundary_tol",),
}


class Tracer:
    """Records spans and counters for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[Tuple[int, float, float, int, int]]] = []
        self._cells: Dict[str, List[int]] = {}
        self.operation = -1
        self.subsets_offered = 0  # sum of 2^n - 1 over solve_primal calls
        self.failed_diagnostics = 0
        self._stack: List[int] = []
        self._wrappers: List[Tuple[Callable, Callable]] = []
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Patch the loaded package; the same wrappers are reused on reinstall."""
        if not self._wrappers:
            for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
                for short, funcs in table.items():
                    home = sys.modules[f"hullprice.{short}"]
                    for fname in funcs:
                        original = getattr(home, fname)
                        self._wrappers.append((original, make(f"{short}.{fname}", original)))
        wrapper_of = {id(original): wrapper for original, wrapper in self._wrappers}
        modules = [m for name, m in sys.modules.items() if name == "hullprice" or name.startswith("hullprice.")]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                wrapper = wrapper_of.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn: Callable) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = self._hooks().get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, start, end, parent, self.operation)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counter(self, name: str, fn: Callable) -> Callable:
        cell = self._cells[name] = [0]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _hooks(self) -> Dict[str, Callable]:
        def on_solve(args, result):
            self.subsets_offered += 2 ** len(args[0].generators) - 1

        def on_diagnostics(args, result):
            if not result.passed:
                self.failed_diagnostics += 1

        return {"primal_solver.solve_primal": on_solve, "mchp.diagnostics": on_diagnostics}

    # ------------------------------------------------------------ results

    def counts(self) -> Dict[str, int]:
        """Calls so far per counted function."""
        return {name: cell[0] for name, cell in self._cells.items()}

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for sid, (idx, start, end, _, _) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] += 1
            self_s[name] += end - start - child[sid]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path) -> None:
        """Write every span as ``[name, start_us, end_us, parent, operation]``."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        [self.names[i], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, op]
                        for i, s, e, p, op in self.spans
                    ],
                    "counters": self.counts(),
                },
                fh,
                separators=(",", ":"),
            )
