"""The package's exported names and the names the benchmark tracer patches."""

import importlib
import importlib.util
from pathlib import Path

import hullprice

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_exported_name_resolves():
    assert [name for name in hullprice.__all__ if not hasattr(hullprice, name)] == []


def test_every_traced_name_is_a_function_of_its_module():
    """``--trace 1`` patches these names; a missing one breaks the traced run."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{short}.{name}"
        for table in (tracing.SPANNED, tracing.COUNTED)
        for short, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hullprice.{short}"), name, None))
    ]
    assert missing == []
