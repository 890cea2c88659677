"""The package's exported names, the names the benchmark tracer patches,
and how the sources cite ROADMAP."""

import importlib
import importlib.util
import re
from pathlib import Path

import hullprice

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


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


def test_roadmap_items_are_cited_by_tag():
    """ROADMAP renumbers its open items as they land; a tag such as
    [bnb] keeps pointing at the same one."""
    numbered = re.compile(r"\bitems? #?\d", re.IGNORECASE)
    cited = [
        f"{path.relative_to(ROOT)}:{k}"
        for folder in ("src", "tests")
        for path in sorted((ROOT / folder).rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        for k, line in enumerate(path.read_text(errors="replace").splitlines(), 1)
        if numbered.search(line)
    ]
    assert cited == []
