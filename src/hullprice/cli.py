"""Command line entry point.

    price instance.json [--format json|csv|markdown] [--sweep d1,d2,...]
                        [--rep lo|mid|hi]

The report (or demand sweep) goes to stdout, a diagnostics summary to
stderr.  A sweep prices the file's fleet at each grid level and ignores
the file's demand.  The exit code is 0 when every diagnostic passes, 1
when a diagnostic or a sweep level fails, and otherwise the
``exit_code`` of the error that ended the run (see ``errors``).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from .errors import PricingError, SchemaError
from .market_model import read_instance
from .report import FORMATS, load_sweep, render_report, render_sweep, run_pipeline


def _parse_sweep(arg: str):
    try:
        values = [float(tok) for tok in arg.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sweep grid {arg!r}: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("sweep grid is empty")
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise argparse.ArgumentTypeError(f"bad sweep grid {arg!r}: {bad[0]} is not finite")
    return values


def _bind_sweep(argv: Sequence[str]) -> list[str]:
    """Write ``--sweep GRID``, or ``--sw GRID`` and the like, as ``--sweep=GRID``.

    argparse reads a token that starts with a minus sign, and is not one
    plain negative number, as an option, so ``--sweep -1,2`` or
    ``--sweep -inf`` would stop at "expected one argument" before
    ``_parse_sweep`` saw the grid.
    """
    out: list[str] = []
    for tok in argv:
        if out and len(out[-1]) > 2 and "--sweep".startswith(out[-1]) and not tok.startswith("--"):
            out[-1] = f"--sweep={tok}"
        else:
            out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="price",
        description="Exact dispatch, hull prices and reduced-uplift prices "
        "for a one-period single-node market instance.",
    )
    parser.add_argument("instance", help="path to an instance JSON file")
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="json",
        help="output format (default json)",
    )
    parser.add_argument(
        "--sweep",
        type=_parse_sweep,
        default=None,
        metavar="d1,d2,...",
        help="reprice over this demand grid instead of a single report",
    )
    parser.add_argument(
        "--rep",
        choices=("lo", "mid", "hi"),
        default="lo",
        help="which price in each set settles the market (default lo)",
    )
    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(_bind_sweep(sys.argv[1:] if argv is None else argv))

    try:
        instance = read_instance(_read_text(args.instance))
        if args.sweep is not None:
            rows = load_sweep(instance, args.sweep)
            sys.stdout.write(render_sweep(rows, args.format))
            bad = [r for r in rows if r.error is not None]
            for r in bad:
                print(f"demand {r.demand}: {r.error}", file=sys.stderr)
            print(
                f"sweep: {len(rows) - len(bad)}/{len(rows)} demand levels priced",
                file=sys.stderr,
            )
            return 1 if bad else 0
        report = run_pipeline(instance, price_representative=args.rep)
    except PricingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code

    sys.stdout.write(render_report(report, args.format))

    for name, ok in report.checks._asdict().items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
    return 0 if report.checks.passed else 1


if __name__ == "__main__":
    sys.exit(main())
