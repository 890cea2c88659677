"""Golden outputs: the `price` command's stdout and exit code, byte for byte.

``golden/CASES`` has one case a line: the expected-stdout file, the exit
code, the instance file and the command-line arguments after it.  Output
may change only on purpose; rewrite the goldens from the current code with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib

import pytest

from hullprice.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _cases():
    for line in (GOLDEN / "CASES").read_text(encoding="utf-8").splitlines():
        expected, code, instance, *args = line.split()
        yield expected, int(code), [str(GOLDEN / instance), *args]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return out.getvalue(), code


CASES = list(_cases())


@pytest.mark.parametrize("expected, code, argv", CASES, ids=[case[0] for case in CASES])
def test_price_matches_golden(expected, code, argv):
    out, got = _run(argv)
    assert got == code
    assert out == (GOLDEN / expected).read_text(encoding="utf-8")


if __name__ == "__main__":
    lines = []
    for expected, _, argv in CASES:
        out, code = _run(argv)
        (GOLDEN / expected).write_text(out, encoding="utf-8")
        lines.append(" ".join([expected, str(code), pathlib.Path(argv[0]).name, *argv[1:]]))
    (GOLDEN / "CASES").write_text("\n".join(lines) + "\n", encoding="utf-8")
