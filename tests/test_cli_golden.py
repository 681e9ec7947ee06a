"""CLI output on the bundled fixtures and fixed seeds, byte for byte.

The expected transcript is ``tests/golden/cli.txt``. A change that is meant
to keep every output must pass this test without touching that file. To
regenerate it after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

from morseminmax.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.txt"


def commands():
    """Every command of the transcript, with fixture paths relative to the root."""
    for path in sorted((ROOT / "data").glob("*.cplx")):
        rel = str(path.relative_to(ROOT))
        yield ["validate", rel]
        yield ["negate", rel]
        for coeff in ("z", "q", "f2", "f3"):
            yield ["reduce", rel, "--coeff", coeff]
        yield ["selector", rel, "--coeff", "z,q,f2,f3,f5", "--machine"]
        yield ["selector", rel, "--coeff", "z,q,f2"]
        for coeff in ("f2", "z", "q", "f3"):
            yield ["oracle", rel, "--coeff", coeff]
    yield ["verify-paper"]
    yield ["fuzz", "--trials", "20", "--seed", "0"]


def transcript() -> str:
    """Each command's line, its standard output and its exit code."""
    parts = []
    for argv in commands():
        out = io.StringIO()
        resolved = [str(ROOT / a) if a.startswith("data/") else a for a in argv]
        with contextlib.redirect_stdout(out):
            code = main(resolved)
        parts.append(f"$ morseminmax {' '.join(argv)}\n{out.getvalue()}[exit {code}]\n")
    return "".join(parts)


def test_cli_output_matches_golden():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = transcript().splitlines()
    first = next((i for i, (a, b) in enumerate(zip(expected, got)) if a != b),
                 min(len(expected), len(got)))
    assert got == expected, (
        f"line {first + 1}: expected {expected[first:first + 1]}, "
        f"got {got[first:first + 1]}")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript(), encoding="utf-8")
    sys.exit(0)
