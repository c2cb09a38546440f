"""Byte-exact outputs of every subcommand, pinned against committed files.

Each case runs ``moorelimit.cli.main`` with ``tests/golden`` as the working
directory, so the input paths a report echoes are the short names of the
files there, and compares stdout byte for byte with
``tests/golden/expected/<case>``.  After an intended change of an output,
regenerate the files with ``PYTHONPATH=src python tests/test_golden.py`` and
say in CHANGES.md why the bytes changed.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from moorelimit import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "witness.json": ["witness", "trace.json"],
    "witness.csv": ["witness", "trace.json", "--format", "table"],
    "enumerate.json": ["enumerate", "trace.json", "--max-states", "3"],
    "enumerate.csv": ["enumerate", "trace.json", "--max-states", "3", "--format", "table"],
    "enumerate_ab.json": ["enumerate", "trace_ab.json", "--max-states", "3"],
    "enumerate_ab.csv": ["enumerate", "trace_ab.json", "--max-states", "3", "--format", "table"],
    "distinguish.json": ["distinguish", "machine_a.json", "machine_b.json"],
    "distinguish.csv": ["distinguish", "machine_a.json", "machine_b.json", "--format", "table"],
    "distinguish_equivalent.json": ["distinguish", "machine_a.json", "machine_padded.json"],
    "minimize.json": ["minimize", "machine_padded.json"],
    "minimize.csv": ["minimize", "machine_padded.json", "--format", "table"],
    "chsh.json": ["chsh"],
    "chsh.csv": ["chsh", "--format", "table"],
    "chsh_samples.json": ["chsh", "--samples", "50"],
    "ks.json": ["ks"],
    "ks.csv": ["ks", "--format", "table"],
    "noclone.json": ["noclone"],
    "noclone.csv": ["noclone", "--format", "table"],
    "exchange.json": ["exchange"],
    "exchange.csv": ["exchange", "--format", "table"],
    "geiger.json": ["geiger"],
    "geiger.csv": ["geiger", "--format", "table"],
    "geiger_samples.json": ["geiger", "--samples", "20"],
}


def run_case(argv) -> bytes:
    """Exit code 0, nothing on stderr, and the stdout bytes of one run in GOLDEN."""
    out, err = io.StringIO(newline=""), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_bytes(case):
    assert run_case(CASES[case]) == (GOLDEN / "expected" / case).read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in (GOLDEN / "expected").iterdir()) == sorted(CASES)


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / "expected" / name).write_bytes(run_case(argv))
        print(f"wrote {name}", file=sys.stderr)
