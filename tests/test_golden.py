"""Byte-exact outputs of every subcommand, pinned against committed files.

Each case runs ``moorelimit.cli.main`` with ``tests/golden`` as the working
directory, so the input paths a report echoes are the short names of the
files there, and compares stdout byte for byte with
``tests/golden/expected/<case>``.  After an intended change of an output,
regenerate the files with ``PYTHONPATH=src python tests/test_golden.py`` and
say in CHANGES.md why the bytes changed.  The physics cases are also run under
forced OpenBLAS kernels, since their bytes must not depend on the CPU.
"""

import contextlib
import io
import json
import os
import subprocess
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


PHYSICS = ("chsh", "ks", "noclone", "exchange", "geiger")

# prints the stdout of each case of the JSON object argv[1] holds, as a JSON object
CHILD = """
import contextlib, io, json, sys
from moorelimit import cli
outputs = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO(newline="")
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, name
    outputs[name] = out.getvalue()
json.dump(outputs, sys.stdout)
"""


@pytest.mark.parametrize("kernel", ["Prescott", "Haswell", None], ids=lambda k: k or "default")
def test_physics_bytes_do_not_depend_on_the_blas_kernel(kernel):
    """Every physics case, and ``noclone --samples 2000``, gives the same bytes
    with OpenBLAS forced to a kernel without FMA (``Prescott``), to one with FMA
    (``Haswell``, which needs AVX2) and left to pick its own.

    Each kernel runs in a child process, the only one whose environment sets
    ``OPENBLAS_CORETYPE``.  Where numpy's BLAS is not OpenBLAS, or is built
    without ``DYNAMIC_ARCH``, the variable changes nothing and this test checks
    nothing that ``test_output_matches_golden_bytes`` does not.
    """
    cases = {name: argv for name, argv in CASES.items() if argv[0] in PHYSICS}
    cases["noclone_2000"] = ["noclone", "--samples", "2000"]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(GOLDEN.parent.parent / "src"), env.get("PYTHONPATH")]))
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(cases)],
        cwd=GOLDEN,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    outputs = json.loads(proc.stdout)
    expected = {name: run_case(argv) if name == "noclone_2000" else (GOLDEN / "expected" / name).read_bytes()
                for name, argv in cases.items()}
    assert [name for name in cases if outputs[name].encode("utf-8") != expected[name]] == []


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / "expected" / name).write_bytes(run_case(argv))
        print(f"wrote {name}", file=sys.stderr)
