"""Every argument vector keeps the exit-code contract.

Each case builds an argument vector for one of the nine subcommands from its
own flags, flags of other subcommands and operands, with values at and past
the edges of what each flag takes, and runs ``cli.main`` in process.  No
exception may escape: exit 0 or 1 prints nothing on stderr, and exit 2, from
``main`` or from argparse's ``SystemExit``, prints exactly one ``error:`` line.

The counts stay small or exceed 2**64: a count in between would make
``enumerate``, ``chsh`` or ``geiger`` do real work, and ``noclone`` loops once
per pair, so it never gets a large count at all.  The one exception is
``--max-states`` 10**9, which ``enumerate`` refuses before it searches or
allocates, since no search that deep fits the interpreter's recursion limit.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moorelimit import cli

GOLDEN = Path(__file__).parent / "golden"
TRACES = [str(GOLDEN / name) for name in ("trace.json", "trace_ab.json")]
MACHINES = [str(GOLDEN / name) for name in ("machine_a.json", "machine_b.json", "machine_padded.json")]
# every fixture, the directory itself and a name that does not exist; read, never written
FILES = [str(p) for p in sorted(GOLDEN.rglob("*"))] + [str(GOLDEN), str(GOLDEN / "missing.json")]

TEXT = ["", "x", "nan", "inf", "-inf", "1e3", "0x10"]
SMALL = ["-1", "0", "1", "2", "3"]
HUGE = [str(2**64), str(2**64 + 1), str(10**30)]

# flag -> (values it takes at parsing, every value drawn for it)
VALUES = {
    "--max-states": (["1", "2", "3"], SMALL + HUGE + TEXT + [str(10**9)]),  # refused before the search
    "--samples": (["0", "1", "3"], SMALL + HUGE + TEXT),
    "--seed": (["0", "1956"] + HUGE, SMALL + HUGE + TEXT + [str(-(2**64))]),
    "--tol": (["0", "1e-9", "0.5"], ["-1", "1e308", str(2**64)] + TEXT),
    "--format": (["report", "table"], TEXT),
    "--config": (FILES, FILES),
}
# noclone draws one random pair per sample, so its count stays small
NOCLONE_SAMPLES = (["1", "3"], SMALL + TEXT)

# subcommand -> (the files its operands name, their count, its own flags)
COMMANDS = {
    "witness": (TRACES, 1, []),
    "enumerate": (TRACES, 1, ["--max-states"]),
    "distinguish": (MACHINES, 2, []),
    "minimize": (MACHINES, 1, []),
    "chsh": (FILES, 0, ["--config", "--samples", "--seed", "--tol"]),
    "ks": (FILES, 0, []),
    "noclone": (FILES, 0, ["--config", "--samples", "--seed", "--tol"]),
    "exchange": (FILES, 0, ["--config", "--tol"]),
    "geiger": (FILES, 0, ["--config", "--samples", "--seed"]),
}
FLAGS = sorted(VALUES)


@st.composite
def argvs(draw, command: str, out: str):
    """Mostly the command's operand count, flags and values, so that most vectors
    get past argparse, with a foreign flag, operand or value now and then."""
    inputs, operands, own = COMMANDS[command]
    count = draw(st.sampled_from([operands] * 4 + [max(operands - 1, 0), operands + 1]))
    argv = [command] + [draw(st.sampled_from(inputs) | st.sampled_from(FILES)) for _ in range(count)]
    flags = [flag for flag in own + ["--format", "--out"] if draw(st.booleans())]
    flags += draw(st.lists(st.sampled_from(FLAGS), max_size=1))
    for flag in draw(st.permutations(flags)):
        if flag == "--out":
            argv += ["--out", out]  # a fresh file, never a fixture
            continue
        good, every = NOCLONE_SAMPLES if (command, flag) == ("noclone", "--samples") else VALUES[flag]
        value = draw(st.sampled_from(good) | st.sampled_from(every))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_argument_vectors_keep_the_exit_code_contract(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(argvs(command, str(Path(tmp) / "out.json")), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
    err = err.getvalue()
    assert not caught, "a warning would print more lines on stderr"
    assert "Traceback" not in err
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
    else:
        assert code in (0, 1) and err == "", (code, err)
