"""The console entry point, run the way a user runs it: ``python -m moorelimit``.

:func:`moorelimit.cli.run` flushes stdout and stderr and then ends the process
with ``os._exit``, skipping interpreter teardown.  Output still buffered at
that point would be lost without a word, so every child here runs with
``PYTHONUNBUFFERED`` removed from its environment: its stdout is
block-buffered, as it is for a user whose output goes to a pipe or a file,
and a missing flush shows as missing bytes.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from moorelimit import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ADDRESS_SPACE_CAP = 2 * 1024**3  # bytes; numpy imports under it, and no run here grows near it


def child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_child(argv, **kwargs) -> subprocess.CompletedProcess:
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("env", child_env())
    return subprocess.run(
        [sys.executable, "-m", "moorelimit", *argv], cwd=GOLDEN, stderr=subprocess.PIPE, timeout=120, **kwargs
    )


def run_in_process(argv) -> tuple[bytes, bytes, int]:
    """Stdout, stderr and exit code of ``cli.main(argv)`` run in ``GOLDEN``."""
    out, err = io.StringIO(newline=""), io.StringIO(newline="")
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"), code


def one_error_line(stderr: bytes) -> bool:
    text = stderr.decode("utf-8")
    return text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n")


@pytest.mark.parametrize(
    "case, argv",
    [
        ("witness.json", ["witness", "trace.json"]),
        ("enumerate.csv", ["enumerate", "trace.json", "--max-states", "3", "--format", "table"]),
        ("chsh.json", ["chsh"]),
    ],
)
def test_child_output_matches_golden_bytes(case, argv):
    proc = run_child(argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "expected" / case).read_bytes()


def _close_stdout():
    os.close(1)  # the child starts with no descriptor 1, so its sys.stdout is None


@pytest.mark.parametrize("preexec_fn", [None, _close_stdout], ids=["stdout-open", "stdout-closed"])
def test_child_writes_out_file_matching_golden_bytes(tmp_path, preexec_fn):
    out = tmp_path / "report.json"
    proc = run_child(["enumerate", "trace.json", "--max-states", "3", "--out", str(out)], preexec_fn=preexec_fn)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == (GOLDEN / "expected" / "enumerate.json").read_bytes()


def test_child_failed_demonstration_matches_in_process_main(tmp_path):
    config = tmp_path / "unequal.json"
    config.write_text(json.dumps({
        "sources": {
            "near": {"activity": 3.7e6, "distance": 100.0},
            "far": {"activity": 3.7e6, "distance": 300.0},
        },
        "detector": {"aperture_diameter": 2.0, "efficiency": 0.008, "saturation": 100},
    }))
    argv = ["exchange", "--config", str(config)]
    proc = run_child(argv)
    assert proc.returncode == 1
    assert (proc.stdout, proc.stderr, proc.returncode) == run_in_process(argv)


def test_child_malformed_file_matches_in_process_main(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    argv = ["witness", str(bad)]
    proc = run_child(argv)
    assert proc.returncode == 2 and proc.stdout == b"" and one_error_line(proc.stderr)
    assert (proc.stdout, proc.stderr, proc.returncode) == run_in_process(argv)


def test_version_and_usage_errors_take_the_normal_exit_path():
    proc = run_child(["--version"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"moorelimit {cli.__version__}\n".encode(), b"")
    proc = run_child(["enumerate", "trace.json"])  # --max-states missing
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"the following arguments are required: --max-states" in proc.stderr


@pytest.mark.parametrize(
    "argv, atexit_runs",
    [(["witness", "trace.json"], False), (["--version"], True)],
    ids=["returned", "system-exit"],
)
def test_run_skips_teardown_only_after_main_returns(argv, atexit_runs):
    """``atexit`` handlers are part of interpreter teardown, so they show whether it ran."""
    script = (
        "import atexit, sys\n"
        "atexit.register(lambda: sys.stderr.write('teardown\\n'))\n"
        "from moorelimit.cli import run\n"
        f"sys.argv = ['moorelimit', *{argv!r}]\n"
        "run()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=GOLDEN, env=child_env(), capture_output=True, timeout=120
    )
    assert proc.returncode == 0
    assert (b"teardown\n" in proc.stderr) is atexit_runs
    assert proc.stdout  # the report or the version line arrived despite os._exit


@pytest.mark.parametrize(
    "argv",
    [["witness", "trace.json"], ["enumerate", "trace.json", "--max-states", "3", "--format", "table"]],
    ids=["report", "table"],
)
def test_closed_stdout_pipe_exits_2_with_one_error_line(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader from the start, so the child's flush of stdout fails with EPIPE
    try:
        proc = run_child(argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert one_error_line(proc.stderr), proc.stderr
    assert b"Broken pipe" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["witness", "trace.json"], ["enumerate", "trace.json", "--max-states", "3", "--format", "table"]],
    ids=["report", "table"],
)
def test_closed_stdout_exits_2_with_one_error_line(argv):
    proc = run_child(argv, stdout=None, preexec_fn=_close_stdout)
    assert proc.returncode == 2, proc.stderr
    assert one_error_line(proc.stderr), proc.stderr
    assert b"stdout is closed" in proc.stderr


FILE_SIZE_CAP = 4096  # bytes; the report below is larger, so writing it fails with EFBIG


def _cap_file_size():
    resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_SIZE_CAP, FILE_SIZE_CAP))


def test_failed_streamed_write_keeps_the_old_out_file(tmp_path):
    """Python ignores SIGXFSZ, so a write past the cap raises OSError in the child."""
    out = tmp_path / "report.json"
    out.write_bytes(b"old bytes\n")
    argv = ["enumerate", "trace_ab.json", "--max-states", "3", "--out", str(out)]
    assert len(run_in_process(argv[:-2])[0]) > FILE_SIZE_CAP
    proc = run_child(argv, preexec_fn=_cap_file_size)
    assert proc.returncode == 2, proc.stderr
    assert one_error_line(proc.stderr), proc.stderr
    assert proc.stderr.endswith(f": {str(out)!r}\n".encode())
    assert proc.stdout == b""
    assert out.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


@pytest.mark.parametrize(
    "argv, error",
    [
        (["chsh", "--samples", "1000000000000"], b"error: out of memory"),
        (["geiger", "--samples", "1000000000000"], b"error: out of memory"),
        # refused up front: the search would recurse deeper than the interpreter allows
        (["enumerate", "trace.json", "--max-states", "1000000000"],
         b"error: argument --max-states: 1000000000 needs a search deeper than the interpreter's"),
    ],
    ids=["chsh", "geiger", "enumerate"],
)
def test_exhausted_memory_exits_2_with_one_error_line(argv, error):
    """Each run asks for far more than the cap at once, so it fails before it uses memory.

    Never run these without the cap: on a host that overcommits, the
    allocation could succeed and the process grow until the host runs out.
    """
    proc = run_child(argv, env=child_env(OPENBLAS_NUM_THREADS="1"), preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert one_error_line(proc.stderr), proc.stderr
    assert proc.stderr.startswith(error), proc.stderr
    assert proc.stdout == b""


def test_console_script_names_run_in_cli():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["moorelimit"]
    module, _, name = target.partition(":")
    assert module == "moorelimit.cli"
    assert getattr(cli, name, None) is cli.run  # a callable, and the one that skips teardown
