"""End-to-end and per-layer benchmark for the ``moorelimit`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py                      # every workload, both modes
    python3 perfbench/run.py --workload commands --seed 7 --seconds 30 --trace 0

``--trace 0`` times whole ``python -m moorelimit`` processes in a closed loop,
one child at a time, and reports the end-to-end metrics.  Every time is scaled
to a host of fixed speed with a calibration loop timed between children (see
``calibrate``), so the drifting speed of a shared host cancels out.
``--trace 1`` runs the same command lines in-process through
``moorelimit.cli.main`` with spans around each layer, plus short start-up
probes, and reports the per-layer metrics.  Every output is checked; the last line of each result is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = Path(".bench_work")  # relative, so reports echo the same paths in every checkout
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1956
SETUP_REPEATS = 3
PROBE_REPEATS = 10  # start-up probes per run in traced mode
TEARDOWN_REPEATS = 3  # traced-mode probes per command line
REF_SECONDS = 0.2  # times are reported as on a host that runs ``calibrate`` in 0.2 s

END_TO_END_UNITS = {
    "invocations_per_s": "1/s",
    "wall_p50_s": "s",
    "wall_tail_s": "s",
    "cpu_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
MOORELIMIT = [sys.executable, "-m", "moorelimit"]
STARTUP_UNITS = {"startup.python_s": "s", "startup.import_s": "s", "startup.teardown_s": "s"}
# printed beside the metrics, not part of the JSON result
NOTE_UNITS = {
    "calls": "count",
    "wall_tail_percentile": "%",
    "failed_ratio": "ratio",
    "traced_cycles": "count",
    "self_time_sum_s": "s",
    "calibration_s": "s",
    "wall_p50_unscaled_s": "s",
}

PROBE = """\
import sys, time
from moorelimit.cli import main
rc = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
sys.exit(rc)
"""


def calibrate() -> float:
    """Seconds this host takes right now for fixed pure-Python work.

    On a shared host the same call runs up to 1.5 times slower in some minutes
    than in others, in CPU time as well as wall time.  This work slows down
    with it, so a time divided by the calibration times measured around it
    varies far less than the raw time.  The work mixes integer arithmetic,
    tuples in a set and dicts in a list, as the program does; each alone
    tracks the program less well than the mix.
    """
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i % 7
    seen = set()
    for d in itertools.product(range(5), repeat=7):
        seen.add((d[0] + d[1], d[2:5], d[6]))
        seen.add(tuple(sorted(d)))
    rows, index = [], {}
    for i in range(40_000):
        k = i * 7919 % 100_003
        row = {"k": k, "v": [k & 3, k & 5, k & 9], "s": str(k)}
        rows.append(row)
        index[row["s"]] = row
    total += len(seen) + sum(len(r["v"]) for r in rows if index[r["s"]]["k"] & 1)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into seconds
    on the reference host."""
    return REF_SECONDS / ((before + after) / 2)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


@dataclass
class Child:
    """How one child process ran, as ``spawner.py`` reports it."""

    wall: float
    cpu: float
    rss_mb: float
    rc: int
    ended: float  # CLOCK_MONOTONIC when the child was reaped


class Verifier:
    """Checks outputs: the first of each command line in full, the rest by hash.

    Reports are deterministic, so every later output of a command line must be
    byte-identical to the first, which was checked against the call's own check,
    its expected exit code and, where one is stored, the golden hash.
    """

    def __init__(self, workload: str, seed: int, use_golden: bool = True):
        self.workload = workload
        self.seed = seed
        self.golden = json.loads(GOLDEN.read_text()) if use_golden and GOLDEN.exists() else {}
        self.reference: dict[str, tuple[str, bool]] = {}
        self.problems: list[str] = []

    def __call__(self, call, rc: int, data: bytes) -> bool:
        digest = hashlib.sha256(data).hexdigest()
        ref = self.reference.get(call.label)
        if ref is not None:
            if rc != call.expect_rc or digest != ref[0]:
                self.problems.append(f"{call.label}: exit {rc}, output differs from the first")
                return False
            return ref[1]  # a repeat of a failed first output fails again, silently
        problems = [] if rc == call.expect_rc else [f"exit code {rc}, expected {call.expect_rc}"]
        problems += call.check(data)
        golden = self.golden.get("sha256", {}).get(f"{self.workload}/{call.label}")
        if golden and (self.seed == self.golden.get("seed") or not call.seeded) and golden != digest:
            problems.append("output differs from the golden report")
        self.problems += [f"{call.label}: {p}" for p in problems]
        self.reference[call.label] = (digest, not problems)
        return not problems


class Spawner:
    """Runs every child through ``spawner.py``, a helper started while this
    process is still small, so each child's peak RSS is its own."""

    def __init__(self):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def run(self, argv: list[str], stdout_path: Path) -> Child:
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(WORK / "stderr")}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        return Child(**json.loads(reply))

    def close(self) -> None:
        """Let the helper finish its current child and exit; kill it if it hangs."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def launch(spawner: Spawner, call, stdout_path: Path, prefix: list[str] = MOORELIMIT) -> tuple[Child, bytes]:
    """Run one command line of a workload; return the child and what it wrote."""
    if call.out:
        Path(call.out).unlink(missing_ok=True)
    child = spawner.run([*prefix, *call.argv], stdout_path)
    target = Path(call.out or stdout_path)
    return child, target.read_bytes() if target.exists() else b""


def oracle_counts(trace: dict, n_inputs: int) -> dict[int, int]:
    """Behavior counts for bounds 1..3 from the naive reference enumeration."""
    import oracle
    from workloads import OUTPUTS, trace_indices

    inputs, outputs = trace_indices(trace)
    reps = oracle.naive_enumerate(inputs, outputs, 3, n_inputs, len(OUTPUTS))
    return {b: sum(1 for r in reps if r[0] <= b) for b in (1, 2, 3)}


def build(name: str, seed: int) -> list:
    from workloads import WORKLOADS

    return WORKLOADS[name](random.Random(seed), WORK, oracle_counts)


def setup(name: str, seed: int, spawner: Spawner, verify: Verifier, repeats: int):
    """Generate the inputs and run each command line once, ``repeats`` times.

    Returns the workload's calls and the scaled time each repetition took.  Outputs are
    checked after the clock stops, so the slow oracle never counts as set-up.
    """
    times = []
    for _ in range(repeats):
        before = calibrate()
        start = time.perf_counter()
        calls = build(name, seed)
        outputs = []
        for call in calls:
            child, data = launch(spawner, call, WORK / f"warmup_{len(outputs)}")
            outputs.append((call, child.rc, data))
        elapsed = time.perf_counter() - start
        times.append(elapsed * scale(before, calibrate()))
        for call, rc, data in outputs:
            verify(call, rc, data)
    return calls, times


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, never below the median.

    Returns (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11
    if k < 0 or k < (n - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * k / (n - 1)


def measure_end_to_end(
    name: str, seed: int, seconds: float, spawner: Spawner, verify: Verifier
) -> tuple[dict, dict]:
    calls, setup_times = setup(name, seed, spawner, verify, SETUP_REPEATS)
    setup_ok = not verify.problems
    samples: list[tuple[Child, float]] = []  # each child with its scale factor
    failed = 0
    deadline = time.perf_counter() + seconds
    last = calibrate()
    refs = [last]
    while not samples or time.perf_counter() < deadline:
        for call in calls:  # whole cycles only, so every run has the same mix
            child, data = launch(spawner, call, WORK / "stdout")
            after = calibrate()
            samples.append((child, scale(last, after)))
            refs.append(after)
            last = after
            failed += not verify(call, child.rc, data)
    walls = [c.wall * f for c, f in samples]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "invocations_per_s": len(samples) / sum(walls),
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": tail_value,
        "cpu_p50_s": statistics.median(c.cpu * f for c, f in samples),
        "peak_rss_mb": max(c.rss_mb for c, _ in samples),
        "setup_s": statistics.median(setup_times),
    }
    result = {
        "correct": setup_ok and failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    notes = {
        "calls": len(samples),
        "wall_tail_percentile": tail_pct,
        "failed_ratio": failed / len(samples),
        "calibration_s": statistics.median(refs),
        "wall_p50_unscaled_s": statistics.median(c.wall for c, _ in samples),
        "problems": verify.problems,
    }
    return result, notes


def startup_probes(calls: list, spawner: Spawner, verify: Verifier) -> tuple[dict, int, int]:
    """Interpreter, import and teardown times from short-lived children."""
    control, imports = [], []
    for _ in range(PROBE_REPEATS):
        control.append(spawner.run([sys.executable, "-c", "pass"], WORK / "probe_out").wall)
        imports.append(spawner.run([sys.executable, "-c", "import moorelimit.cli"], WORK / "probe_out").wall)
    teardown = []
    attempted = failed = 0
    stamp = WORK / "probe_stamp"
    for _ in range(TEARDOWN_REPEATS):
        for call in calls:
            stamp.unlink(missing_ok=True)
            child, data = launch(spawner, call, WORK / "probe_out", [sys.executable, "-c", PROBE, str(stamp)])
            attempted += 1
            if stamp.exists():
                teardown.append(child.ended - float(stamp.read_text()))
            failed += not verify(call, child.rc, data)
    metrics = {
        "startup.python_s": statistics.median(control),
        "startup.import_s": statistics.median(imports) - statistics.median(control),
        "startup.teardown_s": statistics.median(teardown) if teardown else None,
    }
    return metrics, attempted, failed


def run_in_process(cli, call) -> tuple[float, int, bytes]:
    buf = io.StringIO()
    if call.out:
        Path(call.out).unlink(missing_ok=True)
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(call.argv))
    elapsed = time.perf_counter() - start
    data = Path(call.out).read_bytes() if call.out else buf.getvalue().encode("utf-8")
    return elapsed, rc, data


def measure_per_layer(
    name: str, seed: int, seconds: float, spawner: Spawner, verify: Verifier
) -> tuple[dict, dict]:
    from tracing import PER_LAYER, Tracer, layer_totals, per_layer_metrics, self_time_sum

    calls, _ = setup(name, seed, spawner, verify, 1)
    setup_ok = not verify.problems
    deadline = time.perf_counter() + seconds  # the probes count towards the run
    refs = [calibrate()]
    startup, attempted, failed = startup_probes(calls, spawner, verify)
    refs.append(calibrate())

    cli = importlib.import_module("moorelimit.cli")
    for call in calls:  # warm caches and lazy imports before timing
        run_in_process(cli, call)
    tracer = Tracer()
    traced_cycles, traced_main, plain_main = [], [], []
    while not traced_cycles or time.perf_counter() < deadline:
        # traced and untraced cycles alternate, so drift hits both alike
        for traced in (True, False):
            first = len(tracer.spans)
            if traced:
                tracer.install()
            total = 0.0
            try:
                for call in calls:
                    elapsed, rc, data = run_in_process(cli, call)
                    total += elapsed
                    attempted += 1
                    failed += not verify(call, rc, data)
            finally:
                tracer.uninstall()
            if traced:
                traced_cycles.append(tracer.spans[first:])
                traced_main.append(total)
            else:
                plain_main.append(total)
        refs.append(calibrate())

    # one factor for the run: the layers are compared with each other, not across time
    factor = REF_SECONDS / statistics.median(refs)
    metrics = dict(startup)
    totals = [layer_totals(spans) for spans in traced_cycles]
    metrics.update(per_layer_metrics(totals, tracer.present))
    metrics["trace.overhead_s"] = statistics.mean(traced_main) - statistics.mean(plain_main)
    units = {**STARTUP_UNITS, **{k: u for k, (u, _) in PER_LAYER.items()}, "trace.overhead_s": "s"}
    for key, value in metrics.items():
        if units[key] == "s" and value is not None:
            metrics[key] = value * factor
    result = {
        "correct": setup_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    notes = {
        "traced_cycles": len(traced_cycles),
        "self_time_sum_s": self_time_sum(totals) * factor if "cli.main" in tracer.present else None,
        "failed_ratio": failed / attempted,
        "calibration_s": statistics.median(refs),
        "problems": verify.problems,
    }
    return result, notes


def environment() -> dict:
    """What a result depends on besides the code: refuse to compare across these."""
    try:
        backend = importlib.import_module("moorelimit.kernels").BACKEND
    except (ImportError, AttributeError):
        backend = "none"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": backend,
    }


def print_result(name: str, trace: int, result: dict, notes: dict) -> None:
    print(f"# {name} ({'per-layer, traced' if trace else 'end-to-end'})")
    for key, metric in result["metrics"].items():
        value = "null" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {key:28s} {value:>14s} {metric['unit']}")
    for key, value in notes.items():
        if key != "problems":
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {key:28s} {text:>14s} {NOTE_UNITS[key]}")
    for problem in notes["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps(result))


def update_golden(verify: Verifier, workload_name: str) -> None:
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"seed": DEFAULT_SEED, "sha256": {}}
    for label, (digest, ok) in verify.reference.items():
        if ok:
            doc["sha256"][f"{workload_name}/{label}"] = digest
    doc["sha256"] = dict(sorted(doc["sha256"].items()))
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")


def main() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="default: both")
    parser.add_argument("--save", default=None, help="append each result with its environment as a JSON line")
    parser.add_argument(
        "--update-golden", action="store_true", help=f"store output hashes (seed {DEFAULT_SEED} only)"
    )
    args = parser.parse_args()
    if args.update_golden and args.seed != DEFAULT_SEED:
        fail(f"--update-golden needs --seed {DEFAULT_SEED}")
    if not (ROOT / "src" / "moorelimit" / "cli.py").is_file():
        fail(f"run from the root of a moorelimit checkout; no src/moorelimit/cli.py under {ROOT}")
    if not (ROOT / "tests" / "oracle.py").is_file():
        fail(f"no tests/oracle.py under {ROOT}")
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

    # a terminated run still stops its children and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    spawner = Spawner()
    try:
        env_record = environment()
        print(f"# environment {json.dumps(env_record)}")
        for name in names if args.workload == "all" else [args.workload]:
            for trace in (0, 1) if args.trace is None else (args.trace,):
                measure = measure_per_layer if trace else measure_end_to_end
                verify = Verifier(name, args.seed, use_golden=not args.update_golden)
                result, notes = measure(name, args.seed, args.seconds, spawner, verify)
                if args.update_golden:
                    update_golden(verify, name)
                if args.save:
                    record = {"env": env_record, "workload": name, "seed": args.seed,
                              "seconds": args.seconds, "trace": trace, "result": result}
                    with open(args.save, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(record) + "\n")
                print_result(name, trace, result, notes)
    finally:
        spawner.close()
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
