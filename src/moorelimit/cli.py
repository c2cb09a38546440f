"""Command-line front end: deterministic reports and plot-ready tables.

Every subcommand emits either a structured JSON report (``--format report``,
the default) or comma-separated rows with a header line (``--format table``).
Reports carry the command name, an echo of the effective inputs, a results
block, pass/fail flags for each invariant checked, the tool version and the
seed.  Identical inputs and seed produce byte-identical output.

The four machine commands live here, and never load numpy.  Each physics
command lives in another module of the package, imported only when the
command is dispatched: ``geiger`` in :mod:`moorelimit.detector`, ``ks`` in
:mod:`moorelimit.contextuality` and the rest in :mod:`moorelimit.demos`.
They compute in plain Python and load numpy only to draw: ``noclone``
always, ``chsh`` and ``geiger`` with ``--samples``.

Exit codes: 0 when every flagged invariant holds, 1 when a demonstration
fails, 2 for parse/config errors, a number too large to use, a failed write
or exhausted memory.
:func:`run`, the console entry point, ends the process as soon as its output
is flushed; :func:`main` returns the exit code to an in-process caller.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from bisect import bisect_left
from operator import itemgetter

from . import __version__
from .machines import (
    AlphabetError,
    DegenerateAlphabetError,
    Trace,
    consistent,
    consistent_encodings,
    distinguishing_experiment,
    enumerate_consistent,  # unused here; perfbench/tracing.py looks it up on this module by name
    equivalent,
    minimize,
    run_experiment,
    witness_moore,
)
from .serialize import (
    MachineRows,
    dumps_report,  # unused here; perfbench/tracing.py and tests/test_benchmark_contract.py use it by name
    load_json,
    machine_from_dict,
    machine_to_dict,
    trace_from_dict,
    write_atomic,
    write_report,
)

#: Single seed feeding every sampling mode; chosen once, documented, fixed.
DEFAULT_SEED = 1956


# ---------------------------------------------------------------------------
# shared plumbing


def _count_at_least(minimum: int, maximum: int | None = None):
    """An argparse type for ``--samples``, ``--seed`` and ``--max-states``: an
    integer of at least ``minimum`` and, if given, at most ``maximum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return count


def _tolerance(text: str) -> float:
    """An argparse type for ``--tol``: a finite number of at least 0."""
    value = float(text)
    if not 0 <= value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _path(text: str) -> str:
    """An argparse type for every file-name argument: a name, never empty, that
    UTF-8 can spell, as the report that echoes it must."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file name, got ''")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a byte the file system encoding could not decode
        raise argparse.ArgumentTypeError(f"expected a UTF-8 file name, got {text!r}") from None
    return text


def _load_trace(args) -> tuple[Trace, dict]:
    trace = trace_from_dict(load_json(args.trace), where=str(args.trace))
    echo = {
        "trace": str(args.trace),
        "outputs": list(trace.outputs),
        "inputs": list(trace.inputs) if trace.inputs else None,
        "output_alphabet": trace.output_alphabet,
        "input_alphabet": trace.input_alphabet,
    }
    return trace, echo


def _load_machine(path):
    return machine_from_dict(load_json(path), where=str(path))


def _word_text(word) -> str:
    return " ".join(str(sym) for sym in word)


def _table_text(header, rows) -> str:
    import csv  # only --format table needs it
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _finish(args, command: str, inputs: dict, results: dict, checks: dict, table) -> int:
    """Write the report, or for ``--format table`` the ``(header, rows)`` that
    ``table()`` builds, and return the exit code the checks give.

    The report goes to its destination in chunks as it is rendered: into
    ``--out``'s temp file, or straight to stdout, where a failed write can
    leave it cut short before main's ``error:`` line.
    """
    if not args.out and sys.stdout is None:  # the process started with descriptor 1 closed
        raise OSError("stdout is closed; name a file with --out")
    if args.format == "table":
        text = _table_text(*table())

        def produce(write):
            write(text)

    else:
        report = {
            "command": command,
            "version": __version__,
            "seed": getattr(args, "seed", DEFAULT_SEED),
            "inputs": inputs,
            "results": results,
            "checks": checks,
        }

        def produce(write):
            write_report(report, write)

    if args.out:
        write_atomic(args.out, produce)
    else:
        produce(sys.stdout.write)
        sys.stdout.flush()  # a closed pipe fails here, inside main's handler, not at exit
    return 0 if all(checks.values()) else 1


def _experiment_table(results: dict):
    """One table row per output position of each word of the results' separating
    experiment; no rows when there is none."""
    words = results["separating_experiment"] or []
    rows = [
        [_word_text(word), pos, x, y]
        for word, oa, ob in zip(words, results.get("outputs_a", ()), results.get("outputs_b", ()))
        for pos, (x, y) in enumerate(zip(oa, ob))
    ]
    return ["word", "position", "output_a", "output_b"], rows


def _separation(machine_a, machine_b, experiment) -> dict:
    """The ``separating_experiment``, ``outputs_a`` and ``outputs_b`` keys of a
    results block: ``experiment``'s words and each machine's outputs on them."""
    return {
        "separating_experiment": [list(w) for w in experiment.words],
        "outputs_a": run_experiment(machine_a, experiment),
        "outputs_b": run_experiment(machine_b, experiment),
    }


def _witness(trace: Trace) -> tuple[dict, dict]:
    """The results block and the four checks of ``trace``'s witness pair: its two
    machines, the experiment separating them and their outputs on it."""
    machine_a, machine_b, separating = witness_moore(trace)
    results = {
        "machine_a": machine_to_dict(machine_a),
        "machine_b": machine_to_dict(machine_b),
        **_separation(machine_a, machine_b, separating),
    }
    checks = {
        "machine_a_consistent": consistent(machine_a, trace),
        "machine_b_consistent": consistent(machine_b, trace),
        "machines_inequivalent": not equivalent(machine_a, machine_b),
        "experiment_separates": results["outputs_a"] != results["outputs_b"],
    }
    return results, checks


# ---------------------------------------------------------------------------
# machine commands


def cmd_witness(args) -> int:
    trace, echo = _load_trace(args)
    try:
        results, checks = _witness(trace)
    except DegenerateAlphabetError as exc:  # the trace's own alphabet admits no witness
        raise ValueError(f"{args.trace}: {exc}") from None
    return _finish(args, "witness", echo, results, checks, lambda: _experiment_table(results))


def cmd_enumerate(args) -> int:
    trace, echo = _load_trace(args)
    bound = echo["max_states"] = args.max_states
    outputs, inputs = trace.alphabets
    k = len(inputs)
    limit = sys.maxsize // k  # beyond it, the search's flat table could not be indexed
    if bound > limit:
        raise ValueError(f"argument --max-states: must be <= {limit} over {k} inputs, got {bound}")
    too_deep = (f"argument --max-states: {bound} needs a search deeper than the "
                f"interpreter's recursion limit of {sys.getrecursionlimit()}")
    if bound >= sys.getrecursionlimit():  # the search recurses at least bound + 1 frames deep
        raise ValueError(too_deep)
    try:
        encodings = consistent_encodings(trace, bound)  # sorted, so by state count first
    except RecursionError:  # a bound just below the limit, plus the caller's frames
        raise ValueError(too_deep) from None
    tally = [bisect_left(encodings, (n + 1,)) for n in range(1, bound + 1)]
    checks = {
        "counts_nondecreasing": all(x <= y for x, y in zip(tally, tally[1:])),
        "all_consistent": False,  # both set by checked() once every encoding is out
        "all_within_bound": False,
    }
    steps = [inputs.index(sym) for sym in trace.inputs]
    recorded = tuple(outputs.index(sym) for sym in trace.outputs)
    recorded = recorded if len(recorded) > 1 else recorded[0]  # what itemgetter gives for one index

    def checked():
        """Each encoding ``(m, delta, lam)``, replayed on the trace's indices as it
        is yielded, so the encodings checked are the encodings written.  The walk
        over the recorded inputs finds the states a ``delta`` visits; each
        completion then has its ``lam`` at those states read at once."""
        replayed = within = True
        delta = None
        for enc in encodings:
            if enc[1] is not delta:  # the search shares one delta per table; any other object is walked anew
                delta, state, visited = enc[1], 0, [0]
                for i in steps:
                    state = delta[state * k + i]
                    visited.append(state)
                emitted = itemgetter(*visited)
            replayed = replayed and emitted(enc[2]) == recorded
            within = within and enc[0] <= bound
            yield enc
        checks["all_consistent"] = replayed
        checks["all_within_bound"] = within

    rows = checked()
    results = {
        "counts": [{"max_states": n, "count": c} for n, c in enumerate(tally, 1)],
        "count": tally[-1],
        "machines": MachineRows(rows, inputs, outputs),  # rendered before checks, which it completes
    }

    def table():
        for _ in rows:  # replayed for the checks, never rendered
            pass
        return ["max_states", "count"], list(enumerate(tally, 1))

    return _finish(args, "enumerate", echo, results, checks, table)


def cmd_distinguish(args) -> int:
    machine_a = _load_machine(args.machine_a)
    machine_b = _load_machine(args.machine_b)
    try:
        experiment = distinguishing_experiment(machine_a, machine_b)
    except AlphabetError as exc:  # each file is valid alone; together their alphabets differ
        raise ValueError(f"{args.machine_a} and {args.machine_b}: {exc}") from None
    same = experiment is None
    results = {"equivalent": same, "separating_experiment": None}
    if not same:
        results.update(_separation(machine_a, machine_b, experiment))  # keeps the key's place
    echo = {"machine_a": str(args.machine_a), "machine_b": str(args.machine_b)}
    checks = {"experiment_iff_inequivalent": same or results["outputs_a"] != results["outputs_b"]}
    return _finish(args, "distinguish", echo, results, checks, lambda: _experiment_table(results))


def cmd_minimize(args) -> int:
    machine = _load_machine(args.machine)
    small = minimize(machine)
    results = {
        "states_before": machine.state_count,
        "states_after": small.state_count,
        "machine": machine_to_dict(small),
    }
    echo = {"machine": str(args.machine)}
    checks = {
        "preserves_behavior": equivalent(machine, small),
        "idempotent": minimize(small) == small,
        "never_grows": small.state_count <= machine.state_count,
    }

    def table():
        return ["states_before", "states_after"], [[machine.state_count, small.state_count]]

    return _finish(args, "minimize", echo, results, checks, table)


# ---------------------------------------------------------------------------
# physics commands


def _module(name: str):
    """``moorelimit.<name>``, imported by the ``import`` machinery that
    ``-X importtime`` logs, which ``importlib.import_module`` bypasses."""
    return getattr(__import__(f"{__package__}.{name}"), name)


def _command(module: str, name: str):
    """A subcommand ``func`` that imports ``moorelimit.<module>`` and runs its ``name``."""

    def dispatch(args) -> int:
        return getattr(_module(module), name)(args)

    return dispatch


def __getattr__(name: str):
    """A name this module lacks, looked up in :mod:`moorelimit.detector`,
    :mod:`moorelimit.contextuality` and then :mod:`moorelimit.demos` (PEP 562).

    ``perfbench/tracing.py`` looks up the physics layers' functions on this
    module.  A dunder name fails without importing any of them: ``from .cli
    import main`` probes ``__path__``, which must not load numpy.
    """
    if not (name.startswith("__") and name.endswith("__")):
        for module in map(_module, ("detector", "contextuality", "demos")):
            if hasattr(module, name):
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("report", "table"), default="report", help="output format"
    )
    common.add_argument("--out", type=_path, default=None, help="write output to PATH (atomic)")

    # only the commands that draw random numbers take a seed; the others echo DEFAULT_SEED
    sampling = argparse.ArgumentParser(add_help=False, parents=[common])
    sampling.add_argument(
        "--seed", type=_count_at_least(0), default=DEFAULT_SEED, help="seed N >= 0 for the sampling mode"
    )

    parser = argparse.ArgumentParser(
        prog="moorelimit",
        description="Finite-observer inference limits: machine witnesses and quantum no-go demonstrations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", parents=[common], help="two machines one trace cannot separate")
    p.add_argument("trace", type=_path, help="trace JSON file")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("enumerate", parents=[common], help="all consistent machines up to a state bound")
    p.add_argument("trace", type=_path, help="trace JSON file")
    p.add_argument("--max-states", type=_count_at_least(1, sys.maxsize), required=True, help="state bound N >= 1")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("distinguish", parents=[common], help="find an experiment separating two machines")
    p.add_argument("machine_a", type=_path, help="machine JSON file")
    p.add_argument("machine_b", type=_path, help="machine JSON file")
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("minimize", parents=[common], help="canonical minimal form of a machine")
    p.add_argument("machine", type=_path, help="machine JSON file")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("chsh", parents=[sampling], help="CHSH value vs the LHV bound")
    p.add_argument("--config", type=_path, default=None, help="JSON with optional 'state' and 'angles'")
    p.add_argument("--samples", type=_count_at_least(0, sys.maxsize), default=None, help="finite-sample estimates per setting")
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="tolerance for checks")
    p.set_defaults(func=_command("demos", "cmd_chsh"))

    p = sub.add_parser("ks", parents=[common], help="Peres-Mermin square contextuality check")
    p.set_defaults(func=_command("contextuality", "cmd_ks"))

    p = sub.add_parser("noclone", parents=[sampling], help="no-cloning gaps and the record-level analogue")
    p.add_argument("--config", type=_path, default=None, help="JSON with a 'pairs' array of state pairs")
    p.add_argument("--samples", type=_count_at_least(1, sys.maxsize), default=100, help="number of random pairs")
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="tolerance for checks")
    p.set_defaults(func=_command("demos", "cmd_noclone"))

    p = sub.add_parser("exchange", parents=[common], help="records invariant under source exchange")
    p.add_argument("--config", type=_path, default=None, help="scenario JSON (sources, detector, observer)")
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="tolerance for checks")
    p.set_defaults(func=_command("demos", "cmd_exchange"))

    p = sub.add_parser("geiger", parents=[sampling], help="deterministic counter outcomes per source")
    p.add_argument("--config", type=_path, default=None, help="scenario JSON (sources, detector)")
    p.add_argument("--samples", type=_count_at_least(0, sys.maxsize), default=None, help="Poisson-sampled counts per source")
    p.set_defaults(func=_command("detector", "cmd_geiger"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError too, from a draw
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


def run() -> None:
    """The console entry point: :func:`main` on ``sys.argv``, then ``os._exit``.

    Once stdout and stderr are flushed, no output depends on the interpreter's
    teardown, which frees every object and module and joins numpy's BLAS
    threads, so the process ends without it.  An exception or ``SystemExit``
    escaping :func:`main` (argparse errors, ``--help``, ``--version``) takes
    the normal exit path.
    """
    rc = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when the process started with that descriptor closed
                stream.flush()
        except OSError:  # a write main has reported already; never exit 0 with output lost
            rc = rc or 2
    os._exit(rc)


if __name__ == "__main__":
    run()
