"""Command-line front end: deterministic reports and plot-ready tables.

Every subcommand emits either a structured JSON report (``--format report``,
the default) or comma-separated rows with a header line (``--format table``).
Reports carry the command name, an echo of the effective inputs, a results
block, pass/fail flags for each invariant checked, the tool version and the
seed.  Identical inputs and seed produce byte-identical output.

The four machine commands live here.  The five physics commands live in
:mod:`moorelimit.demos`, imported only when one of them is dispatched, so
``witness``, ``enumerate``, ``distinguish`` and ``minimize`` never load numpy.

Exit codes: 0 when every flagged invariant holds, 1 when a demonstration
fails, 2 for parse/config errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

from . import __version__
from .machines import (
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
    ParseError,
    dumps_report,
    encoding_to_dict,
    load_json,
    machine_from_dict,
    machine_to_dict,
    trace_from_dict,
    write_atomic,
)

#: Single seed feeding every sampling mode; chosen once, documented, fixed.
DEFAULT_SEED = 1956


# ---------------------------------------------------------------------------
# shared plumbing


def _count_at_least(minimum: int):
    """An argparse type for ``--samples``: an integer count of at least ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


def _tolerance(text: str) -> float:
    """An argparse type for ``--tol``: a finite number of at least 0."""
    value = float(text)
    if not 0 <= value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _finish(args, command: str, inputs: dict, results: dict, checks: dict, table) -> int:
    if args.format == "table":
        header, rows = table
        text = _table_text(header, rows)
    else:
        report = {
            "command": command,
            "version": __version__,
            "seed": getattr(args, "seed", DEFAULT_SEED),
            "inputs": inputs,
            "results": results,
            "checks": checks,
        }
        text = dumps_report(report)
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if all(checks.values()) else 1


_EXPERIMENT_HEADER = ["word", "position", "output_a", "output_b"]


def _experiment_rows(experiment, outputs_a, outputs_b):
    """One table row per output position of each word, from outputs already run."""
    return [
        [_word_text(word), pos, x, y]
        for word, oa, ob in zip(experiment.words, outputs_a, outputs_b)
        for pos, (x, y) in enumerate(zip(oa, ob))
    ]


def _witness_block(pair, outputs_a, outputs_b) -> dict:
    """``pair``'s two machines, the experiment separating them and their outputs."""
    return {
        "machine_a": machine_to_dict(pair.machine_a),
        "machine_b": machine_to_dict(pair.machine_b),
        "separating_experiment": [list(w) for w in pair.separating.words],
        "outputs_a": [list(o) for o in outputs_a],
        "outputs_b": [list(o) for o in outputs_b],
    }


# ---------------------------------------------------------------------------
# machine commands


def cmd_witness(args) -> int:
    trace, echo = _load_trace(args)
    pair = witness_moore(trace)
    outputs_a = run_experiment(pair.machine_a, pair.separating)
    outputs_b = run_experiment(pair.machine_b, pair.separating)
    results = _witness_block(pair, outputs_a, outputs_b)
    checks = {
        "machine_a_consistent": consistent(pair.machine_a, trace),
        "machine_b_consistent": consistent(pair.machine_b, trace),
        "machines_inequivalent": not equivalent(pair.machine_a, pair.machine_b),
        "experiment_separates": outputs_a != outputs_b,
    }
    table = (_EXPERIMENT_HEADER, _experiment_rows(pair.separating, outputs_a, outputs_b))
    return _finish(args, "witness", echo, results, checks, table)


def _row_reproduces(row: dict, trace: Trace) -> bool:
    """True iff the machine document ``row`` emits the trace's outputs on its inputs,
    replayed on the row's own ``delta`` and ``lambda``."""
    column = {sym: i for i, sym in enumerate(row["inputs"])}
    delta, lam = row["delta"], row["lambda"]
    state = row["initial"]
    emitted = [lam[state]]
    for sym in trace.inputs:
        state = delta[state][column[sym]]
        emitted.append(lam[state])
    return emitted == list(trace.outputs)


def cmd_enumerate(args) -> int:
    if args.max_states < 1:
        raise ParseError(f"--max-states must be at least 1, got {args.max_states}")
    trace, echo = _load_trace(args)
    echo["max_states"] = args.max_states
    encodings = consistent_encodings(trace, args.max_states)
    outputs, inputs = trace.alphabets
    rows = [encoding_to_dict(enc, inputs, outputs) for enc in encodings]
    counts = [
        {"max_states": bound, "count": sum(enc[0] <= bound for enc in encodings)}
        for bound in range(1, args.max_states + 1)
    ]
    results = {
        "counts": counts,
        "count": counts[-1]["count"],
        "machines": rows,
    }
    tally = [c["count"] for c in counts]
    checks = {
        "counts_nondecreasing": all(x <= y for x, y in zip(tally, tally[1:])),
        "all_consistent": all(_row_reproduces(row, trace) for row in rows),
        "all_within_bound": all(row["states"] <= args.max_states for row in rows),
    }
    table = (["max_states", "count"], [[c["max_states"], c["count"]] for c in counts])
    return _finish(args, "enumerate", echo, results, checks, table)


def cmd_distinguish(args) -> int:
    machine_a = _load_machine(args.machine_a)
    machine_b = _load_machine(args.machine_b)
    experiment = distinguishing_experiment(machine_a, machine_b)
    same = experiment is None
    results = {"equivalent": same, "separating_experiment": None}
    separated = False
    rows = []
    if not same:
        outputs_a = run_experiment(machine_a, experiment)
        outputs_b = run_experiment(machine_b, experiment)
        results["separating_experiment"] = [list(w) for w in experiment.words]
        results["outputs_a"] = [list(o) for o in outputs_a]
        results["outputs_b"] = [list(o) for o in outputs_b]
        separated = outputs_a != outputs_b
        rows = _experiment_rows(experiment, outputs_a, outputs_b)
    echo = {"machine_a": str(args.machine_a), "machine_b": str(args.machine_b)}
    checks = {"experiment_iff_inequivalent": same or separated}
    table = (_EXPERIMENT_HEADER, rows)
    return _finish(args, "distinguish", echo, results, checks, table)


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
    table = (["states_before", "states_after"], [[machine.state_count, small.state_count]])
    return _finish(args, "minimize", echo, results, checks, table)


# ---------------------------------------------------------------------------
# physics commands


def _demo(name: str):
    """A subcommand ``func`` that imports :mod:`moorelimit.demos` and runs its ``name``."""

    def dispatch(args) -> int:
        import numpy as np

        from . import demos

        with np.errstate(all="ignore"):  # validation rejects the inf/NaN numpy would warn of
            return getattr(demos, name)(args)

    return dispatch


def __getattr__(name: str):
    """A name this module lacks, looked up in :mod:`moorelimit.demos` (PEP 562).

    ``perfbench/tracing.py`` looks up the physics layers' functions on this
    module.  A dunder name fails without importing ``demos``: ``from .cli
    import main`` probes ``__path__``, which must not load numpy.
    """
    if name.startswith("__") and name.endswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import demos

    try:
        return getattr(demos, name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("report", "table"), default="report", help="output format"
    )
    common.add_argument("--out", default=None, help="write output to PATH (atomic)")

    # only the commands that draw random numbers take a seed; the others echo DEFAULT_SEED
    sampling = argparse.ArgumentParser(add_help=False, parents=[common])
    sampling.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for the sampling mode")

    parser = argparse.ArgumentParser(
        prog="moorelimit",
        description="Finite-observer inference limits: machine witnesses and quantum no-go demonstrations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", parents=[common], help="two machines one trace cannot separate")
    p.add_argument("trace", help="trace JSON file")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("enumerate", parents=[common], help="all consistent machines up to a state bound")
    p.add_argument("trace", help="trace JSON file")
    p.add_argument("--max-states", type=int, required=True, help="state bound N >= 1")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("distinguish", parents=[common], help="find an experiment separating two machines")
    p.add_argument("machine_a", help="machine JSON file")
    p.add_argument("machine_b", help="machine JSON file")
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("minimize", parents=[common], help="canonical minimal form of a machine")
    p.add_argument("machine", help="machine JSON file")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("chsh", parents=[sampling], help="CHSH value vs the LHV bound")
    p.add_argument("--config", default=None, help="JSON with optional 'state' and 'angles'")
    p.add_argument("--samples", type=_count_at_least(0), default=None, help="finite-sample estimates per setting")
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="tolerance for checks")
    p.set_defaults(func=_demo("cmd_chsh"))

    p = sub.add_parser("ks", parents=[common], help="Peres-Mermin square contextuality check")
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="tolerance for checks")
    p.set_defaults(func=_demo("cmd_ks"))

    p = sub.add_parser("noclone", parents=[sampling], help="no-cloning gaps and the record-level analogue")
    p.add_argument("--config", default=None, help="JSON with a 'pairs' array of state pairs")
    p.add_argument("--samples", type=_count_at_least(1), default=100, help="number of random pairs")
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="tolerance for checks")
    p.set_defaults(func=_demo("cmd_noclone"))

    p = sub.add_parser("exchange", parents=[common], help="records invariant under source exchange")
    p.add_argument("--config", default=None, help="scenario JSON (sources, detector, observer)")
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="tolerance for checks")
    p.set_defaults(func=_demo("cmd_exchange"))

    p = sub.add_parser("geiger", parents=[sampling], help="deterministic counter outcomes per source")
    p.add_argument("--config", default=None, help="scenario JSON (sources, detector)")
    p.add_argument("--samples", type=_count_at_least(0), default=None, help="Poisson-sampled counts per source")
    p.set_defaults(func=_demo("cmd_geiger"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
