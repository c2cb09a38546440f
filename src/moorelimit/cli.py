"""Command-line front end: deterministic reports and plot-ready tables.

Every subcommand emits either a structured JSON report (``--format report``,
the default) or comma-separated rows with a header line (``--format table``).
Reports carry the command name, an echo of the effective inputs, a results
block, pass/fail flags for each invariant checked, the tool version and the
seed.  Identical inputs and seed produce byte-identical output.

Exit codes: 0 when every flagged invariant holds, 1 when a demonstration
fails, 2 for parse/config errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

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
from .nogo import (
    CHSH_TERMS,
    ChshSetting,
    chsh_sum,
    chsh_value,
    clone_inference_report,
    correlator,
    kochen_specker_check,
    lhv_chsh_bound,
    measurement_axis,
    no_cloning_gap,
    singlet,
)
from .observer import (
    exchange_witness,
    expected_count_rate,
    geiger_outcome,
    indistinguishable,
    outcome_statistics,
    sample_geiger_counts,
)
from .quantum import (
    DensityOperator,
    Effect,
    Povm,
    StateVector,
    basis_state,
    born_distribution,
    overlap,
    random_state,
)
from .serialize import (
    ParseError,
    chsh_config_from_dict,
    detector_to_dict,
    dumps_report,
    encoding_to_dict,
    load_json,
    machine_from_dict,
    machine_to_dict,
    scenario_from_dict,
    state_pairs_from_dict,
    trace_from_dict,
    write_atomic,
)

#: Single seed feeding every sampling mode; chosen once, documented, fixed.
DEFAULT_SEED = 1956

TSIRELSON = 2.0 * math.sqrt(2.0)

_CANONICAL_ANGLES = {
    "a": 0.0,
    "a_prime": math.pi / 2.0,
    "b": math.pi / 4.0,
    "b_prime": 3.0 * math.pi / 4.0,
}


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


def _sample_correlator(state: DensityOperator, x: float, y: float, n: int, rng) -> float:
    eye = np.eye(2)
    proj_a = [(eye + s * measurement_axis(x)) / 2.0 for s in (1, -1)]
    proj_b = [(eye + t * measurement_axis(y)) / 2.0 for t in (1, -1)]
    povm = Povm(
        effects=tuple(Effect(np.kron(p, q)) for p in proj_a for q in proj_b),
        labels=("++", "+-", "-+", "--"),
    )
    probs = np.asarray(born_distribution(state, povm).probabilities)
    draws = rng.choice(4, size=n, p=probs)
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    return float(np.mean(signs[draws]))


def cmd_chsh(args) -> int:
    angles = dict(_CANONICAL_ANGLES)
    state, state_echo = singlet(), "singlet"
    if args.config:
        custom_angles, custom_state = chsh_config_from_dict(load_json(args.config), str(args.config))
        angles.update(custom_angles)
        if custom_state is not None:
            state, state_echo = custom_state, "custom"
    setting = ChshSetting(state=state, **angles)
    s_value = chsh_value(setting)
    lhv = lhv_chsh_bound()

    correlators = {
        name: correlator(state, angles[x], angles[y]) for name, x, y, _ in CHSH_TERMS
    }
    results = {
        "angles": angles,
        "correlators": correlators,
        "S": s_value,
        "abs_S": abs(s_value),
        "lhv_max": lhv.max_abs,
        "tsirelson": TSIRELSON,
        "verdict": (
            "quantum exceeds LHV" if abs(s_value) > lhv.max_abs + args.tol else "within LHV bound"
        ),
    }
    checks = {
        "within_tsirelson": abs(s_value) <= TSIRELSON + args.tol,
        "lhv_max_is_two": lhv.max_abs == 2,
    }
    is_singlet = bool(np.max(np.abs(state.matrix - singlet().matrix)) <= 1e-12)
    if is_singlet:
        closed = chsh_sum(lambda _, x, y: -math.cos(angles[x] - angles[y]))
        results["closed_form_S"] = closed
        results["closed_form_deviation"] = abs(closed - s_value)
        checks["closed_form_agrees"] = abs(closed - s_value) <= args.tol
    if args.samples:
        rng = np.random.default_rng(args.seed)
        estimates = {
            name: _sample_correlator(state, angles[x], angles[y], args.samples, rng)
            for name, x, y, _ in CHSH_TERMS
        }
        s_estimate = chsh_sum(lambda name, _x, _y: estimates[name])
        results["sampled"] = {
            "samples_per_setting": args.samples,
            "correlators": estimates,
            "S_estimate": s_estimate,
            "S_error": abs(s_estimate - s_value),
        }

    table = None
    if args.format == "table":
        sweep_rows = []
        for k in range(100):
            theta = 2.0 * math.pi * k / 100.0
            sweep = ChshSetting(
                a=0.0, a_prime=math.pi / 2.0, b=theta, b_prime=theta + math.pi / 2.0, state=state
            )
            sweep_rows.append([0.0, math.pi / 2.0, theta, theta + math.pi / 2.0, chsh_value(sweep)])
        table = (["a", "a_prime", "b", "b_prime", "S"], sweep_rows)

    echo = {"config": str(args.config) if args.config else "(default)", "state": state_echo}
    return _finish(args, "chsh", echo, results, checks, table)


def cmd_ks(args) -> int:
    report = kochen_specker_check()
    results = {
        "labels": [list(row) for row in report.labels],
        "row_signs": list(report.row_signs),
        "col_signs": list(report.col_signs),
        "max_commutator": report.max_commutator,
        "max_product_deviation": report.max_product_deviation,
        "satisfying_assignments": report.satisfying_assignments,
        "assignment_count": report.assignment_count,
        "contextual": report.contextual,
    }
    checks = {
        "lines_commute": report.max_commutator <= args.tol,
        "products_are_signed_identities": report.max_product_deviation <= args.tol,
        "row_signs_all_plus": report.row_signs == (1, 1, 1),
        "col_signs_plus_plus_minus": report.col_signs == (1, 1, -1),
        "no_classical_assignment": report.satisfying_assignments == 0,
    }
    table = (
        ["row", "col", "label"],
        [[r, c, report.labels[r][c]] for r in range(3) for c in range(3)],
    )
    echo = {"square": "peres-mermin"}
    return _finish(args, "ks", echo, results, checks, table)


def cmd_noclone(args) -> int:
    ket0 = basis_state(2, 0)
    ket1 = basis_state(2, 1)
    default_mode = args.config is None
    if default_mode:
        pairs = [
            ("identical", ket0, ket0),
            ("orthogonal", ket0, ket1),
            ("overlap_0.6", ket0, StateVector(np.array([0.6, 0.8], dtype=complex))),
        ]
    else:
        pairs = state_pairs_from_dict(load_json(args.config), str(args.config))

    pair_rows = []
    gap_by_name = {}
    for name, psi, phi in pairs:
        gap = no_cloning_gap(psi, phi)
        gap_by_name[name] = gap
        pair_rows.append({"name": name, "overlap": abs(overlap(psi, phi)), "gap": gap})

    rng = np.random.default_rng(args.seed)
    random_gaps = [
        no_cloning_gap(random_state(2, rng), random_state(2, rng)) for _ in range(args.samples)
    ]
    results = {
        "pairs": pair_rows,
        "random": {
            "count": args.samples,
            "min_gap": min(random_gaps),
            "max_gap": max(random_gaps),
        },
    }
    checks = {
        "gaps_nonnegative": all(row["gap"] >= -args.tol for row in pair_rows),
        "random_gaps_positive": all(g > 0 for g in random_gaps),
    }
    if default_mode:
        checks["identical_gap_zero"] = abs(gap_by_name["identical"]) <= args.tol
        checks["orthogonal_gap_zero"] = abs(gap_by_name["orthogonal"]) <= args.tol
        checks["overlap_0.6_gap_0.24"] = abs(gap_by_name["overlap_0.6"] - 0.24) <= args.tol

        analogue = clone_inference_report(Trace((0, 1)))
        results["classical_analogue"] = {
            "trace": list(analogue.trace.outputs),
            **_witness_block(analogue, analogue.outputs_a, analogue.outputs_b),
            "records_identical": analogue.records_identical,
            "machines_equivalent": analogue.machines_equivalent,
        }
        checks["classical_witness_separates"] = (
            analogue.records_identical and not analogue.machines_equivalent
        )
    table = (
        ["pair", "overlap", "gap"],
        [[row["name"], row["overlap"], row["gap"]] for row in pair_rows],
    )
    echo = {"config": str(args.config) if args.config else "(default)"}
    return _finish(args, "noclone", echo, results, checks, table)


def _default_scenario() -> dict:
    return {
        "sources": {
            "near": {"activity": 3.7e6, "distance": 100.0, "yield": 1.0},
            "far": {"activity": 1.48e7, "distance": 200.0, "yield": 1.0},
        },
        "detector": {"aperture_diameter": 2.0, "efficiency": 0.008, "saturation": 100},
    }


def _default_exchange_quantum() -> dict:
    zeros = [[0.0, 0.0], [0.0, 0.0]]
    return {
        "observer": {
            "env_dim": 2,
            "povms": [
                {
                    "name": "counter",
                    "dim": 2,
                    "labels": [0, 1],
                    "effects": [
                        {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": zeros},
                        {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": zeros},
                    ],
                }
            ],
        },
        "density_a": {"dim": 2, "re": [[0.75, 0.0], [0.0, 0.25]], "im": zeros},
        "density_b": {"dim": 2, "re": [[0.75, 0.2], [0.2, 0.25]], "im": zeros},
    }


def _source_table(rows):
    """The per-source table ``exchange`` and ``geiger`` share."""
    header = ["source", "activity", "distance", "yield", "expected_rate", "outcome"]
    return header, [
        [r["name"], r["activity"], r["distance"], r["yield"], r["expected_rate"], r["outcome"]]
        for r in rows
    ]


def _source_rows(names, sources, detector):
    rows = []
    for name, src in zip(names, sources):
        rows.append(
            {
                "name": name,
                "activity": src.activity,
                "distance": src.distance,
                "yield": src.photon_yield,
                "expected_rate": expected_count_rate(src, detector),
                "outcome": geiger_outcome(src, detector),
            }
        )
    return rows


def cmd_exchange(args) -> int:
    default = {**_default_scenario(), **_default_exchange_quantum()}
    doc = load_json(args.config) if args.config else default
    names, sources, detector, observer, densities = scenario_from_dict(doc, args.config)
    if len(sources) != 2:
        raise ParseError("exchange compares exactly two sources")
    report = exchange_witness(sources[0], sources[1], detector)

    results = {
        "sources": _source_rows(names, sources, detector),
        "detector": detector_to_dict(detector),
        "records_equal": report.records_equal,
        "configs_identical": report.configs_identical,
        "verdict": (
            "records carry no trace of the exchange"
            if report.records_equal and not report.configs_identical
            else "records distinguish the configurations"
        ),
    }
    checks = {
        "records_equal": report.records_equal,
        "configs_distinct": not report.configs_identical,
    }
    if observer is not None and len(densities) == 2:
        rho_a, rho_b = densities
        stats_a = outcome_statistics(rho_a, observer)
        stats_b = outcome_statistics(rho_b, observer)
        comparison = indistinguishable(stats_a, stats_b, tolerance=args.tol)
        results["statistics"] = {
            "povms": {
                name: {
                    "labels": list(stats_a[name].labels),
                    "p_a": list(stats_a[name].probabilities),
                    "p_b": list(stats_b[name].probabilities),
                }
                for name in stats_a
            },
            "max_deviation": comparison.max_deviation,
            "indistinguishable": comparison.indistinguishable,
            "states_identical": bool(np.array_equal(rho_a.matrix, rho_b.matrix)),
        }
        checks["statistics_indistinguishable"] = comparison.indistinguishable

    table = _source_table(results["sources"])
    echo = {"config": str(args.config) if args.config else "(default)"}
    return _finish(args, "exchange", echo, results, checks, table)


def cmd_geiger(args) -> int:
    doc = load_json(args.config) if args.config else _default_scenario()
    names, sources, detector, _, _ = scenario_from_dict(doc, args.config)
    rows = _source_rows(names, sources, detector)
    outcomes = [r["outcome"] for r in rows]
    results = {
        "sources": rows,
        "detector": detector_to_dict(detector),
    }
    if len(rows) > 1:
        results["outcomes_equal"] = all(o == outcomes[0] for o in outcomes)
    if args.samples:
        rng = np.random.default_rng(args.seed)
        sampled = {}
        for name, src in zip(names, sources):
            counts = sample_geiger_counts(src, detector, args.samples, rng)
            sampled[name] = {
                "samples": args.samples,
                "mean": float(np.mean(counts)),
                "min": int(min(counts)),
                "max": int(max(counts)),
            }
        results["sampled"] = sampled
    checks = {"within_saturation": all(o <= detector.saturation for o in outcomes)}
    if len(rows) > 1:
        checks["outcomes_all_equal"] = results["outcomes_equal"]
    table = _source_table(rows)
    echo = {"config": str(args.config) if args.config else "(default)"}
    return _finish(args, "geiger", echo, results, checks, table)


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
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("ks", parents=[common], help="Peres-Mermin square contextuality check")
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="tolerance for checks")
    p.set_defaults(func=cmd_ks)

    p = sub.add_parser("noclone", parents=[sampling], help="no-cloning gaps and the record-level analogue")
    p.add_argument("--config", default=None, help="JSON with a 'pairs' array of state pairs")
    p.add_argument("--samples", type=_count_at_least(1), default=100, help="number of random pairs")
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="tolerance for checks")
    p.set_defaults(func=cmd_noclone)

    p = sub.add_parser("exchange", parents=[common], help="records invariant under source exchange")
    p.add_argument("--config", default=None, help="scenario JSON (sources, detector, observer)")
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="tolerance for checks")
    p.set_defaults(func=cmd_exchange)

    p = sub.add_parser("geiger", parents=[sampling], help="deterministic counter outcomes per source")
    p.add_argument("--config", default=None, help="scenario JSON (sources, detector)")
    p.add_argument("--samples", type=_count_at_least(0), default=None, help="Poisson-sampled counts per source")
    p.set_defaults(func=cmd_geiger)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # validation rejects the inf/NaN numpy would warn of
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
