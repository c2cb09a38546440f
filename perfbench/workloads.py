"""Seeded inputs, command lines and output checks for the three workloads.

A workload is one cycle of :class:`Call` objects: one ``moorelimit`` command
line each, with the check its output must pass.  Inputs are written under the
work directory with paths relative to the checkout root, so report bytes
(which echo those paths) are the same in every checkout.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from moorelimit.machines import Machine, minimize

OUTPUTS = (0, 1)
TWO_INPUTS = ("a", "b")
ONE_INPUT = ("a",)
MAX_TRIES = 10_000


@dataclass
class Call:
    """One command line and how to judge what it printed or wrote."""

    label: str
    argv: list[str]
    check: Callable[[bytes], list[str]]
    out: str | None = None  # --out target; None means stdout
    seeded: bool = True  # False when the command line does not depend on the seed
    expect_rc: int = 0


# ---------------------------------------------------------------------------
# seeded machines and traces


def random_minimal_machine(rng: random.Random, states: int, inputs: tuple) -> dict:
    """A uniformly drawn machine doc, redrawn until minimization keeps every state."""
    for _ in range(MAX_TRIES):
        delta = [[rng.randrange(states) for _ in inputs] for _ in range(states)]
        lam = [rng.choice(OUTPUTS) for _ in range(states)]
        machine = Machine(states, inputs, OUTPUTS, delta, lam)
        if minimize(machine).state_count == states:
            return {
                "states": states,
                "inputs": list(inputs),
                "outputs": list(OUTPUTS),
                "initial": 0,
                "delta": delta,
                "lambda": lam,
            }
    raise RuntimeError(f"no minimal {states}-state machine in {MAX_TRIES} draws")


def record_trace(rng: random.Random, machine: dict, length: int) -> dict:
    """Run the machine on a random word; declare both alphabets in the trace."""
    state = 0
    steps = [{"output": machine["lambda"][state]}]
    for _ in range(length - 1):
        i = rng.randrange(len(machine["inputs"]))
        state = machine["delta"][state][i]
        steps.append({"output": machine["lambda"][state], "input": machine["inputs"][i]})
    return {
        "steps": steps,
        "output_alphabet": list(machine["outputs"]),
        "input_alphabet": list(machine["inputs"]),
    }


def with_duplicate_state(rng: random.Random, machine: dict) -> dict:
    """An equivalent machine with one extra state: a copy of a random state that
    some transitions are redirected to, so minimization has work to undo."""
    n = machine["states"]
    copy = rng.randrange(n)
    delta = [list(row) for row in machine["delta"]] + [list(machine["delta"][copy])]
    for row in delta:
        for i, t in enumerate(row):
            if t == copy and rng.random() < 0.5:
                row[i] = n
    return {
        **machine,
        "states": n + 1,
        "delta": delta,
        "lambda": machine["lambda"] + [machine["lambda"][copy]],
    }


def trace_indices(trace: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    out_index = {s: i for i, s in enumerate(trace["output_alphabet"])}
    in_index = {s: i for i, s in enumerate(trace["input_alphabet"])}
    steps = trace["steps"]
    return (
        tuple(in_index[s["input"]] for s in steps[1:]),
        tuple(out_index[s["output"]] for s in steps),
    )


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output is right


def _report(data: bytes, command: str) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return None, [f"report is not JSON: {exc}"]
    problems = []
    if doc.get("command") != command:
        problems.append(f"report command is {doc.get('command')!r}, expected {command!r}")
    checks = doc.get("checks", {})
    if not checks:
        problems.append("report has no checks")
    problems += [f"check {name} is false" for name, ok in checks.items() if ok is not True]
    return doc, problems


def check_report(command: str) -> Callable[[bytes], list[str]]:
    return lambda data: _report(data, command)[1]


def _check_counts(counts: list[tuple[int, int]], max_states: int, oracle) -> list[str]:
    """``oracle()`` gives the reference count per small bound; it is only
    called once an output gets this far, because it is slow."""
    problems = []
    if [b for b, _ in counts] != list(range(1, max_states + 1)):
        problems.append(f"bounds are {[b for b, _ in counts]}, expected 1..{max_states}")
    tally = [c for _, c in counts]
    if any(x > y for x, y in zip(tally, tally[1:])):
        problems.append(f"counts decrease: {tally}")
    expected = oracle()
    for bound, count in counts:
        if bound in expected and expected[bound] != count:
            problems.append(f"count {count} at bound {bound}, oracle says {expected[bound]}")
    return problems


def check_enumerate_report(max_states: int, oracle):
    def check(data: bytes) -> list[str]:
        doc, problems = _report(data, "enumerate")
        if doc is None:
            return problems
        results = doc.get("results", {})
        machines = results.get("machines", [])
        if results.get("count") != len(machines):
            problems.append(f"count {results.get('count')} != {len(machines)} machines listed")
        counts = [(c["max_states"], c["count"]) for c in results.get("counts", [])]
        return problems + _check_counts(counts, max_states, oracle)

    return check


def check_enumerate_table(max_states: int, oracle):
    def check(data: bytes) -> list[str]:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if not rows or rows[0] != ["max_states", "count"]:
            return [f"unexpected table header {rows[:1]}"]
        try:
            counts = [(int(b), int(c)) for b, c in rows[1:]]
        except ValueError as exc:
            return [f"bad table row: {exc}"]
        problems = _check_counts(counts, max_states, oracle)
        if counts and counts[-1][1] < 1:
            problems.append("no behavior reproduces a trace recorded from a real machine")
        return problems

    return check


def check_minimize(states_after: int):
    def check(data: bytes) -> list[str]:
        doc, problems = _report(data, "minimize")
        if doc is not None and doc["results"].get("states_after") != states_after:
            problems.append(
                f"minimized to {doc['results'].get('states_after')} states, expected {states_after}"
            )
        return problems

    return check


# ---------------------------------------------------------------------------
# workloads


def _write(work: Path, name: str, doc: dict) -> str:
    path = work / name
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def enumerate_wide(rng: random.Random, work: Path, oracle) -> list[Call]:
    """Two-input, 3-record trace from a minimal 2-state machine; N = 4, report to a file.

    Only traces that change output and then change back (x, y, x) are kept:
    each gives exactly 6998 behaviors, so the cost per call and the peak memory
    do not depend on the seed.  The other patterns give 4.7k to 10.5k behaviors
    and would make a run's cost vary by up to a factor of four between seeds.
    """
    for _ in range(MAX_TRIES):
        machine = random_minimal_machine(rng, 2, TWO_INPUTS)
        trace = record_trace(rng, machine, 3)
        first, second, third = (step["output"] for step in trace["steps"])
        if first != second and third == first:
            break
    else:
        raise RuntimeError("no x, y, x trace drawn")
    path = _write(work, "wide_trace.json", trace)
    out = str(work / "wide_report.json")
    counts = functools.cache(lambda: oracle(trace, len(TWO_INPUTS)))
    return [
        Call(
            "enumerate",
            ["enumerate", path, "--max-states", "4", "--out", out],
            check_enumerate_report(4, counts),
            out=out,
        )
    ]


def enumerate_deep(rng: random.Random, work: Path, oracle) -> list[Call]:
    """One-input, 16-record trace from a minimal 3-state machine; N = 6, table to stdout.

    Only machines whose three states form one cycle are kept: every trace they
    give needs the same 46400 minimizations over bounds 1..6, while machines
    with a tail before their cycle need up to 26% more, which would make the
    cost per call depend on the seed.
    """
    for _ in range(MAX_TRIES):
        machine = random_minimal_machine(rng, 3, ONE_INPUT)
        delta = machine["delta"]
        if delta[delta[delta[0][0]][0]][0] == 0:
            break
    else:
        raise RuntimeError("no cyclic 3-state machine drawn")
    trace = record_trace(rng, machine, 16)
    path = _write(work, "deep_trace.json", trace)
    counts = functools.cache(lambda: oracle(trace, len(ONE_INPUT)))
    return [
        Call(
            "enumerate",
            ["enumerate", path, "--max-states", "6", "--format", "table"],
            check_enumerate_table(6, counts),
        )
    ]


def commands(rng: random.Random, work: Path, oracle) -> list[Call]:
    """Every other subcommand once per cycle: three on generated files, five at defaults."""
    witness_trace = _write(
        work, "witness_trace.json", record_trace(rng, random_minimal_machine(rng, 3, TWO_INPUTS), 10)
    )
    machine_a = _write(work, "machine_a.json", random_minimal_machine(rng, 3, TWO_INPUTS))
    machine_b = _write(work, "machine_b.json", random_minimal_machine(rng, 3, TWO_INPUTS))
    base = random_minimal_machine(rng, 3, TWO_INPUTS)
    padded = _write(work, "machine_padded.json", with_duplicate_state(rng, base))
    calls = [
        Call("witness", ["witness", witness_trace], check_report("witness")),
        Call("distinguish", ["distinguish", machine_a, machine_b], check_report("distinguish")),
        Call("minimize", ["minimize", padded], check_minimize(base["states"])),
    ]
    for command in ("chsh", "ks", "noclone", "exchange", "geiger"):
        calls.append(Call(command, [command], check_report(command), seeded=False))
    return calls


WORKLOADS = {
    "enumerate-wide": enumerate_wide,
    "enumerate-deep": enumerate_deep,
    "commands": commands,
}
