"""Acceptance checklist: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each test prints ``criterion N (...): PASS/FAIL`` before asserting, so a red
run still shows the full scoreboard.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np

from oracle import machine_as_tuple, naive_enumerate, naive_equivalent

from moorelimit.machines import (
    Trace,
    consistent,
    enumerate_consistent,
    equivalent,
    run_experiment,
    witness_moore,
)
from moorelimit.nogo import (
    chsh_value,
    correlator,
    lhv_chsh_table,
    no_cloning_gap,
    singlet,
)
from moorelimit.contextuality import kochen_specker_check
from moorelimit.detector import DetectorConfig, SourceConfig, geiger_outcome
from moorelimit.observer import lift_povm
from moorelimit.quantum import (
    Effect,
    Povm,
    StateVector,
    basis_povm,
    basis_state,
    born_distribution,
    random_density,
    random_state,
    tensor,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{label}: {status}{suffix}")


def _random_trace(rng, max_len: int, n_outputs: int, two_inputs: bool = False) -> Trace:
    length = rng.randint(1, max_len)
    outputs = tuple(rng.randrange(n_outputs) for _ in range(length))
    out_alpha = tuple(range(n_outputs))
    if not two_inputs:
        return Trace(outputs, output_alphabet=out_alpha)
    inputs = tuple(rng.choice(("a", "b")) for _ in range(length - 1))
    return Trace(outputs, inputs, out_alpha, ("a", "b"))


def test_criterion_1_witness_suite():
    """200 seeded traces (len <= 10, 2-3 outputs): valid witness pairs, < 10 s."""
    rng = random.Random(2026)
    problems = []
    start = time.perf_counter()
    for i in range(200):
        trace = _random_trace(
            rng, max_len=10, n_outputs=rng.choice((2, 3)), two_inputs=rng.random() < 0.3
        )
        machine_a, machine_b, separating = witness_moore(trace)
        outs_a = run_experiment(machine_a, separating)
        outs_b = run_experiment(machine_b, separating)
        if not consistent(machine_a, trace):
            problems.append((i, trace, "machine_a inconsistent"))
        if not consistent(machine_b, trace):
            problems.append((i, trace, "machine_b inconsistent"))
        if equivalent(machine_a, machine_b):
            problems.append((i, trace, "machines equivalent"))
        if outs_a == outs_b:
            problems.append((i, trace, "experiment does not separate"))
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 10.0
    _verdict("criterion 1 (witness pairs for 200 seeded traces)", ok, f"{elapsed:.2f}s < 10s")
    assert ok, problems[:3] or f"too slow: {elapsed:.2f}s"


def test_criterion_2_enumeration_matches_oracle():
    """All binary traces len <= 4, single input, bound 3: equals the naive oracle, < 60 s."""
    mismatches = []
    start = time.perf_counter()
    n_traces = 0
    for length in range(1, 5):
        for outputs in itertools.product((0, 1), repeat=length):
            n_traces += 1
            trace = Trace(outputs, output_alphabet=(0, 1))
            found = enumerate_consistent(trace, 3)
            word = tuple(0 for _ in range(length - 1))
            oracle = naive_enumerate(word, outputs, 3, n_inputs=1, n_outputs=2)
            if len(found) != len(oracle):
                mismatches.append((outputs, len(found), len(oracle)))
                continue
            for machine in found:
                bare = machine_as_tuple(machine)
                hits = sum(1 for rep in oracle if naive_equivalent(bare, rep, 1))
                if hits != 1:
                    mismatches.append((outputs, "machine matched", hits))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    _verdict(
        "criterion 2 (enumeration equals naive oracle on all 30 binary traces)",
        ok,
        f"{elapsed:.2f}s < 60s",
    )
    assert ok, mismatches[:3] or f"too slow: {elapsed:.2f}s"
    assert n_traces == 30


def test_criterion_3_multiplicity_grows_with_bound():
    """50 random traces: counts nondecreasing over bounds 1..4, strictly up at least once."""
    rng = random.Random(451)
    problems = []
    for i in range(50):
        two_inputs = i % 5 < 2
        trace = _random_trace(
            rng,
            max_len=3,
            n_outputs=2 if two_inputs else rng.choice((2, 3)),
            two_inputs=two_inputs,
        )
        counts = [len(enumerate_consistent(trace, bound)) for bound in (1, 2, 3, 4)]
        if any(counts[n] > counts[n + 1] for n in range(3)):
            problems.append((trace, counts, "decreasing"))
        if not any(counts[n] < counts[n + 1] for n in range(3)):
            problems.append((trace, counts, "never strictly increases"))
    ok = not problems
    _verdict("criterion 3 (consistent-machine count grows with the state bound)", ok)
    assert ok, problems[:3]


def test_criterion_4_chsh():
    """Singlet CHSH = -2*sqrt(2) at the canonical angles; LHV max 2 with 8 achievers; < 1 s."""
    start = time.perf_counter()
    angles = {"a": 0.0, "a_prime": math.pi / 2.0, "b": math.pi / 4.0, "b_prime": 3.0 * math.pi / 4.0}
    s_value = chsh_value(singlet(), angles)
    lhv = list(lhv_chsh_table().values())
    grid_dev = max(
        abs(correlator(singlet(), x, y) - (-math.cos(x - y)))
        for x in (2.0 * math.pi * i / 10.0 for i in range(10))
        for y in (2.0 * math.pi * j / 10.0 for j in range(10))
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(s_value - (-TSIRELSON)) <= 1e-9
        and len(lhv) == 16
        and set(lhv) == {-2, 2}
        and lhv.count(2) == 8
        and grid_dev <= 1e-9
        and elapsed < 1.0
    )
    _verdict(
        "criterion 4 (CHSH -2*sqrt(2); LHV bound 2 with 8 achievers; 100-point grid)",
        ok,
        f"S={s_value:.12f}, grid dev={grid_dev:.2e}, {elapsed:.3f}s < 1s",
    )
    assert ok, (s_value, lhv, grid_dev, elapsed)


def test_criterion_5_kochen_specker():
    """Peres-Mermin products +I,+I,+I / +I,+I,-I within 1e-12; 0 of 512 assignments; < 1 s."""
    start = time.perf_counter()
    report = kochen_specker_check()
    elapsed = time.perf_counter() - start
    ok = (
        report["row_signs"] == [1, 1, 1]
        and report["col_signs"] == [1, 1, -1]
        and report["max_product_deviation"] <= 1e-12
        and report["satisfying_assignments"] == 0
        and report["assignment_count"] == 512
        and elapsed < 1.0
    )
    _verdict(
        "criterion 5 (contextuality: signed identities exact, 0/512 assignments)",
        ok,
        f"max dev={report['max_product_deviation']:.2e}, {elapsed:.3f}s < 1s",
    )
    assert ok, report


def test_criterion_6_no_cloning_gap():
    """Gap 0 for identical/orthogonal pairs, > 0 for 100 random pairs, 0.24 at overlap 0.6."""
    rng = np.random.default_rng(88)
    psi = random_state(2, rng)
    degenerate_dev = max(
        abs(no_cloning_gap(basis_state(2, 0), basis_state(2, 0))),
        abs(no_cloning_gap(basis_state(2, 0), basis_state(2, 1))),
        abs(no_cloning_gap(psi, psi)),
    )
    random_gaps = [no_cloning_gap(random_state(2, rng), random_state(2, rng)) for _ in range(100)]
    frozen = no_cloning_gap(basis_state(2, 0), StateVector(np.array([0.6, 0.8], dtype=complex)))
    ok = degenerate_dev <= 1e-12 and all(g > 0 for g in random_gaps) and frozen == 0.24
    _verdict(
        "criterion 6 (no-cloning gap: zero iff degenerate, 0.24 at overlap 0.6)",
        ok,
        f"degenerate dev={degenerate_dev:.2e}, frozen gap={frozen!r}",
    )
    assert ok, (degenerate_dev, min(random_gaps), frozen)


def test_criterion_7_lifting_identity():
    """Adding an uncoupled factor never moves any outcome probability (100 triples)."""
    rng = np.random.default_rng(19)
    dims = ((2, 2), (2, 3), (3, 2))
    worst = 0.0
    for k in range(100):
        dim_a, dim_b = dims[k % 3]
        rho = random_density(dim_a, rng)
        sigma = random_density(dim_b, rng)
        if k % 2 == 0:
            povm = basis_povm(dim_a)
        else:
            ket = np.array(random_state(dim_a, rng).amplitudes)
            proj = np.outer(ket, ket.conj())
            povm = Povm(
                effects=(Effect(proj), Effect(np.eye(dim_a) - proj)), labels=("hit", "miss")
            )
        base = born_distribution(rho, povm)
        lifted = born_distribution(tensor(rho, sigma), lift_povm(povm, dim_b))
        worst = max(worst, max(abs(p - q) for p, q in zip(base, lifted)))
    ok = worst <= 1e-12
    _verdict("criterion 7 (lifted measurements keep identical statistics)", ok, f"worst dev={worst:.2e}")
    assert ok, worst


def test_criterion_8_geiger_scenario():
    """The two stock sources yield equal counter outcomes; saturation clamps at 100."""
    detector = DetectorConfig(aperture_diameter=2.0, efficiency=0.008, saturation=100)
    near = geiger_outcome(SourceConfig(activity=3.7e6, distance=100.0), detector)
    far = geiger_outcome(SourceConfig(activity=1.48e7, distance=200.0), detector)
    clamped = geiger_outcome(SourceConfig(activity=1.0e12, distance=1.0), detector)
    ok = near == far and clamped == 100
    _verdict(
        "criterion 8 (equal outcomes for the exchanged sources; saturation at 100)",
        ok,
        f"outcomes {near}/{far}, clamped {clamped}",
    )
    assert ok, (near, far, clamped)


def test_criterion_9_cli_determinism(tmp_path):
    """Identical CLI invocations produce byte-identical output."""
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(
        json.dumps({"steps": [{"output": 0}, {"output": 1}], "output_alphabet": [0, 1]})
    )
    commands = [
        ["chsh", "--samples", "250", "--seed", "11"],
        ["geiger", "--samples", "64"],
        ["enumerate", str(trace_path), "--max-states", "3"],
    ]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    problems = []
    for argv in commands:
        cmd = [sys.executable, "-m", "moorelimit", *argv]
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        if first.stdout != second.stdout:
            problems.append(argv[0])
    ok = not problems
    _verdict("criterion 9 (byte-identical reports on repeated runs)", ok)
    assert ok, problems
