import itertools
import random

import pytest

from moorelimit import (
    Trace,
    consistent,
    consistent_encodings,
    enumerate_consistent,
    equivalent,
    minimize,
)

from oracle import machine_as_tuple, naive_consistent, naive_enumerate, naive_equivalent


def test_two_step_binary_trace_bound_two():
    machines = enumerate_consistent(Trace((0, 1)), 2)
    assert len(machines) == 2
    tables = {m.transition for m in machines}
    # one repeats 0,1,0,1,... the other absorbs into 1,1,1,...
    assert tables == {((1,), (0,)), ((1,), (1,))}
    for m in machines:
        assert consistent(m, Trace((0, 1)))


def test_single_record_singleton_alphabet():
    machines = enumerate_consistent(Trace((0,), output_alphabet=(0,)), 1)
    assert len(machines) == 1
    assert machines[0].output == (0,)


def test_single_record_binary_alphabet_bound_one():
    machines = enumerate_consistent(Trace((0,), output_alphabet=(0, 1)), 1)
    assert len(machines) == 1
    assert machines[0].output == (0,)


def test_bound_too_small_yields_empty():
    assert enumerate_consistent(Trace((0, 1)), 1) == []


def test_bound_must_be_positive():
    with pytest.raises(ValueError):
        enumerate_consistent(Trace((0, 1)), 0)


def test_results_are_canonical_sorted_and_consistent():
    trace = Trace((0, 1, 1, 0))
    machines = enumerate_consistent(trace, 3)
    encodings = consistent_encodings(trace, 3)
    assert len(encodings) == len(machines)
    assert encodings == sorted(encodings)
    assert len(set(encodings)) == len(encodings)
    for m in machines:
        assert consistent(m, trace)
        assert m.state_count <= 3
        assert minimize(m) == m  # reported machines are already minimal canonical forms


def test_pairwise_inequivalent():
    machines = enumerate_consistent(Trace((0, 0, 1)), 3)
    for a, b in itertools.combinations(machines, 2):
        assert not equivalent(a, b)


def test_counts_nondecreasing_in_bound():
    rng = random.Random(31)
    for _ in range(25):
        n_out = rng.choice([2, 3])
        outputs = tuple(rng.randrange(n_out) for _ in range(rng.randint(1, 5)))
        trace = Trace(outputs, output_alphabet=tuple(range(n_out)))
        counts = [len(enumerate_consistent(trace, n)) for n in (1, 2, 3)]
        assert counts[0] <= counts[1] <= counts[2]


def _oracle_matches(trace_outputs, max_states, n_outputs, trace_inputs=(), n_inputs=1):
    """Package enumeration vs the bare-tuple oracle, matched by the oracle's own equivalence."""
    trace = Trace(
        tuple(trace_outputs),
        tuple("ab"[i] for i in trace_inputs) if trace_inputs else None,
        output_alphabet=tuple(range(n_outputs)),
        input_alphabet=tuple("ab"[:n_inputs]),
    )
    result = enumerate_consistent(trace, max_states)
    reps = naive_enumerate(
        list(trace_inputs) or [0] * (len(trace_outputs) - 1),
        list(trace_outputs),
        max_states,
        n_inputs,
        n_outputs,
    )
    assert len(result) == len(reps)
    for m in result:
        bare = machine_as_tuple(m)
        matches = sum(1 for rep in reps if naive_equivalent(bare, rep, n_inputs))
        assert matches == 1
    return len(result)


def test_matches_naive_oracle_on_binary_traces():
    for length in (1, 2, 3):
        for outputs in itertools.product((0, 1), repeat=length):
            _oracle_matches(outputs, 3, 2)


def test_matches_naive_oracle_with_two_inputs():
    _oracle_matches((0, 1, 0), 2, 2, trace_inputs=(0, 1), n_inputs=2)
    _oracle_matches((1, 1), 3, 2, trace_inputs=(1,), n_inputs=2)


def test_matches_naive_oracle_ternary_outputs():
    _oracle_matches((0, 2), 2, 3)
    _oracle_matches((2, 1, 1), 3, 3)


def test_machines_cover_unrecorded_behavior():
    # with a binary output alphabet even a constant trace admits divergent machines
    machines = enumerate_consistent(Trace((0, 0), output_alphabet=(0, 1)), 3)
    futures = set()
    for m in machines:
        state = m.initial
        outs = [m.output[state]]
        for _ in range(8):  # beyond the 3x3 product bound, so equal futures = equivalent
            state = m.transition[state][0]
            outs.append(m.output[state])
        futures.add(tuple(outs))
    assert len(futures) == len(machines)  # distinct minimal machines, single input: futures differ
    assert all(f[:2] == (0, 0) for f in futures)
    assert any(1 in f for f in futures)


def test_oracle_helpers_self_check():
    toggle = (2, 0, ((1,), (0,)), (0, 1))
    absorber = (2, 0, ((1,), (1,)), (0, 1))
    assert naive_consistent(toggle, [0], [0, 1])
    assert naive_consistent(absorber, [0], [0, 1])
    assert not naive_equivalent(toggle, absorber, 1)
    assert naive_equivalent(toggle, (4, 0, ((1,), (2,), (3,), (0,)), (0, 1, 0, 1)), 1)
