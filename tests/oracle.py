"""Naive reference implementations, kept deliberately independent of the package.

Machines here are bare tuples ``(n_states, initial, delta, lam)`` with integer
symbols: ``delta[s][i]`` is the successor of state ``s`` under input index
``i`` and ``lam[s]`` the output index of ``s``.  Enumeration walks every table
over every state count and every initial state, filters by direct simulation,
and dedupes by pairwise behavioral comparison over exhaustively many words.
Exponential in everything; only usable on tiny instances, which is the point.
``reference_encodings`` reaches two inputs at four states: it lists every
canonical table without pruning by the trace, simulates each output vector
and minimizes it by Moore's rounds on plain lists.
"""

import itertools

NaiveMachine = tuple


def naive_run(machine, word):
    n, initial, delta, lam = machine
    state = initial
    outputs = [lam[state]]
    for sym in word:
        state = delta[state][sym]
        outputs.append(lam[state])
    return outputs


def naive_consistent(machine, trace_inputs, trace_outputs):
    return naive_run(machine, trace_inputs) == list(trace_outputs)


def naive_equivalent(m1, m2, n_inputs):
    """Exhaustive word comparison; words up to n1*n2 steps decide equivalence."""
    bound = m1[0] * m2[0]
    for length in range(bound + 1):
        for word in itertools.product(range(n_inputs), repeat=length):
            if naive_run(m1, word) != naive_run(m2, word):
                return False
    return True


def all_machines(n_states, n_inputs, n_outputs):
    rows = list(itertools.product(range(n_states), repeat=n_inputs))
    for initial in range(n_states):
        for delta in itertools.product(rows, repeat=n_states):
            for lam in itertools.product(range(n_outputs), repeat=n_states):
                yield (n_states, initial, delta, lam)


def naive_enumerate(trace_inputs, trace_outputs, max_states, n_inputs, n_outputs):
    """Generate, filter by simulation, dedupe by pairwise equivalence."""
    representatives = []
    for n in range(1, max_states + 1):
        for machine in all_machines(n, n_inputs, n_outputs):
            if not naive_consistent(machine, trace_inputs, trace_outputs):
                continue
            if any(naive_equivalent(machine, rep, n_inputs) for rep in representatives):
                continue
            representatives.append(machine)
    return representatives


def machine_as_tuple(machine):
    """Project a package Machine onto the bare-tuple form (symbols -> indices)."""
    out_index = {sym: i for i, sym in enumerate(machine.output_alphabet)}
    delta = tuple(tuple(row) for row in machine.transition)
    lam = tuple(out_index[sym] for sym in machine.output)
    return (machine.state_count, machine.initial, delta, lam)


def canonical_tables(max_states, n_inputs):
    """Every flat table whose states a breadth-first walk from state 0 numbers in order.

    Depth-first over the slots in (state, input) order: a slot's target is a
    state already discovered or, while fewer than ``max_states`` exist, the
    next new one.  Yields ``(n, flat)`` in increasing target order.
    """
    flat = []

    def walk(n):
        if len(flat) == n * n_inputs:
            yield n, tuple(flat)
            return
        for target in range(min(n + 1, max_states)):
            flat.append(target)
            yield from walk(max(n, target + 1))
            flat.pop()

    yield from walk(1)


def moore_blocks(n, n_inputs, flat, lam):
    """Number of Moore-equivalence classes, by rounds of list signatures from the outputs."""
    block = list(lam)
    while True:
        rows = [[block[s]] + [block[flat[s * n_inputs + i]] for i in range(n_inputs)] for s in range(n)]
        distinct = []
        for row in rows:
            if row not in distinct:
                distinct.append(row)
        new = [distinct.index(row) for row in rows]
        if len(distinct) == len(set(block)):
            return len(distinct)
        block = new


def reference_encodings(trace_inputs, trace_outputs, max_states, n_inputs, n_outputs):
    """Sorted ``(n, flat, lam)`` of every minimal canonical machine that reproduces the trace."""
    found = []
    for n, flat in canonical_tables(max_states, n_inputs):
        for lam in itertools.product(range(n_outputs), repeat=n):
            state, outputs = 0, [lam[0]]
            for sym in trace_inputs:
                state = flat[state * n_inputs + sym]
                outputs.append(lam[state])
            if outputs == list(trace_outputs) and moore_blocks(n, n_inputs, flat, lam) == n:
                found.append((n, flat, lam))
    return sorted(found)
