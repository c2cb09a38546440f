"""Enumeration search: every minimal machine that reproduces a trace.

Everything here works on integer-indexed alphabets: inputs are indices into
the input alphabet, outputs indices into the output alphabet.  A machine with
``n`` states is encoded as the triple ``(n, delta, lam)``: ``delta`` is the
flat transition table as a tuple (``delta[s * n_inputs + i]`` is the successor
of state ``s`` under input ``i``) and ``lam`` the tuple of each state's output.
The search shares these tuples: every kept completion of one table holds the
same ``delta`` object, and the completions of every table with the same
forced outputs draw their ``lam`` from one list of tuples.

The search generates transition tables that are already in canonical form:
every state is reachable from state 0 and the states are numbered in the
order a breadth-first walk from state 0 discovers them, inputs taken in
alphabet order (Almeida, Moreira & Reis, TCS 387, 2007).  Each minimal
machine has exactly one such table, so a candidate that reproduces the trace
and whose states are pairwise distinguishable is a new behavior: no
minimization and no deduplication are needed.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

#: The search is plain Python; benchmark records name it so runs compare.
BACKEND = "python"


def refine(steps, lam) -> list[int]:
    """Coarsest partition of the states that respects outputs and transitions.

    ``steps`` holds one lookup per input, ``itemgetter(*column)`` of its
    successor column, so ``steps[i](block)`` is the tuple of the blocks the
    states step into under input ``i``; it depends on the table alone, so
    one set serves every output vector of a table.  ``lam`` is the output
    index of each state.  States start grouped by output and are split until
    every block's members step into the same blocks under every input (Moore
    1956).  Returns the block of each state, blocks numbered in order of
    their first state; two states share a block exactly when no experiment
    distinguishes them.  Once every state is alone, no pass can split
    further, so the result is ``list(range(n))`` at once: at ``n == 1``
    before any round, where ``itemgetter`` of one index gives a bare item.
    """
    n = len(lam)
    block = lam
    n_blocks = len(set(block))
    while n_blocks < n:
        sigs: dict[tuple[int, ...], int] = {}
        new = [
            sigs.setdefault(sig, len(sigs))
            for sig in zip(block, *[step(block) for step in steps])
        ]
        if len(sigs) == n_blocks:
            return new
        block = new
        n_blocks = len(sigs)
    return list(range(n))


def consistent_machine_encodings(
    n_states: int,
    n_inputs: int,
    n_outputs: int,
    trace_inputs: tuple[int, ...],
    trace_outputs: tuple[int, ...],
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Encodings of all distinct behaviors with <= n_states states matching the trace.

    The flat table is filled one slot at a time in (state, input) order.  A
    slot's target is a state discovered so far or, while fewer than
    ``n_states`` exist, the next new one; the table is complete once every
    discovered state's row is filled.  After each slot the trace is replayed
    as far as the filled slots allow, and a state forced to two different
    outputs prunes the whole subtree.  States the trace never visits take
    every output.  A complete candidate is kept iff :func:`refine` leaves
    every state in its own block; each complete table builds its successor
    lookups once for all its candidates, and the ``lam`` of each pattern of
    forced outputs are built once per search.  The result is sorted; equal
    ``n`` means equal ``len(delta)``, so it sorts as ``(n, *delta, *lam)`` would.
    """
    if min(n_states, n_inputs, n_outputs) < 1:
        raise ValueError("state and alphabet sizes must be >= 1")
    if len(trace_outputs) != len(trace_inputs) + 1:
        raise ValueError("trace must have exactly one more output than inputs")
    k = n_inputs
    n_steps = len(trace_inputs)
    delta = [0] * (n_states * k)
    forced = [-1] * n_states
    forced[0] = trace_outputs[0]
    # Depth-first search in increasing target order yields each size's
    # tables in lexicographic order, so one list per size is already sorted.
    by_size: list[list[tuple]] = [[] for _ in range(n_states + 1)]
    completions: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # forced outputs -> every lam, in order

    def complete(n: int) -> None:
        flat = tuple(delta[: n * k])
        steps = [itemgetter(*flat[i::k]) for i in range(k)]  # shared by every lam below
        pattern = tuple(forced[:n])
        candidates = completions.get(pattern)
        if candidates is None:
            choices = [range(n_outputs) if v < 0 else (v,) for v in pattern]
            candidates = completions[pattern] = list(itertools.product(*choices))
        kept = by_size[n]
        for lam in candidates:
            # blocks are numbered by first state: the last is n - 1 iff all are alone
            if refine(steps, lam)[-1] == n - 1:
                kept.append((n, flat, lam))

    def fill(slot: int, n: int, pos: int, state: int) -> None:
        # ``pos`` trace steps are replayed and end in ``state``; ``n`` states
        # are discovered and slots below ``slot`` are filled.
        newly_forced = []
        contradicted = False
        while pos < n_steps:
            i = state * k + trace_inputs[pos]
            if i >= slot:
                break
            state = delta[i]
            pos += 1
            have = forced[state]
            if have < 0:
                forced[state] = trace_outputs[pos]
                newly_forced.append(state)
            elif have != trace_outputs[pos]:
                contradicted = True
                break
        if not contradicted:
            if slot == n * k:
                complete(n)
            else:
                for target in range(min(n + 1, n_states)):
                    delta[slot] = target
                    fill(slot + 1, n + (target == n), pos, state)
        for s in newly_forced:
            forced[s] = -1

    try:
        fill(0, 1, 0, 0)
    finally:
        del fill  # it refers to itself, so the search's state would wait for the cycle collector
    return [enc for bucket in by_size for enc in bucket]
