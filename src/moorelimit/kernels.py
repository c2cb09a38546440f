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

Slots fill in (state, input) order, so each size's tables that share every
row but the last, their *head*, complete one after another.  Moore's first
round reads a state's output and its successors' outputs, so for every state
but the last it depends on the head alone: it is taken once per head and
output vector, and :func:`refine` runs only where it leaves the answer open.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

#: The search is plain Python; benchmark records name it so runs compare.
BACKEND = "python"


def refine(succ, k, lam) -> list[int]:
    """Coarsest partition of the states that respects outputs and transitions.

    ``succ`` is the table's one row-major lookup, ``itemgetter(*delta)`` of
    its flat transition table, and ``k`` the number of inputs: ``succ(block)``
    is the tuple of the blocks every state steps into, state ``s`` under input
    ``i`` at ``s * k + i``.  It depends on the table alone, so one lookup
    serves every output vector of a table.  ``lam`` is the output index of
    each state.  States start grouped by ``lam`` and are split until every
    block's members step into the same blocks under every input (Moore 1956).
    ``lam`` may be any labelling between the output partition and Moore
    equivalence, such as the search's first-round blocks: Moore's rounds from
    any such partition reach the same fixpoint.  Returns the block of each
    state, blocks numbered in order of their first state; two states share a
    block exactly when no experiment distinguishes them.  Once every state is
    alone, no pass can split further, so the result is ``list(range(n))`` at
    once: at ``n == 1`` before any round, where ``n * k`` can be 1 and
    ``itemgetter`` of one index gives a bare item.
    """
    n = len(lam)
    block = lam
    n_blocks = len(set(block))
    while n_blocks < n:
        row = iter(succ(block))
        sigs: dict[tuple[int, ...], int] = {}
        new = [sigs.setdefault(sig, len(sigs)) for sig in zip(block, *[row] * k)]  # k successors per state
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
    every output.  A complete candidate is kept iff Moore's rounds leave
    every state in its own block.  Complete tables are queued per size and
    checked together when one with another head arrives, and when the search
    ends.  Per output vector, the head's first-round signatures are numbered
    once and each table adds its last state's: a candidate that round
    separates is kept, one whose output blocks it leaves whole is rejected,
    and any other is kept iff :func:`refine`, started from the first round,
    separates every state.  A table builds its one row-major successor lookup
    only if a candidate needs :func:`refine`, and the ``lam`` of each pattern
    of forced outputs are built once per search.  The result is sorted;
    equal ``n`` means equal ``len(delta)``, so it sorts as ``(n, *delta,
    *lam)`` would.
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
    # each size's complete tables of one head, every row but the last, in order
    queues: list[list[tuple]] = [[] for _ in range(n_states + 1)]

    def check(n: int, queue: list[tuple]) -> None:
        # Moore's first round, output vector by output vector: the head's
        # states are numbered once, then each table adds its last state.
        h = (n - 1) * k
        head = queue[0][0][:h]
        groups: dict[tuple[int, ...], list[int]] = {}
        for j, (_, pattern) in enumerate(queue):
            groups.setdefault(pattern, []).append(j)
        lasts = [itemgetter(n - 1, *flat[h:]) for flat, _ in queue]
        succs: list = [None] * len(queue)
        kept: list[list[tuple[int, ...]]] = [[] for _ in queue]
        for pattern, members in groups.items():
            candidates = completions.get(pattern)
            if candidates is None:
                choices = [range(n_outputs) if v < 0 else (v,) for v in pattern]
                candidates = completions[pattern] = list(itertools.product(*choices))
            for lam in candidates:
                row = map(lam.__getitem__, head)
                sigs: dict[tuple[int, ...], int] = {}
                ids = [sigs.setdefault(sig, len(sigs)) for sig in zip(lam, *[row] * k)]  # stops after state n - 2
                n_first = len(sigs)
                n_out = len(set(lam))
                for j in members:
                    last = sigs.get(lasts[j](lam), n_first)
                    n_blocks = n_first + (last == n_first)
                    if n_blocks == n:  # round 1 left every state alone
                        kept[j].append(lam)
                    elif n_blocks > n_out:  # round 1 split something but not everything
                        succ = succs[j]
                        if succ is None:
                            succ = succs[j] = itemgetter(*queue[j][0])
                        # blocks are numbered by first state: the last is n - 1 iff all are alone
                        if refine(succ, k, ids + [last])[-1] == n - 1:
                            kept[j].append(lam)
        by_size[n].extend((n, flat, lam) for (flat, _), lams in zip(queue, kept) for lam in lams)
        queue.clear()

    def complete(n: int) -> None:
        flat = tuple(delta[: n * k])
        queue = queues[n]
        if queue and queue[0][0][: (n - 1) * k] != flat[: (n - 1) * k]:
            check(n, queue)
        queue.append((flat, tuple(forced[:n])))

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
    for n, queue in enumerate(queues):
        if queue:
            check(n, queue)
    return [enc for bucket in by_size for enc in bucket]
