import gc
import random
import tracemalloc
from operator import itemgetter

import pytest

from moorelimit import kernels

from oracle import naive_enumerate, naive_equivalent, reference_encodings


def test_backend_is_reported():
    assert kernels.BACKEND == "python"
    assert callable(kernels.consistent_machine_encodings)


def test_known_counts_python_backend():
    # trace 0,1 over a binary output alphabet, single input
    assert len(kernels.consistent_machine_encodings(2, 1, 2, (0,), (0, 1))) == 2
    assert len(kernels.consistent_machine_encodings(1, 1, 2, (0,), (0, 1))) == 0
    assert len(kernels.consistent_machine_encodings(3, 1, 2, (0,), (0, 1))) == 5


def test_encoding_shape():
    encodings = kernels.consistent_machine_encodings(2, 1, 2, (0,), (0, 1))
    for m, delta, lam in encodings:  # the state count, the flattened delta and the outputs
        assert type(delta) is tuple and len(delta) == m * 1
        assert type(lam) is tuple and len(lam) == m
        assert all(0 <= t < m for t in delta)
        assert all(0 <= o < 2 for o in lam)


def test_encodings_share_tables_and_output_vectors():
    # the x,y,x trace at N=4: 6998 machines of 3482 tables; 6 patterns of forced outputs give 12 output vectors
    encodings = kernels.consistent_machine_encodings(4, 2, 2, (0, 1), (0, 1, 0))
    assert len(encodings) == 6998
    for a, b in zip(encodings, encodings[1:]):
        assert (a[1] is b[1]) == (a[1] == b[1])  # adjacent completions of one table hold one delta
    assert len({id(delta) for _, delta, _ in encodings}) == len({delta for _, delta, _ in encodings}) == 3482
    assert len({id(lam) for _, _, lam in encodings}) == 12  # each built once, though only 7 values differ


def test_search_refines_only_what_the_first_round_leaves_open(monkeypatch):
    """The x,y,x trace at N=4 completes 3746 tables with 9039 candidates between
    them.  Moore's first round, one signature per table on top of its head's,
    keeps 3958 candidates and rejects 464; only the other 4617 are refined, and
    only their 2918 tables build a successor lookup.  A change that checks
    tables one by one, or refines what round 1 settled, moves these counts."""
    last_state_calls, lookups_built, refined = [], [], []
    refine = kernels.refine

    def counting_itemgetter(*items):
        getter = itemgetter(*items)
        if len(items) == 3:  # a last state's signature: the state and its k = 2 successors
            return lambda lam: last_state_calls.append(1) or getter(lam)
        lookups_built.append(len(items))
        return getter

    def counting_refine(succ, k, block):
        result = refine(succ, k, block)
        refined.append(result[-1] == len(block) - 1)
        return result

    monkeypatch.setattr(kernels, "itemgetter", counting_itemgetter)
    monkeypatch.setattr(kernels, "refine", counting_refine)
    encodings = kernels.consistent_machine_encodings(4, 2, 2, (0, 1), (0, 1, 0))
    assert len(encodings) == 6998
    assert len(last_state_calls) == 9039
    assert len(lookups_built) == 2918 and min(lookups_built) >= 4  # never for a lone state
    assert len(refined) == 4617
    kept_by_round_1 = len(encodings) - sum(refined)
    assert kept_by_round_1 == 3958
    assert len(last_state_calls) - len(refined) - kept_by_round_1 == 464


def test_search_peak_memory_holds_shared_tuples():
    # trace 0,1 at N=10: 2215 behaviors, about 480 kB of peak when each was one flat tuple of its own
    gc.collect()
    tracemalloc.start()
    try:
        encodings = kernels.consistent_machine_encodings(10, 1, 2, (0,), (0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(encodings) == 2215
    assert peak < 360 * 1024


def test_search_leaves_no_cycle_behind():
    """Its table, forced outputs and completions are freed on return, not at the next collection."""
    gc.collect()
    gc.disable()
    try:
        kernels.consistent_machine_encodings(3, 1, 2, (0,), (0, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_counts_match_oracle_on_random_instances():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 3)
        ni = rng.randint(1, 2) if n < 3 else 1  # the oracle takes seconds at N=3 with two inputs
        no = rng.randint(1, 3)
        length = rng.randint(1, 5)
        outs = tuple(rng.randrange(no) for _ in range(length))
        ins = tuple(rng.randrange(ni) for _ in range(length - 1))
        encodings = kernels.consistent_machine_encodings(n, ni, no, ins, outs)
        assert all(a < b for a, b in zip(encodings, encodings[1:]))  # sorted, no duplicates
        reps = naive_enumerate(ins, outs, n, ni, no)
        for bound in range(1, n + 1):
            assert sum(enc[0] <= bound for enc in encodings) == sum(
                rep[0] <= bound for rep in reps
            )


def lookups(delta):
    """The one row-major successor getter of a table, as the search and ``minimize`` build it."""
    return itemgetter(*[t for row in delta for t in row])


def assert_refine_matches_oracle(delta, lam, succ=None):
    """``refine`` groups exactly the states the oracle finds equivalent, blocks numbered by first state."""
    n, k = len(lam), len(delta[0])
    block = kernels.refine(lookups(delta) if succ is None else succ, k, list(lam))
    assert len(block) == n
    for s in range(n):
        for t in range(s + 1, n):
            same = naive_equivalent((n, s, delta, lam), (n, t, delta, lam), k)
            assert (block[s] == block[t]) == same, (delta, lam, s, t)
    firsts = list(dict.fromkeys(block))
    assert firsts == list(range(len(firsts))), (delta, lam, block)


@pytest.mark.parametrize(
    "delta, lam",
    [
        (((0,), (1,)), (0, 2)),
        (((1,), (2,), (0,)), (2, 2, 0)),
        (((1, 2), (0, 2), (2, 2)), (2, 2, 0)),
        (((1,), (0,), (2,)), (5, 5, 5)),
        (((0,),), (3,)),
    ],
)
def test_refine_renumbers_any_output_indices(delta, lam):
    assert_refine_matches_oracle(delta, lam)


def test_refine_reads_successors_row_major():
    """State 2 steps into state 1 under input 0, so it is not state 0's twin; read
    column by column, the same flat table would make states 0 and 2 alike."""
    delta, lam = ((0, 0), (0, 0), (1, 0)), (0, 1, 0)
    assert_refine_matches_oracle(delta, lam)
    assert kernels.refine(lookups(delta), 2, lam) == [0, 1, 2]
    column_major = itemgetter(*[row[i] for i in range(2) for row in delta])
    assert kernels.refine(column_major, 2, lam) == [0, 1, 0]


@pytest.mark.parametrize("k", [1, 3])
def test_refine_of_one_state_runs_no_round(k):
    """An itemgetter of one index gives a bare item, so a lone state must return before any lookup."""

    def never(block):
        raise AssertionError("refine looked up successors of a lone state")

    assert kernels.refine(never, k, (3,)) == [0]
    assert kernels.refine(lookups(((0,) * k,)), k, [0]) == [0]


def test_refine_reuses_one_lookup_across_output_vectors():
    """The search refines every output vector of a table through the same lookup."""
    rng = random.Random(2007)
    for _ in range(40):
        k = rng.randint(1, 3)
        n = rng.randint(2, 5 if k == 1 else 3)
        delta = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
        succ = lookups(delta)
        for _ in range(6):
            assert_refine_matches_oracle(delta, tuple(rng.randrange(3) for _ in range(n)), succ)


def test_refine_matches_naive_equivalence_on_random_machines():
    rng = random.Random(1956)
    for _ in range(150):
        k = rng.randint(1, 3)
        # the oracle compares every word up to n * n steps long, k ** (n * n) of them
        n = rng.randint(1, 5 if k == 1 else 3)
        codes = rng.choice([(0, 1), (0, 2), (2, 0, 7), (1,)])
        delta = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
        lam = tuple(rng.choice(codes) for _ in range(n))
        assert_refine_matches_oracle(delta, lam)


def first_round(delta, lam):
    """Moore's first round: each state's output and its successors' outputs, blocks numbered by first state."""
    sigs = {}
    return [sigs.setdefault((lam[s],) + tuple(lam[t] for t in row), len(sigs)) for s, row in enumerate(delta)]


def test_refine_from_the_first_round_reaches_the_same_blocks():
    """The search starts ``refine`` from the first-round partition, not from the outputs."""
    rng = random.Random(1956)
    chain = tuple((min(s + 1, 7),) for s in range(8)), (0,) * 7 + (1,)  # each round parts one more state
    cases = [(((0,),), (0,)), chain]  # one state runs no round
    for _ in range(300):
        k = rng.randint(1, 3)
        n = rng.randint(1, 8)
        no = rng.randint(1, 3)
        delta = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
        cases.append((delta, tuple(rng.randrange(no) for _ in range(n))))
    for delta, lam in cases:
        succ, k = lookups(delta), len(delta[0])
        assert kernels.refine(succ, k, first_round(delta, lam)) == kernels.refine(succ, k, lam), (delta, lam)


def test_search_matches_the_reference_search():
    """The kernel's list, order included, against an independent canonical-table search."""
    xyx = kernels.consistent_machine_encodings(4, 2, 2, (0, 1), (0, 1, 0))
    assert xyx == reference_encodings((0, 1), (0, 1, 0), 4, 2, 2)
    rng = random.Random(2007)
    for _ in range(20):
        ni = rng.randint(2, 3)
        n = rng.randint(2, 4 if ni == 2 else 3)
        no = rng.randint(1, 3 if ni == 2 else 2)
        length = rng.randint(2, 6)
        outs = tuple(rng.randrange(no) for _ in range(length))
        ins = tuple(rng.randrange(ni) for _ in range(length - 1))
        assert kernels.consistent_machine_encodings(n, ni, no, ins, outs) == reference_encodings(
            ins, outs, n, ni, no
        ), (ins, outs, n, ni, no)
