import copy
import itertools
import random

import pytest

from moorelimit import (
    AlphabetError,
    DegenerateAlphabetError,
    Experiment,
    Machine,
    Trace,
    canonical_form,
    consistent,
    distinguishing_experiment,
    equivalent,
    minimize,
    run,
    run_experiment,
    trace_to_fsm,
    witness_moore,
)

from oracle import machine_as_tuple, naive_equivalent


def constant(value=0, alphabet=(0, 1)):
    return Machine(
        state_count=1,
        input_alphabet=("a",),
        output_alphabet=alphabet,
        transition=((0,),),
        output=(value,),
    )


def toggle():
    return Machine(
        state_count=2,
        input_alphabet=("a",),
        output_alphabet=(0, 1),
        transition=((1,), (0,)),
        output=(0, 1),
    )


def toggle_unrolled():
    # four states walking 0 -> 1 -> 2 -> 3 -> 0 with outputs 0,1,0,1
    return Machine(
        state_count=4,
        input_alphabet=("a",),
        output_alphabet=(0, 1),
        transition=((1,), (2,), (3,), (0,)),
        output=(0, 1, 0, 1),
    )


def random_machine(rng, n_states=None, n_inputs=None, n_outputs=None):
    n = n_states or rng.randint(1, 5)
    ni = n_inputs or rng.randint(1, 2)
    no = n_outputs or rng.randint(1, 3)
    inputs = tuple("abc"[:ni])
    outputs = tuple(range(no))
    return Machine(
        state_count=n,
        input_alphabet=inputs,
        output_alphabet=outputs,
        transition=tuple(
            tuple(rng.randrange(n) for _ in range(ni)) for _ in range(n)
        ),
        output=tuple(rng.randrange(no) for _ in range(n)),
        initial=rng.randrange(n),
    )


# ---------------------------------------------------------------------------
# run / consistency


def test_run_constant_machine():
    assert run(constant(), "aa") == [0, 0, 0]


def test_run_toggle_machine():
    assert run(toggle(), "aa") == [0, 1, 0]


def test_run_empty_word_emits_initial_output():
    assert run(toggle(), ()) == [0]


def test_run_rejects_unknown_input():
    with pytest.raises(AlphabetError):
        run(toggle(), "ax")


def test_run_length_property():
    rng = random.Random(7)
    for _ in range(200):
        m = random_machine(rng)
        word = tuple(
            m.input_alphabet[rng.randrange(len(m.input_alphabet))]
            for _ in range(rng.randint(0, 8))
        )
        outs = run(m, word)
        assert len(outs) == len(word) + 1
        assert all(sym in m.output_alphabet for sym in outs)


def test_consistent_true_and_false():
    assert consistent(constant(), Trace((0, 0)))
    assert not consistent(constant(), Trace((0, 1)))
    assert consistent(toggle(), Trace((0, 1, 0)))


def test_consistent_rejects_foreign_symbol():
    with pytest.raises(AlphabetError):
        consistent(constant(alphabet=(0,)), Trace((0, 7)))


def test_run_experiment_fresh_copies():
    exp = Experiment((("a",), ("a", "a")))
    assert run_experiment(toggle(), exp) == [[0, 1], [0, 1, 0]]


# ---------------------------------------------------------------------------
# equivalence / distinguishing experiments


def test_minimize_preserves_behavior():
    assert equivalent(toggle_unrolled(), minimize(toggle_unrolled()))


def test_constants_with_different_outputs_differ():
    assert not equivalent(constant(0), constant(1))


def test_toggle_equivalent_to_unrolling():
    assert equivalent(toggle(), toggle_unrolled())


def test_equivalent_requires_shared_alphabets():
    other = Machine(
        state_count=1,
        input_alphabet=("b",),
        output_alphabet=(0, 1),
        transition=((0,),),
        output=(0,),
    )
    with pytest.raises(AlphabetError):
        equivalent(constant(), other)


def test_distinguishing_empty_word_when_initial_outputs_differ():
    exp = distinguishing_experiment(constant(0), constant(1))
    assert exp == Experiment(((),))


def test_distinguishing_none_for_equivalent_machines():
    assert distinguishing_experiment(toggle(), toggle_unrolled()) is None


def test_distinguishing_prefers_alphabet_order_on_ties():
    # successor under either input gives away the difference at depth 1;
    # the reported word must use the first input symbol
    flat = Machine(
        state_count=1,
        input_alphabet=("a", "b"),
        output_alphabet=(0, 1),
        transition=((0, 0),),
        output=(0,),
    )
    forked = Machine(
        state_count=2,
        input_alphabet=("a", "b"),
        output_alphabet=(0, 1),
        transition=((1, 1), (1, 1)),
        output=(0, 1),
    )
    assert distinguishing_experiment(flat, forked) == Experiment((("a",),))


def test_distinguishing_word_is_minimal():
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        a = random_machine(rng, n_outputs=2)
        b = random_machine(rng, n_outputs=2)
        if set(a.input_alphabet) != set(b.input_alphabet):
            continue
        exp = distinguishing_experiment(a, b)
        if exp is None:
            # Moore's bound: distinguishable machines are separated by a word
            # of length <= |a| + |b| - 2, so agreement on all of them is
            # equivalence, checked here without the product-machine search.
            bound = a.state_count + b.state_count - 2
            for length in range(bound + 1):
                for word in itertools.product(a.input_alphabet, repeat=length):
                    assert run(a, word) == run(b, word)
            continue
        found += 1
        (word,) = exp.words
        assert run(a, word) != run(b, word)
        # no strictly shorter word separates
        shorter = []
        frontier = [()]
        for _ in range(len(word)):
            shorter.extend(frontier)
            frontier = [w + (sym,) for w in frontier for sym in a.input_alphabet]
        for w in shorter:
            assert run(a, w) == run(b, w)
    assert found > 50


def first_separating_word(a, b):
    """The first word in (length, input-alphabet) order on which a and b disagree,
    tried up to Moore's bound |a| + |b| - 2, or None if none of them does."""
    for length in range(a.state_count + b.state_count - 1):
        for word in itertools.product(a.input_alphabet, repeat=length):
            if run(a, word) != run(b, word):
                return word
    return None


def test_distinguishing_word_matches_brute_force():
    rng = random.Random(29)
    separated = 0
    for _ in range(200):
        a = random_machine(rng, n_inputs=2, n_outputs=2)
        b = random_machine(rng, n_inputs=2, n_outputs=2)
        expected = first_separating_word(a, b)
        exp = distinguishing_experiment(a, b)
        if expected is None:
            assert exp is None
        else:
            separated += 1
            assert exp == Experiment((expected,))
    assert separated > 50


# ---------------------------------------------------------------------------
# minimization / canonical forms


def test_minimize_collapses_output_equivalent_states():
    m = Machine(
        state_count=2,
        input_alphabet=("a",),
        output_alphabet=(0, 1),
        transition=((1,), (0,)),
        output=(0, 0),
    )
    assert minimize(m).state_count == 1


def test_minimize_keeps_minimal_machine():
    assert minimize(toggle()) == canonical_form(toggle())


def test_minimize_unrolled_toggle():
    small = minimize(toggle_unrolled())
    assert small.state_count == 2
    assert equivalent(small, toggle())


def test_minimize_idempotent_and_equivalent_on_random_machines():
    rng = random.Random(13)
    for _ in range(150):
        m = random_machine(rng)
        small = minimize(m)
        assert equivalent(m, small)
        again = minimize(small)
        assert again == small


def test_canonical_form_removes_unreachable_state():
    m = Machine(
        state_count=3,
        input_alphabet=("a",),
        output_alphabet=(0, 1),
        transition=((0,), (2,), (1,)),
        output=(0, 1, 1),
    )
    trimmed = canonical_form(m)
    assert trimmed.state_count == 1
    assert trimmed.output == (0,)


def test_canonical_form_renumbers_relabeled_machines_identically():
    reversed_toggle = Machine(
        state_count=2,
        input_alphabet=("a",),
        output_alphabet=(0, 1),
        transition=((1,), (0,)),
        output=(1, 0),
        initial=1,
    )
    assert canonical_form(reversed_toggle) == canonical_form(toggle())


def test_canonical_form_idempotent_on_random_machines():
    rng = random.Random(17)
    for _ in range(100):
        m = random_machine(rng)
        c = canonical_form(m)
        assert canonical_form(c) == c


def _renumbered(m, perm):
    """``m`` with state ``s`` renamed ``perm[s]``, the initial state moved along."""
    transition = [None] * m.state_count
    output = [None] * m.state_count
    for s in range(m.state_count):
        transition[perm[s]] = tuple(perm[t] for t in m.transition[s])
        output[perm[s]] = m.output[s]
    return Machine(
        state_count=m.state_count,
        input_alphabet=m.input_alphabet,
        output_alphabet=m.output_alphabet,
        transition=transition,
        output=output,
        initial=perm[m.initial],
    )


def test_minimize_is_minimal_canonical_and_blind_to_numbering():
    rng = random.Random(25)
    for _ in range(300):
        n_inputs = rng.randint(1, 3)  # three, so a successor read from the wrong row or column shows
        m = random_machine(rng, n_states=rng.randint(1, 5 if n_inputs == 1 else 3), n_inputs=n_inputs)
        small = minimize(m)
        assert canonical_form(small) == small
        # one state per oracle class among the states reachable from the initial one
        reachable = [m.initial]
        for s in reachable:
            for t in m.transition[s]:
                if t not in reachable:
                    reachable.append(t)
        n, _, delta, lam = machine_as_tuple(m)
        classes = []
        for s in reachable:
            if not any(naive_equivalent((n, s, delta, lam), (n, c, delta, lam), n_inputs) for c in classes):
                classes.append(s)
        assert small.state_count == len(classes)
        assert naive_equivalent(machine_as_tuple(m), machine_as_tuple(small), n_inputs)
        perm = list(range(m.state_count))
        rng.shuffle(perm)
        assert minimize(_renumbered(m, perm)) == small


# ---------------------------------------------------------------------------
# machine/trace validation


def test_machine_rejects_bad_transition_target():
    with pytest.raises(ValueError):
        Machine(
            state_count=1,
            input_alphabet=("a",),
            output_alphabet=(0,),
            transition=((1,),),
            output=(0,),
        )


def test_machine_rejects_short_transition_row():
    with pytest.raises(ValueError):
        Machine(
            state_count=1,
            input_alphabet=("a", "b"),
            output_alphabet=(0,),
            transition=((0,),),
            output=(0,),
        )


def test_machine_rejects_output_outside_alphabet():
    with pytest.raises(AlphabetError):
        Machine(
            state_count=1,
            input_alphabet=("a",),
            output_alphabet=(0,),
            transition=((0,),),
            output=(1,),
        )


def test_machine_rejects_bad_initial():
    with pytest.raises(ValueError):
        Machine(
            state_count=1,
            input_alphabet=("a",),
            output_alphabet=(0,),
            transition=((0,),),
            output=(0,),
            initial=1,
        )


def test_machine_rejects_duplicate_alphabet_symbols():
    with pytest.raises(ValueError):
        Machine(
            state_count=1,
            input_alphabet=("a", "a"),
            output_alphabet=(0,),
            transition=((0, 0),),
            output=(0,),
        )


def test_trace_requires_matching_input_length():
    with pytest.raises(ValueError):
        Trace((0, 1, 0), ("a",))


def test_trace_defaults_to_trivial_inputs():
    t = Trace((0, 1, 0))
    assert t.inputs == ("a", "a")
    assert len(t) == 3


def test_trace_must_be_nonempty():
    with pytest.raises(ValueError):
        Trace(())


def test_experiment_must_hold_a_word():
    with pytest.raises(ValueError):
        Experiment(())


def test_experiment_takes_any_iterable_of_words():
    assert Experiment(w for w in [["a"], iter("ab")]) == Experiment((("a",), ("a", "b")))
    with pytest.raises(ValueError, match="^an experiment contains at least one word$"):
        Experiment(w for w in [])


# ---------------------------------------------------------------------------
# value semantics: equality, hashing and repr over the fields, no assignment


def value_cases():
    """(value, an equal value, an unequal value, its field names, its field
    values, its repr) for each of the three value classes."""
    return [
        (
            toggle(),
            Machine(2, ["a"], [0, 1], [[1], [0]], [0, 1]),
            Machine(2, ("a",), (0, 1), ((1,), (0,)), (0, 1), initial=1),
            ("state_count", "input_alphabet", "output_alphabet", "transition", "output", "initial"),
            (2, ("a",), (0, 1), ((1,), (0,)), (0, 1), 0),
            "Machine(state_count=2, input_alphabet=('a',), output_alphabet=(0, 1), "
            "transition=((1,), (0,)), output=(0, 1), initial=0)",
        ),
        (
            Trace((0, 1), ("b",), (0, 1), ("a", "b")),
            Trace([0, 1], ["b"], [0, 1], ["a", "b"]),
            Trace((0, 1), ("b",), (0, 1)),
            ("outputs", "inputs", "output_alphabet", "input_alphabet"),
            ((0, 1), ("b",), (0, 1), ("a", "b")),
            "Trace(outputs=(0, 1), inputs=('b',), output_alphabet=(0, 1), input_alphabet=('a', 'b'))",
        ),
        (
            Experiment((("a", "b"), ())),
            Experiment([["a", "b"], []]),
            Experiment((("a",),)),
            ("words",),
            ((("a", "b"), ()),),
            "Experiment(words=(('a', 'b'), ()))",
        ),
    ]


@pytest.mark.parametrize("case", value_cases(), ids=lambda case: type(case[0]).__name__)
def test_value_semantics(case):
    value, same, other, names, fields, text = case
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != fields and value != object()
    assert tuple(getattr(value, name) for name in names) == fields
    assert hash(value) == hash(same) == hash(fields)
    assert repr(value) == text
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields


def test_value_refuses_a_new_attribute():
    with pytest.raises(AttributeError):
        toggle().extra = 1


def test_trace_alphabets_stay_out_of_equality_and_repr():
    declared = Trace((0, 1), output_alphabet=(1, 0))
    recorded = Trace((0, 1))
    assert declared.alphabets == ((1, 0), ("a",))
    assert recorded.alphabets == ((0, 1), ("a",))
    assert Trace((1, 0)).alphabets == ((1, 0), ("a",))
    assert "alphabets=" not in repr(declared)
    # equal fields, equal traces, whatever resolves the alphabets
    assert Trace((0, 1), ("a",)) == recorded
    assert hash(Trace((0, 1), ("a",))) == hash(recorded)
    with pytest.raises(AttributeError):
        recorded.alphabets = declared.alphabets


def test_machine_from_lists_equals_machine_from_tuples():
    tuples = Machine(2, ("a", "b"), (0, 1), ((1, 0), (0, 1)), (0, 1), 1)
    assert Machine(2, ["a", "b"], [0, 1], [[1, 0], [0, 1]], [0, 1], 1) == tuples
    assert Machine(
        state_count=2,
        input_alphabet=["a", "b"],
        output_alphabet=[0, 1],
        transition=[[1, 0], [0, 1]],
        output=[0, 1],
        initial=1,
    ) == tuples
    assert Machine(2, ["a", "b"], [0, 1], transition=[[1, 0], [0, 1]], output=[0, 1], initial=1) == tuples
    assert Machine(2, ("a", "b"), (0, 1), ((1, 0), (0, 1)), (0, 1)).initial == 0


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((1, ("a", "a"), (0,), ((0, 0),), (0,)), ValueError, "duplicate symbol 'a' in input alphabet"),
        ((1, ("a",), (), ((0,),), (0,)), ValueError, "output alphabet must be nonempty"),
        ((True, ("a",), (0,), ((0,),), (0,)), ValueError, "state_count must be an integer >= 1, got True"),
        ((2, ("a",), (0,), ((0,),), (0, 0)), ValueError, "transition table must have one row per state"),
        ((1, ("a", "b"), (0,), ((0,),), (0,)), ValueError, "transition row 0 must cover the input alphabet"),
        ((1, ("a",), (0,), ((1,),), (0,)), ValueError, "transition target 1 out of range in state 0"),
        ((1, ("a",), (0,), ((0,),), ()), ValueError, "output map must cover every state"),
        ((1, ("a",), (0,), ((0,),), (1,)), AlphabetError, "output 1 of state 0 not in output alphabet"),
        ((1, ("a",), (0,), ((0,),), (0,), 1), ValueError, "initial state 1 out of range"),
        # the alphabets are checked before the state count, the count before the table
        ((0, ("a", "a"), (0,), (), ()), ValueError, "duplicate symbol 'a' in input alphabet"),
        ((0, ("a",), (0,), ((5,),), ()), ValueError, "state_count must be an integer >= 1, got 0"),
    ],
)
def test_machine_rejection_messages(args, error, message):
    with pytest.raises(error) as caught:
        Machine(*args)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize(
    "args, kwargs, error, message",
    [
        (((),), {}, ValueError, "a trace records at least one outcome"),
        (((0, 1, 0), ("a",)), {}, ValueError, "trace with 3 outputs needs 2 inputs, got 1"),
        (((0, 1),), {"output_alphabet": (0, 0)}, ValueError, "duplicate symbol 0 in output alphabet"),
        (((0, 2),), {"output_alphabet": (0, 1)}, AlphabetError, "trace output 2 not in alphabet (0, 1)"),
        (((0, 1), ("b",)), {"input_alphabet": ("a",)}, AlphabetError, "trace input 'b' not in alphabet ('a',)"),
        # outputs are checked before inputs
        (((0, 2), ("b",)), {"output_alphabet": (0, 1), "input_alphabet": ("a",)}, AlphabetError,
         "trace output 2 not in alphabet (0, 1)"),
    ],
)
def test_trace_rejection_messages(args, kwargs, error, message):
    with pytest.raises(error) as caught:
        Trace(*args, **kwargs)
    assert type(caught.value) is error and str(caught.value) == message


def test_experiment_rejection_message():
    with pytest.raises(ValueError, match="^an experiment contains at least one word$"):
        Experiment([])


# ---------------------------------------------------------------------------
# trace_to_fsm / witness_moore


def test_trace_to_fsm_chain_shape():
    m = trace_to_fsm(Trace((0, 1, 0)))
    assert m.state_count == 3
    assert m.output == (0, 1, 0)
    assert m.transition[-1] == (2,)
    assert consistent(m, Trace((0, 1, 0)))


def test_trace_to_fsm_constant_chain_minimizes_to_one_state():
    chain = trace_to_fsm(Trace((3, 3, 3), output_alphabet=(3, 7)))
    assert chain.state_count == 3
    assert minimize(chain).state_count == 1


def test_trace_to_fsm_always_consistent():
    rng = random.Random(19)
    for _ in range(100):
        outputs = tuple(rng.randrange(3) for _ in range(rng.randint(1, 8)))
        t = Trace(outputs, output_alphabet=(0, 1, 2))
        assert consistent(trace_to_fsm(t), t)


def test_witness_two_step_trace():
    machine_a, machine_b, separating = witness_moore(Trace((0, 1)))
    assert machine_a.state_count == 2
    assert machine_b.state_count == 3
    assert separating.words == (("a", "a"),)
    assert run_experiment(machine_a, separating) == [[0, 1, 1]]
    assert run_experiment(machine_b, separating) == [[0, 1, 0]]


def test_witness_constant_trace_with_spare_symbol():
    machine_a, machine_b, separating = witness_moore(Trace((3, 3, 3), output_alphabet=(3, 7)))
    assert machine_a.state_count == 1
    assert machine_b.state_count == 4
    assert separating.words == (("a", "a", "a"),)


def test_witness_degenerate_alphabet():
    with pytest.raises(DegenerateAlphabetError):
        witness_moore(Trace((0,)))


def test_witness_alphabet_must_cover_trace():
    with pytest.raises(AlphabetError):
        witness_moore(Trace((0, 2), output_alphabet=(0, 1)))


def test_witness_properties_on_random_traces():
    rng = random.Random(23)
    for _ in range(60):
        n_out = rng.choice([2, 3])
        outputs = tuple(rng.randrange(n_out) for _ in range(rng.randint(1, 8)))
        trace = Trace(outputs, output_alphabet=tuple(range(n_out)))
        machine_a, machine_b, separating = witness_moore(trace)
        assert consistent(machine_a, trace)
        assert consistent(machine_b, trace)
        assert not equivalent(machine_a, machine_b)
        outs_a = run_experiment(machine_a, separating)
        outs_b = run_experiment(machine_b, separating)
        assert outs_a != outs_b


def test_witness_with_recorded_inputs():
    trace = Trace((0, 1, 1), ("b", "a"), input_alphabet=("a", "b"))
    machine_a, machine_b, _ = witness_moore(trace)
    assert consistent(machine_a, trace)
    assert consistent(machine_b, trace)
    assert not equivalent(machine_a, machine_b)


def test_witness_word_is_the_record_inputs_then_the_first_input():
    """The separating word is the one the product walk finds: the record's inputs
    reach the only state where the pair differ, and then any input parts them."""
    rng = random.Random(26)
    for _ in range(2000):
        n = rng.randint(1, 10)
        n_out = rng.randint(1, 3)
        outputs = [rng.randrange(n_out) for _ in range(n)]
        output_alphabet = None
        if len(set(outputs)) < 2 or rng.random() < 0.5:
            output_alphabet = rng.sample(range(n_out + 1), n_out + 1)  # shuffled, one spare symbol
        n_in = rng.randint(0, 3)
        inputs = input_alphabet = None  # no inputs: an autonomous record
        if n_in:
            symbols = "xyz"[:n_in]
            inputs = [rng.choice(symbols) for _ in range(n - 1)]
            if rng.random() < 0.5:
                input_alphabet = rng.sample(symbols, n_in)
        trace = Trace(outputs, inputs, output_alphabet, input_alphabet)
        machine_a, machine_b, separating = witness_moore(trace)
        assert separating == distinguishing_experiment(machine_a, machine_b), trace
        assert separating == Experiment((trace.inputs + trace.alphabets[1][:1],)), trace
