"""Deterministic Moore-style finite state machines and the identification-limit toolkit.

A machine emits one output symbol per state, starting with the initial state,
so a run on a word of length L yields L+1 output symbols.  A finite record of
observed outcomes (a :class:`Trace`) pins down only finitely many transitions;
the operations here make the resulting ambiguity constructive: build the chain
machine a trace literally encodes, enumerate every behaviorally-distinct
machine consistent with the trace up to a state bound, and produce witness
pairs of trace-consistent but experimentally distinguishable machines together
with a minimal separating experiment.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

from . import kernels

Symbol = str | int
Word = Sequence[Symbol]

#: Input symbol used for autonomous observation records that carry no inputs.
DEFAULT_INPUT: Symbol = "a"


class AlphabetError(ValueError):
    """A symbol falls outside the declared alphabet, or alphabets mismatch."""


class DegenerateAlphabetError(ValueError):
    """The output alphabet admits only one behavior class, so no witness exists."""


def _quoted(value, limit: int = 80) -> str:
    """``repr(value)`` for an error message, cut to ``limit`` characters ending in ``...``."""
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _unique(symbols: Iterable[Symbol], what: str) -> tuple[Symbol, ...]:
    out: list[Symbol] = []
    for sym in symbols:
        if sym in out:
            raise ValueError(f"duplicate symbol {_quoted(sym)} in {what}")
        out.append(sym)
    if not out:
        raise ValueError(f"{what} must be nonempty")
    return tuple(out)


def _is_int(x) -> bool:
    """An integer that is not a bool: ``True`` must not pass as state 1."""
    return isinstance(x, int) and not isinstance(x, bool)


class _Value:
    """An immutable value: equality, hashing and repr over the fields that
    ``_fields`` names, in that order.  ``__init__`` stores every attribute in
    ``__dict__``; assigning or deleting one afterwards raises AttributeError."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Machine(_Value):
    """A deterministic finite state machine with per-state outputs.

    ``transition[s][i]`` is the successor of state ``s`` under the ``i``-th
    input-alphabet symbol; ``output[s]`` is the symbol emitted on entering
    state ``s``.  Both maps are total.  The alphabets, each row and the
    output map are stored as tuples.
    """

    _fields = ("state_count", "input_alphabet", "output_alphabet", "transition", "output", "initial")

    def __init__(
        self,
        state_count: int,
        input_alphabet: Iterable[Symbol],
        output_alphabet: Iterable[Symbol],
        transition: Iterable[Iterable[int]],
        output: Iterable[Symbol],
        initial: int = 0,
    ):
        input_alphabet = _unique(input_alphabet, "input alphabet")
        output_alphabet = _unique(output_alphabet, "output alphabet")
        transition = tuple(tuple(row) for row in transition)
        output = tuple(output)
        n = state_count
        if not _is_int(n) or n < 1:
            raise ValueError(f"state_count must be an integer >= 1, got {_quoted(n)}")
        if len(transition) != n:
            raise ValueError("transition table must have one row per state")
        for s, row in enumerate(transition):
            if len(row) != len(input_alphabet):
                raise ValueError(f"transition row {s} must cover the input alphabet")
            for t in row:
                if not (_is_int(t) and 0 <= t < n):
                    raise ValueError(f"transition target {_quoted(t)} out of range in state {s}")
        if len(output) != n:
            raise ValueError("output map must cover every state")
        for s, sym in enumerate(output):
            if sym not in output_alphabet:
                raise AlphabetError(f"output {_quoted(sym)} of state {s} not in output alphabet")
        if not (_is_int(initial) and 0 <= initial < n):
            raise ValueError(f"initial state {_quoted(initial)} out of range")
        self.__dict__.update(
            state_count=n,
            input_alphabet=input_alphabet,
            output_alphabet=output_alphabet,
            transition=transition,
            output=output,
            initial=initial,
            _input_index={sym: i for i, sym in enumerate(input_alphabet)},
            _output_index={sym: i for i, sym in enumerate(output_alphabet)},
        )


class Trace(_Value):
    """A finite record of observed outcome symbols, optionally with inputs.

    ``outputs`` holds the N recorded symbols; ``inputs`` holds the N-1 symbols
    applied between consecutive records.  Omitting ``inputs`` models autonomous
    observation: every step uses the single trivial input ``DEFAULT_INPUT``.

    ``output_alphabet`` and ``input_alphabet`` are optional declarations (None
    declares nothing); a declared one lists each symbol once and covers every
    recorded symbol.  ``alphabets`` is the resolved ``(outputs, inputs)`` pair
    the record is read over: a declaration, else the recorded symbols in
    first-occurrence order (``(DEFAULT_INPUT,)`` for a record with no inputs).
    It is derived from the fields, so equality and repr leave it out.
    """

    _fields = ("outputs", "inputs", "output_alphabet", "input_alphabet")

    def __init__(
        self,
        outputs: Iterable[Symbol],
        inputs: Iterable[Symbol] | None = None,
        output_alphabet: Iterable[Symbol] | None = None,
        input_alphabet: Iterable[Symbol] | None = None,
    ):
        outputs = tuple(outputs)
        if len(outputs) < 1:
            raise ValueError("a trace records at least one outcome")
        if inputs is None:
            inputs = (DEFAULT_INPUT,) * (len(outputs) - 1)
        inputs = tuple(inputs)
        if len(inputs) != len(outputs) - 1:
            raise ValueError(
                f"trace with {len(outputs)} outputs needs {len(outputs) - 1} inputs, got {len(inputs)}"
            )
        fields = self.__dict__
        fields.update(
            outputs=outputs, inputs=inputs, output_alphabet=output_alphabet, input_alphabet=input_alphabet
        )
        resolved = []
        for kind, recorded, default in (("output", outputs, ()), ("input", inputs, (DEFAULT_INPUT,))):
            declared = fields[f"{kind}_alphabet"]
            if declared is None:
                alphabet = tuple(dict.fromkeys(recorded)) or default
            else:
                alphabet = fields[f"{kind}_alphabet"] = _unique(declared, f"{kind} alphabet")
                for sym in recorded:
                    if sym not in alphabet:
                        raise AlphabetError(
                            f"trace {kind} {_quoted(sym)} not in alphabet {_quoted(alphabet)}"
                        )
            resolved.append(alphabet)
        fields["alphabets"] = tuple(resolved)

    def __len__(self) -> int:
        return len(self.outputs)


class Experiment(_Value):
    """A multiple experiment: input words, each run on a fresh copy of a machine."""

    _fields = ("words",)

    def __init__(self, words: Iterable[Iterable[Symbol]]):
        words = tuple(tuple(w) for w in words)
        if not words:
            raise ValueError("an experiment contains at least one word")
        self.__dict__["words"] = words


def run(machine: Machine, word: Word) -> list[Symbol]:
    """Run ``machine`` on ``word`` and return the |word|+1 emitted outputs."""
    index = machine._input_index
    state = machine.initial
    outs = [machine.output[state]]
    for sym in word:
        i = index.get(sym)
        if i is None:
            raise AlphabetError(
                f"input symbol {_quoted(sym)} not in alphabet {_quoted(machine.input_alphabet)}"
            )
        state = machine.transition[state][i]
        outs.append(machine.output[state])
    return outs


def run_experiment(machine: Machine, experiment: Experiment) -> list[list[Symbol]]:
    """Run every word of ``experiment`` on a fresh copy of ``machine``."""
    return [run(machine, word) for word in experiment.words]


def consistent(machine: Machine, trace: Trace) -> bool:
    """True iff the machine reproduces the trace outputs from its initial state."""
    for sym in trace.outputs:
        if sym not in machine._output_index:
            raise AlphabetError(
                f"trace output {_quoted(sym)} not in alphabet {_quoted(machine.output_alphabet)}"
            )
    return run(machine, trace.inputs) == list(trace.outputs)


def _require_shared_alphabets(a: Machine, b: Machine) -> None:
    if set(a.input_alphabet) != set(b.input_alphabet):
        raise AlphabetError(
            f"input alphabets differ: {_quoted(a.input_alphabet)} vs {_quoted(b.input_alphabet)}"
        )
    if set(a.output_alphabet) != set(b.output_alphabet):
        raise AlphabetError(
            f"output alphabets differ: {_quoted(a.output_alphabet)} vs {_quoted(b.output_alphabet)}"
        )


def equivalent(a: Machine, b: Machine) -> bool:
    """True iff every input word elicits identical output sequences from a and b.

    Decided by breadth-first search over reachable state pairs of the product
    machine; terminates after at most |a| * |b| pair expansions.
    """
    return distinguishing_experiment(a, b) is None


def distinguishing_experiment(a: Machine, b: Machine) -> Experiment | None:
    """Shortest single-word experiment on which a and b disagree, or None.

    Returns None iff the machines are equivalent.  Among words of minimal
    length the lexicographically first (in input-alphabet order) is returned;
    the empty word is returned when the initial outputs already differ.
    """
    _require_shared_alphabets(a, b)
    b_index = b._input_index
    start = (a.initial, b.initial)
    parent = {start: None}  # state pair -> (the pair it was first reached from, input)
    order = [start]  # grows while it is walked: breadth-first order
    for pair in order:
        s, t = pair
        if a.output[s] != b.output[t]:
            word = []
            while parent[pair] is not None:
                pair, sym = parent[pair]
                word.append(sym)
            return Experiment((word[::-1],))
        for i, sym in enumerate(a.input_alphabet):
            successor = (a.transition[s][i], b.transition[t][b_index[sym]])
            if successor not in parent:
                parent[successor] = (pair, sym)
                order.append(successor)
    return None


def _walk(machine: Machine, block: Sequence[int]) -> Machine:
    """The blocks reachable from ``machine.initial``, taken as states and
    numbered as a breadth-first walk first reaches them, inputs in alphabet
    order.  The first state reached stands for its block, which is sound when
    each block's states share their output and their successors' blocks, as
    singletons and the blocks of :func:`moorelimit.kernels.refine` do.
    """
    number = {block[machine.initial]: 0}
    order = [machine.initial]
    for s in order:
        for t in machine.transition[s]:
            if block[t] not in number:
                number[block[t]] = len(order)
                order.append(t)
    return Machine(
        state_count=len(order),
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        transition=tuple(tuple(number[block[t]] for t in machine.transition[s]) for s in order),
        output=tuple(machine.output[s] for s in order),
        initial=0,
    )


def canonical_form(machine: Machine) -> Machine:
    """Drop unreachable states and renumber the rest in breadth-first order.

    Inputs are visited in alphabet order, so two machines have identical
    canonical forms exactly when they are isomorphic after trimming.
    """
    return _walk(machine, range(machine.state_count))


def minimize(machine: Machine) -> Machine:
    """Smallest machine equivalent to ``machine``, in canonical form.

    Partition refinement (:func:`moorelimit.kernels.refine`), through one
    successor lookup per input column, groups the states no experiment
    distinguishes; the walk of :func:`canonical_form` then numbers the
    groups it reaches, building one machine.  Idempotent.
    """
    block = kernels.refine(
        [itemgetter(*column) for column in zip(*machine.transition)],
        [machine._output_index[sym] for sym in machine.output],
    )
    return _walk(machine, block)


def trace_to_fsm(trace: Trace) -> Machine:
    """The N-state chain machine a trace literally encodes.

    State i emits the i-th recorded output and steps to state i+1 under the
    recorded input; all unrecorded transitions self-loop (totality with the
    least commitment), as does the final state.  Always trace-consistent.
    """
    outputs, inputs = trace.alphabets
    n = len(trace)
    input_index = {sym: i for i, sym in enumerate(inputs)}
    transition = []
    for s in range(n):
        row = [s] * len(inputs)
        if s < n - 1:
            row[input_index[trace.inputs[s]]] = s + 1
        transition.append(tuple(row))
    return Machine(
        state_count=n,
        input_alphabet=inputs,
        output_alphabet=outputs,
        transition=tuple(transition),
        output=tuple(trace.outputs),
        initial=0,
    )


def witness_moore(trace: Trace) -> tuple[Machine, Machine, Experiment]:
    """``(machine_a, machine_b, separating)``: two non-equivalent machines that
    both reproduce the trace, and an experiment separating them.

    Machine A is the minimized trace chain (it repeats the final record
    forever).  Machine B extends the chain by one fresh state whose output is
    the first alphabet symbol differing from the final record, reached from
    the chain's last state under every input; the pair therefore agrees on the
    recorded past and provably diverges in some future.  Requires an output
    alphabet of size >= 2.

    ``separating`` is the record's inputs then the first input symbol.  A and B
    differ only in the last chain state's row, which the recorded inputs alone
    reach soonest (unrecorded inputs self-loop), and any input then parts them,
    so this is the least shortest separating word in input-alphabet order.
    """
    outputs, inputs = trace.alphabets
    if len(outputs) < 2:
        raise DegenerateAlphabetError(
            "all machines over a one-symbol output alphabet are equivalent; "
            "a witness pair needs an output alphabet of size >= 2"
        )
    chain = trace_to_fsm(trace)
    machine_a = minimize(chain)

    divergent = next(sym for sym in outputs if sym != trace.outputs[-1])
    n = len(trace)
    transition = list(chain.transition[:-1])
    transition.append(tuple(n for _ in inputs))      # old final state feeds the fresh state
    transition.append(tuple(n for _ in inputs))      # fresh state self-loops
    extended = Machine(
        state_count=n + 1,
        input_alphabet=inputs,
        output_alphabet=outputs,
        transition=tuple(transition),
        output=tuple(trace.outputs) + (divergent,),
        initial=0,
    )
    machine_b = minimize(extended)
    return machine_a, machine_b, Experiment((trace.inputs + inputs[:1],))


def consistent_encodings(trace: Trace, max_states: int) -> list[tuple]:
    """The sorted canonical encodings of every behavior :func:`enumerate_consistent`
    reports, over the trace's resolved ``alphabets``.

    An encoding is ``(m, delta, lam)``: the state count, the tuple of the ``m``
    rows of the transition table flattened in input-alphabet order, and the
    tuple of each state's output as an index into the output alphabet; the
    initial state is 0.  Adjacent encodings of one table share its ``delta``
    object, and ``lam`` objects are shared as :mod:`moorelimit.kernels` says.
    """
    outputs, inputs = trace.alphabets
    out_index = {sym: i for i, sym in enumerate(outputs)}
    in_index = {sym: i for i, sym in enumerate(inputs)}
    trace_out = tuple(out_index[sym] for sym in trace.outputs)
    trace_in = tuple(in_index[sym] for sym in trace.inputs)
    return kernels.consistent_machine_encodings(
        max_states, len(inputs), len(outputs), trace_in, trace_out
    )


def enumerate_consistent(trace: Trace, max_states: int) -> list[Machine]:
    """Every behaviorally-distinct machine with at most ``max_states`` states
    that reproduces the trace.

    Machines are reported as minimized canonical forms, one per behavior,
    sorted lexicographically on their canonical encoding.  The search
    (:mod:`moorelimit.kernels`) generates only transition tables already in
    breadth-first canonical order and keeps those that reproduce the trace and
    have no two equivalent states, so every minimal machine appears once.
    This builds a :class:`Machine` from each of :func:`consistent_encodings`'s
    encodings; code that only writes the machines out can use the encodings
    directly.
    """
    encodings = consistent_encodings(trace, max_states)
    outputs, inputs = trace.alphabets
    k = len(inputs)
    machines = []
    for m, delta, lam in encodings:
        machines.append(
            Machine(
                state_count=m,
                input_alphabet=inputs,
                output_alphabet=outputs,
                transition=tuple(delta[s * k : (s + 1) * k] for s in range(m)),
                output=tuple(outputs[i] for i in lam),
                initial=0,
            )
        )
    return machines
