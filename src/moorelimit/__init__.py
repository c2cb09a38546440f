"""moorelimit: identification limits of finite observation records, at desk scale.

Classical core: deterministic finite state machines, trace-consistent machine
enumeration, and witness pairs showing that a finite record never pins down
the machine that produced it.  Quantum side: POVM observers over a fixed
environment dimension, the observable-dependent exchange symmetry, and the
canonical CHSH / Peres-Mermin / no-cloning demonstrations.
"""

from .machines import (
    DEFAULT_INPUT,
    AlphabetError,
    DegenerateAlphabetError,
    Experiment,
    Machine,
    Trace,
    canonical_form,
    consistent,
    consistent_encodings,
    distinguishing_experiment,
    enumerate_consistent,
    equivalent,
    minimize,
    run,
    run_experiment,
    trace_to_fsm,
    witness_moore,
)

__version__ = "0.1.0"
