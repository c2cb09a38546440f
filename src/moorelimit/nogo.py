"""Desk-scale demonstrations of two quantum no-go theorems.

CHSH with the singlet against an exhaustive local-deterministic-strategy bound,
and the no-cloning obstruction in its inner-product-preservation form.  The
third, contextuality, is the Peres–Mermin square of
:mod:`moorelimit.contextuality`.  The functions take validated
:mod:`moorelimit.quantum` states and plain float angles and, like that
module, compute in plain Python; the ``chsh`` config reader checks that the
angles are finite and the state has dimension 4.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .quantum import DensityOperator, StateVector, kron, overlap, trace_product


def singlet() -> DensityOperator:
    """The two-qubit singlet (|01> - |10>)/sqrt(2) as a density operator."""
    h = 1.0 / math.sqrt(2.0)
    return DensityOperator.from_state(StateVector((0.0, h, -h, 0.0)))


def measurement_axis(angle: float) -> tuple:
    """Spin observable sin(angle) X + cos(angle) Z along the x-z plane direction
    at ``angle`` from z, as a tuple of rows."""
    c, s = complex(math.cos(angle)), complex(math.sin(angle))
    return ((c, s), (s, -c))


def correlator(state: DensityOperator, x: float, y: float) -> float:
    """E(x, y) = <(n_x . sigma) tensor (n_y . sigma)> in the given state."""
    return trace_product(state.matrix, kron(measurement_axis(x), measurement_axis(y)))


#: The four CHSH terms: correlator name, Alice's setting, Bob's setting, and
#: the sign of that term in S = E(a,b) - E(a,b') + E(a',b) + E(a',b').
CHSH_TERMS = (
    ("E_ab", "a", "b", 1),
    ("E_ab_prime", "a", "b_prime", -1),
    ("E_a_prime_b", "a_prime", "b", 1),
    ("E_a_prime_b_prime", "a_prime", "b_prime", 1),
)


def chsh_sum(term) -> float:
    """S from ``term(name, x, y)``, each term's value before its sign, added left to
    right as S is written: ``sum`` would turn a leading -0.0 into 0.0 and, on Python
    3.12+, round differently."""
    return functools.reduce(operator.add, (s * term(n, x, y) for n, x, y, s in CHSH_TERMS))


def chsh_value(state: DensityOperator, angles) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') in ``state``, with ``angles`` keyed
    ``a``, ``a_prime``, ``b`` and ``b_prime``."""
    return chsh_sum(lambda _, x, y: correlator(state, angles[x], angles[y]))


def lhv_chsh_table() -> dict[tuple[int, int, int, int], int]:
    """S for each of the 16 deterministic local strategies, keyed by the +-1 outcomes
    ``(a, a_prime, b, b_prime)`` it pre-assigns to the four settings; integer arithmetic
    throughout."""
    table = {}
    for values in itertools.product((1, -1), repeat=4):
        outcome = dict(zip(("a", "a_prime", "b", "b_prime"), values))
        table[values] = chsh_sum(lambda _, x, y: outcome[x] * outcome[y])
    return table


def no_cloning_gap(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>| - |<psi|phi>|^2: positive exactly when one unitary cannot clone both.

    A cloner U(|x>|blank>) = |x>|x> would need <psi|phi> = <psi|phi>^2, which
    holds only for identical or orthogonal pairs; the gap measures the failure.
    """
    v = abs(overlap(psi, phi))
    return v - v * v
