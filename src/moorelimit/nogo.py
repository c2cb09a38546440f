"""Desk-scale demonstrations of three quantum no-go theorems.

CHSH with the singlet against an exhaustive local-deterministic-strategy bound,
contextuality via the two-qubit Pauli-product magic square, and the no-cloning
obstruction in its inner-product-preservation form.  Every result here is
exact arithmetic or a brute-force search over a space small enough to print.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .quantum import (
    DensityOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    overlap,
)


def singlet() -> DensityOperator:
    """The two-qubit singlet (|01> - |10>)/sqrt(2) as a density operator."""
    psi = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    return DensityOperator(np.outer(psi, psi.conj()))


def measurement_axis(angle: float) -> np.ndarray:
    """Spin observable along the x-z plane direction at ``angle`` from z."""
    return math.sin(angle) * PAULI_X + math.cos(angle) * PAULI_Z


@dataclass(frozen=True)
class ChshSetting:
    """Four measurement angles (x-z plane) and a two-qubit state."""

    a: float
    a_prime: float
    b: float
    b_prime: float
    state: DensityOperator

    def __post_init__(self):
        for angle in (self.a, self.a_prime, self.b, self.b_prime):
            if not math.isfinite(angle):
                raise ValueError(f"measurement angle {angle!r} is not finite")
        if self.state.dim != 4:
            raise ValueError("CHSH needs a two-qubit state (dim 4)")


def correlator(state: DensityOperator, x: float, y: float) -> float:
    """E(x, y) = <(n_x . sigma) tensor (n_y . sigma)> in the given state."""
    observable = np.kron(measurement_axis(x), measurement_axis(y))
    return float(np.trace(state.matrix @ observable).real)


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


def chsh_value(setting: ChshSetting) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    st = setting.state
    return chsh_sum(lambda _, x, y: correlator(st, getattr(setting, x), getattr(setting, y)))


def lhv_chsh_table() -> dict[tuple[int, int, int, int], int]:
    """S for each of the 16 deterministic local strategies, keyed by the +-1 outcomes
    ``(a, a_prime, b, b_prime)`` it pre-assigns to the four settings; integer arithmetic
    throughout."""
    table = {}
    for values in itertools.product((1, -1), repeat=4):
        outcome = dict(zip(("a", "a_prime", "b", "b_prime"), values))
        table[values] = chsh_sum(lambda _, x, y: outcome[x] * outcome[y])
    return table


# Two-qubit Pauli products: rows multiply to +I, the third column to -I.
_PAULI_1 = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z, "I": np.eye(2, dtype=complex)}
_SQUARE_LABELS = (
    ("XI", "IX", "XX"),
    ("IY", "YI", "YY"),
    ("XY", "YX", "ZZ"),
)


def _pauli_product(label: str) -> np.ndarray:
    return np.kron(_PAULI_1[label[0]], _PAULI_1[label[1]])


@dataclass(frozen=True)
class KochenSpeckerReport:
    """Operator identities of the magic square versus classical +-1 assignments."""

    labels: tuple[tuple[str, str, str], ...]
    max_commutator: float
    row_signs: tuple[int, int, int]
    col_signs: tuple[int, int, int]
    max_product_deviation: float
    satisfying_assignments: int
    assignment_count: int

    @property
    def contextual(self) -> bool:
        return self.satisfying_assignments == 0


def _product_sign(ops) -> tuple[int, float]:
    prod = ops[0] @ ops[1] @ ops[2]
    eye = np.eye(prod.shape[0])
    dev_plus = float(np.max(np.abs(prod - eye)))
    dev_minus = float(np.max(np.abs(prod + eye)))
    return (1, dev_plus) if dev_plus <= dev_minus else (-1, dev_minus)


def kochen_specker_check() -> KochenSpeckerReport:
    """Verify the magic square's operator identities and search all 512 classical assignments.

    A classical assignment puts +-1 in each cell and must reproduce every row
    and column product sign; the parity obstruction (all nine values multiply
    to +1 along rows but -1 along columns) leaves zero of the 512.
    """
    ops = [[_pauli_product(label) for label in row] for row in _SQUARE_LABELS]
    lines = ops + [[ops[r][c] for r in range(3)] for c in range(3)]  # three rows, then three columns
    max_comm = 0.0
    signs = []
    max_dev = 0.0
    for line in lines:
        for m1, m2 in itertools.combinations(line, 2):
            max_comm = max(max_comm, float(np.max(np.abs(m1 @ m2 - m2 @ m1))))
        sign, dev = _product_sign(line)
        signs.append(sign)
        max_dev = max(max_dev, dev)
    row_signs, col_signs = tuple(signs[:3]), tuple(signs[3:])

    satisfying = 0
    for cells in itertools.product((1, -1), repeat=9):
        g = [cells[0:3], cells[3:6], cells[6:9]]
        rows_ok = all(g[r][0] * g[r][1] * g[r][2] == row_signs[r] for r in range(3))
        cols_ok = all(g[0][c] * g[1][c] * g[2][c] == col_signs[c] for c in range(3))
        if rows_ok and cols_ok:
            satisfying += 1

    return KochenSpeckerReport(
        labels=_SQUARE_LABELS,
        max_commutator=max_comm,
        row_signs=row_signs,
        col_signs=col_signs,
        max_product_deviation=max_dev,
        satisfying_assignments=satisfying,
        assignment_count=2 ** 9,
    )


def no_cloning_gap(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>| - |<psi|phi>|^2: positive exactly when one unitary cannot clone both.

    A cloner U(|x>|blank>) = |x>|x> would need <psi|phi> = <psi|phi>^2, which
    holds only for identical or orthogonal pairs; the gap measures the failure.
    """
    v = abs(overlap(psi, phi))
    return v - v * v
