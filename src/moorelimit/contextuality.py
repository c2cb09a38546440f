"""The Peres–Mermin square and the ``ks`` command, without numpy.

Nine two-qubit Pauli products in a 3x3 square: the three in each row and each
column commute, every row multiplies to +I and the columns to +I, +I and -I.
No assignment of +-1 to the nine cells reproduces all six signs, so the
outcomes cannot be fixed in advance of the line they are measured with.

Every matrix entry here is 0, +-1 or +-i, so the products and commutators
below, in plain ``complex`` arithmetic on nested lists, are exact: ``ks``
checks its operator identities against 0 and takes no tolerance.
"""

from __future__ import annotations

import itertools

from .cli import _finish

_PAULI = {
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "Y": ((0, -1j), (1j, 0)),
    "Z": ((1, 0), (0, -1)),
}

#: The square's cells, each the label of a two-qubit Pauli product.
SQUARE_LABELS = (
    ("XI", "IX", "XX"),
    ("IY", "YI", "YY"),
    ("XY", "YX", "ZZ"),
)

#: Its six lines as indices into the cells read row by row: three rows, then three columns.
LINES = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8))


def pauli_product(label: str) -> list[list]:
    """The 4x4 matrix of ``label``'s first Pauli tensored with its second."""
    a, b = _PAULI[label[0]], _PAULI[label[1]]
    return [[a[i // 2][j // 2] * b[i % 2][j % 2] for j in range(4)] for i in range(4)]


IDENTITY = pauli_product("II")


def matmul(m1, m2) -> list[list]:
    return [[sum(m1[i][k] * m2[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def _distance(m1, m2) -> float:
    """The largest ``abs`` of an entry of ``m1 - m2``."""
    return float(max(abs(x - y) for r1, r2 in zip(m1, m2) for x, y in zip(r1, r2)))


def kochen_specker_check() -> dict:
    """The ``ks`` results block: the square's operator identities and the
    count of classical assignments that reproduce its six signs, of all 512.

    A line's sign is that of the signed identity nearest its product, and
    ``max_product_deviation`` the largest distance from it.
    """
    cells = [pauli_product(label) for row in SQUARE_LABELS for label in row]
    minus_identity = [[-x for x in row] for row in IDENTITY]
    signs, max_comm, max_dev = [], 0.0, 0.0
    for line in LINES:
        ops = [cells[i] for i in line]
        for m1, m2 in itertools.combinations(ops, 2):
            max_comm = max(max_comm, _distance(matmul(m1, m2), matmul(m2, m1)))
        product = matmul(matmul(ops[0], ops[1]), ops[2])
        dev_plus, dev_minus = _distance(product, IDENTITY), _distance(product, minus_identity)
        signs.append(1 if dev_plus <= dev_minus else -1)
        max_dev = max(max_dev, min(dev_plus, dev_minus))

    satisfying = sum(
        all(values[a] * values[b] * values[c] == sign for (a, b, c), sign in zip(LINES, signs))
        for values in itertools.product((1, -1), repeat=9)
    )
    return {
        "labels": [list(row) for row in SQUARE_LABELS],
        "row_signs": signs[:3],
        "col_signs": signs[3:],
        "max_commutator": max_comm,
        "max_product_deviation": max_dev,
        "satisfying_assignments": satisfying,
        "assignment_count": 2**9,
        "contextual": satisfying == 0,
    }


def cmd_ks(args) -> int:
    results = kochen_specker_check()
    checks = {
        "lines_commute": results["max_commutator"] == 0,
        "products_are_signed_identities": results["max_product_deviation"] == 0,
        "row_signs_all_plus": results["row_signs"] == [1, 1, 1],
        "col_signs_plus_plus_minus": results["col_signs"] == [1, 1, -1],
        "no_classical_assignment": results["satisfying_assignments"] == 0,
    }

    def table():
        return ["row", "col", "label"], [
            [r, c, label] for r, row in enumerate(SQUARE_LABELS) for c, label in enumerate(row)
        ]

    return _finish(args, "ks", {"square": "peres-mermin"}, results, checks, table)
