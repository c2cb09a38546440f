import itertools

import numpy as np
import pytest

from moorelimit.contextuality import (
    IDENTITY,
    LINES,
    SQUARE_LABELS,
    kochen_specker_check,
    matmul,
    pauli_product,
)
from moorelimit.quantum import PAULI_X, PAULI_Y, PAULI_Z

PAULI = {"I": np.eye(2), "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def test_magic_square_signs_and_identities():
    report = kochen_specker_check()
    assert report["row_signs"] == [1, 1, 1]
    assert report["col_signs"] == [1, 1, -1]
    assert report["max_commutator"] <= 1e-12
    assert report["max_product_deviation"] <= 1e-12


def test_no_classical_assignment_exists():
    report = kochen_specker_check()
    assert report["assignment_count"] == 512
    assert report["satisfying_assignments"] == 0
    assert report["contextual"]


def test_satisfying_count_matches_direct_parity_search():
    # independent recount straight from the sign pattern
    report = kochen_specker_check()
    count = 0
    for cells in itertools.product((1, -1), repeat=9):
        rows_ok = all(
            cells[3 * r] * cells[3 * r + 1] * cells[3 * r + 2] == report["row_signs"][r]
            for r in range(3)
        )
        cols_ok = all(
            cells[c] * cells[c + 3] * cells[c + 6] == report["col_signs"][c]
            for c in range(3)
        )
        count += rows_ok and cols_ok
    assert count == report["satisfying_assignments"] == 0


def test_relaxed_sign_pattern_admits_assignments():
    # sanity: flipping the inconsistent column sign makes the constraints satisfiable
    signs_rows = (1, 1, 1)
    signs_cols = (1, 1, 1)
    count = 0
    for cells in itertools.product((1, -1), repeat=9):
        rows_ok = all(
            cells[3 * r] * cells[3 * r + 1] * cells[3 * r + 2] == signs_rows[r]
            for r in range(3)
        )
        cols_ok = all(
            cells[c] * cells[c + 3] * cells[c + 6] == signs_cols[c] for c in range(3)
        )
        count += rows_ok and cols_ok
    assert count == 16


def test_square_labels():
    labels = kochen_specker_check()["labels"]
    assert labels == [["XI", "IX", "XX"], ["IY", "YI", "YY"], ["XY", "YX", "ZZ"]]
    for label in (label for row in labels for label in row):
        cell = np.kron(PAULI[label[0]], PAULI[label[1]])
        assert np.allclose(cell @ cell, np.eye(4), atol=1e-12)  # every observable is +-1 valued


@pytest.mark.parametrize("label", [label for row in SQUARE_LABELS for label in row] + ["II"])
def test_exact_cell_equals_kron_entry_for_entry(label):
    assert pauli_product(label) == np.kron(PAULI[label[0]], PAULI[label[1]]).tolist()


@pytest.mark.parametrize("line", LINES)
def test_line_product_is_exactly_a_signed_identity(line):
    cells = [pauli_product(label) for row in SQUARE_LABELS for label in row]
    a, b, c = (cells[i] for i in line)
    product = matmul(matmul(a, b), c)
    sign = -1 if line == LINES[-1] else 1  # the third column multiplies to -I
    assert product == [[sign * x for x in row] for row in IDENTITY]
