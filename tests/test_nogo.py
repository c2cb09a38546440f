import itertools
import math

import numpy as np
import pytest

from moorelimit.demos import chsh_config_from_dict
from moorelimit.nogo import (
    chsh_value,
    correlator,
    lhv_chsh_table,
    measurement_axis,
    no_cloning_gap,
    singlet,
)
from moorelimit.quantum import (
    DensityOperator,
    PAULI_X,
    PAULI_Z,
    StateVector,
    basis_state,
    overlap,
    random_state,
    tensor,
)
from moorelimit.serialize import ParseError

TSIRELSON = 2.0 * math.sqrt(2.0)
CANONICAL = {"a": 0.0, "a_prime": math.pi / 2.0, "b": math.pi / 4.0, "b_prime": 3.0 * math.pi / 4.0}


def product_00():
    return DensityOperator.from_state(tensor(basis_state(2, 0), basis_state(2, 0)))


# ---------------------------------------------------------------------------
# CHSH


def test_measurement_axis_endpoints():
    assert np.allclose(measurement_axis(0.0), PAULI_Z)
    assert np.allclose(measurement_axis(math.pi / 2.0), PAULI_X)


def test_measurement_axis_is_involution():
    for angle in np.linspace(0.0, 2.0 * math.pi, 17):
        a = np.array(measurement_axis(angle))
        assert np.allclose(a @ a, np.eye(2), atol=1e-12)
        assert np.allclose(a, a.conj().T)


def test_singlet_correlator_closed_form():
    rho = singlet()
    for x in np.linspace(0.0, 2.0 * math.pi, 10):
        for y in np.linspace(0.0, 2.0 * math.pi, 10):
            assert correlator(rho, x, y) == pytest.approx(-math.cos(x - y), abs=1e-9)


def test_product_state_correlator_closed_form():
    rho = product_00()
    for x in np.linspace(0.0, 2.0 * math.pi, 10):
        for y in np.linspace(0.0, 2.0 * math.pi, 10):
            assert correlator(rho, x, y) == pytest.approx(
                math.cos(x) * math.cos(y), abs=1e-9
            )


def test_singlet_perfect_anticorrelation():
    rho = singlet()
    for angle in (0.0, 0.3, 1.1, math.pi / 2.0):
        assert correlator(rho, angle, angle) == pytest.approx(-1.0, abs=1e-12)


def test_chsh_canonical_angles_reach_negative_tsirelson():
    assert chsh_value(singlet(), CANONICAL) == pytest.approx(-TSIRELSON, abs=1e-9)


def test_chsh_zero_angles_hits_lhv_bound():
    zeros = dict.fromkeys(CANONICAL, 0.0)
    assert chsh_value(singlet(), zeros) == pytest.approx(-2.0, abs=1e-12)


def test_chsh_product_state_stays_classical():
    assert chsh_value(product_00(), CANONICAL) == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert abs(chsh_value(product_00(), CANONICAL)) <= 2.0


def test_chsh_respects_tsirelson_on_dense_grid():
    rho = singlet()
    grid = np.linspace(0.0, math.pi, 8)
    worst = 0.0
    for a, ap, b, bp in itertools.product(grid, repeat=4):
        s = chsh_value(rho, {"a": a, "a_prime": ap, "b": b, "b_prime": bp})
        worst = max(worst, abs(s))
    assert worst <= TSIRELSON + 1e-9
    assert worst > 2.5  # the grid contains near-optimal quadruples


def test_chsh_requires_two_qubit_state():
    # the config reader is the one place a chsh state's dimension is checked
    mixed = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ParseError, match=r"^c\.json: state: CHSH needs a two-qubit state"):
        chsh_config_from_dict({"state": mixed}, "c.json")


def test_chsh_rejects_non_finite_angle():
    # ... and the one place its angles are checked
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParseError, match=r"^c\.json: angles\.b_prime: expected a finite number"):
            chsh_config_from_dict({"angles": {**CANONICAL, "b_prime": value}}, "c.json")


def test_lhv_table_is_plus_or_minus_two_with_eight_achievers():
    table = lhv_chsh_table()
    assert sorted(table) == sorted(itertools.product((1, -1), repeat=4))
    values = list(table.values())
    assert set(values) == {-2, 2}
    assert values.count(2) == 8
    assert max(abs(v) for v in values) == 2


def test_lhv_table_value_of_one_strategy():
    # a=1, a'=-1, b=1, b'=1: S = 1 - 1 + (-1) + (-1)
    assert lhv_chsh_table()[(1, -1, 1, 1)] == -2


# ---------------------------------------------------------------------------
# no-cloning


def test_gap_zero_for_identical_and_orthogonal():
    ket0 = basis_state(2, 0)
    ket1 = basis_state(2, 1)
    assert abs(no_cloning_gap(ket0, ket0)) <= 1e-12
    assert abs(no_cloning_gap(ket0, ket1)) <= 1e-12


def test_gap_for_overlap_three_fifths():
    phi = StateVector(np.array([0.6, 0.8]))
    assert no_cloning_gap(basis_state(2, 0), phi) == 0.24


def test_gap_matches_overlap_formula():
    rng = np.random.default_rng(77)
    for _ in range(100):
        psi = random_state(2, rng)
        phi = random_state(2, rng)
        v = abs(overlap(psi, phi))
        assert no_cloning_gap(psi, phi) == pytest.approx(v - v * v, abs=1e-15)


def test_gap_positive_for_generic_pairs_and_maximal_at_half():
    rng = np.random.default_rng(78)
    gaps = [no_cloning_gap(random_state(2, rng), random_state(2, rng)) for _ in range(100)]
    assert all(g > 0.0 for g in gaps)
    assert max(gaps) <= 0.25
    half = StateVector(np.array([0.5, math.sqrt(3.0) / 2.0]))
    assert no_cloning_gap(basis_state(2, 0), half) == pytest.approx(0.25)
