import numpy as np
import pytest

from moorelimit.quantum import (
    DensityOperator,
    DimensionError,
    Effect,
    MAX_DIM,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Povm,
    StateVector,
    basis_povm,
    basis_state,
    born_distribution,
    overlap,
    random_density,
    random_state,
    tensor,
    trace_product,
)
from moorelimit.quantum import _hermitian_spectrum, _norm


def plus_state():
    return StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))


# ---------------------------------------------------------------------------
# state / operator validation


def test_state_vector_must_be_normalized():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))


def test_state_vector_accepts_norm_within_tolerance():
    psi = StateVector(np.array([1.0 + 5e-10, 0.0]))
    assert psi.dim == 2


def test_state_vector_is_read_only():
    psi = basis_state(2, 0)
    with pytest.raises(TypeError):
        psi.amplitudes[0] = 0.0


def test_density_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))


def test_density_rejects_wrong_trace():
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))


def test_density_from_state_is_projector():
    rho = DensityOperator.from_state(plus_state())
    matrix = np.array(rho.matrix)
    assert np.allclose(matrix, matrix @ matrix)
    assert abs(np.trace(matrix) - 1.0) < 1e-12


def test_effect_rejects_spectrum_above_one():
    with pytest.raises(ValueError):
        Effect(2.0 * np.eye(2))


def test_effect_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        Effect(np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_effect_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="outside"):
        Effect(np.diag([-0.5, 0.5]))
    # the pair sums to the identity, so completeness does not hide it
    with pytest.raises(ValueError, match="outside"):
        Povm(effects=(np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])), labels=(0, 1))


def test_povm_requires_completeness():
    half = Effect(0.5 * np.eye(2))
    with pytest.raises(ValueError):
        Povm(effects=(half,), labels=("only",))


def test_povm_requires_distinct_labels():
    half = Effect(0.5 * np.eye(2))
    with pytest.raises(ValueError):
        Povm(effects=(half, half), labels=("x", "x"))


def test_povm_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        Povm(effects=(Effect(np.eye(2)), Effect(np.zeros((3, 3)))), labels=(0, 1))
    with pytest.raises(DimensionError, match="square"):
        Povm(effects=(np.zeros((2, 3)),), labels=(0,))


# ---------------------------------------------------------------------------
# value semantics: repr over the fields, fields stored as tuples, no assignment


def value_cases():
    """(a value built positionally, the same value built by keyword from fresh
    arrays, a different value, its field names, the start of its repr) for
    each of the four operator classes."""
    amps = np.array([1.0, 0.0])
    half = 0.5 * np.eye(2)
    effects = (Effect(half), Effect(half))
    return [
        (
            StateVector(amps),
            StateVector(amplitudes=amps.copy()),
            StateVector([0.0, 1.0]),
            ("amplitudes",),
            "StateVector(amplitudes=((1+0j), 0j))",
        ),
        (
            DensityOperator(half),
            DensityOperator(matrix=half.copy()),
            DensityOperator(np.eye(3) / 3),
            ("matrix",),
            "DensityOperator(matrix=(((0.5+0j), 0j), (0j, (0.5+0j))))",
        ),
        (Effect(half), Effect(matrix=half.copy()), Effect(np.diag([1.0, 0.0])), ("matrix",), "Effect(matrix=(((0.5+0j), 0j), (0j, (0.5+0j))))"),
        (
            Povm(effects, ("x", "y")),
            Povm(effects=[half.copy(), half.copy()], labels=["x", "y"]),
            Povm(effects, ("x", "z")),
            ("effects", "labels"),
            "Povm(effects=(Effect(matrix=(((0.5+0j), 0j), (0j, (0.5+0j)))), Effect(",
        ),
    ]


@pytest.mark.parametrize("case", value_cases(), ids=lambda case: type(case[0]).__name__)
def test_value_semantics(case):
    value, by_keyword, other, names, start = case
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{type(value).__name__}({fields})"
    assert repr(value).startswith(start)
    assert repr(by_keyword) == repr(value)
    assert value == value and not value != value
    assert value == by_keyword and not value != by_keyword
    assert hash(value) == hash(by_keyword)
    assert value != other and not value == other
    assert value != object() and value != fields
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(by_keyword, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == repr(by_keyword)


def test_stored_as_tuples_of_complex():
    amps = np.array([1.0, 0.0])
    half = 0.5 * np.eye(2)
    psi, rho, effect = StateVector(amps), DensityOperator(half), Effect(half)
    povm = Povm([half, half], [0, 1])
    stored = [rho.matrix, effect.matrix, *(e.matrix for e in povm.effects)]
    amps[:] = (0.0, 1.0)
    half[0, 0] = 0.0
    assert type(psi.amplitudes) is tuple and all(type(z) is complex for z in psi.amplitudes)
    with pytest.raises(TypeError):
        psi.amplitudes[0] = 1.0
    for matrix in stored:
        assert type(matrix) is tuple and all(type(row) is tuple for row in matrix)
        assert all(type(z) is complex for row in matrix for z in row)
        with pytest.raises(TypeError):
            matrix[0] = (1.0, 0.0)
        with pytest.raises(TypeError):
            matrix[0][0] = 1.0
    assert psi.amplitudes == (1.0, 0.0)
    for matrix in stored:
        assert matrix == ((0.5, 0.0), (0.0, 0.5))
    assert type(povm.effects) is tuple and all(type(e) is Effect for e in povm.effects)
    assert povm.labels == (0, 1) and type(povm.labels) is tuple


# ---------------------------------------------------------------------------
# Born rule


def test_born_on_basis_state():
    rho = DensityOperator.from_state(basis_state(2, 0))
    assert born_distribution(rho, basis_povm(2)) == (1.0, 0.0)


def test_born_on_plus_state():
    rho = DensityOperator.from_state(plus_state())
    assert born_distribution(rho, basis_povm(2)) == pytest.approx((0.5, 0.5))


def test_born_dimension_mismatch():
    rho = DensityOperator.from_state(basis_state(2, 0))
    with pytest.raises(DimensionError):
        born_distribution(rho, basis_povm(3))


def test_born_clamps_roundoff_negatives():
    # a projector orthogonal to the state gives trace ~ -1e-17 on bad days;
    # emulate with an effect that is legal but numerically noisy
    eps = 1e-12
    e0 = np.array([[1.0, 0.0], [0.0, eps]])
    e1 = np.array([[0.0, 0.0], [0.0, 1.0 - eps]])
    rho = DensityOperator.from_state(basis_state(2, 0))
    probs = born_distribution(rho, Povm(effects=(Effect(e0), Effect(e1)), labels=(0, 1)))
    assert probs[0] == pytest.approx(1.0)
    assert sum(probs) == pytest.approx(1.0)


def test_born_valid_over_random_states_and_povms():
    rng = np.random.default_rng(2023)
    for k in range(1000):
        dim = 2 + k % 3
        rho = random_density(dim, rng)
        if k % 2:
            povm = basis_povm(dim)
        else:
            psi = np.array(random_state(dim, rng).amplitudes)
            p = np.outer(psi, psi.conj())
            povm = Povm(effects=(Effect(p), Effect(np.eye(dim) - p)), labels=("hit", "miss"))
        probs = born_distribution(rho, povm)
        assert len(probs) == len(povm.labels)
        assert all(p >= 0.0 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# tensor


def test_tensor_state_ordering():
    psi = tensor(basis_state(2, 0), basis_state(3, 1))
    assert psi.dim == 6
    assert psi.amplitudes[1] == 1.0  # left factor is the slow index


def test_tensor_preserves_wrapper_types():
    rho = DensityOperator.from_state(basis_state(2, 0))
    sigma = DensityOperator.from_state(basis_state(3, 2))
    joint = tensor(rho, sigma)
    assert isinstance(joint, DensityOperator)
    assert joint.dim == 6
    raw = tensor(PAULI_X, PAULI_Z)
    assert type(raw) is tuple and len(raw) == 4 and all(type(row) is tuple and len(row) == 4 for row in raw)
    assert np.array_equal(raw, np.kron(PAULI_X, PAULI_Z))


def test_paulis_square_to_identity():
    for p in map(np.array, (PAULI_X, PAULI_Y, PAULI_Z)):
        assert np.allclose(p @ p, np.eye(2))
        assert np.allclose(p, p.conj().T)


# ---------------------------------------------------------------------------
# helpers


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(50):
        psi = random_state(3, rng)
        phi = random_state(3, rng)
        assert overlap(psi, phi) == pytest.approx(np.conj(overlap(phi, psi)))


def test_overlap_requires_matching_dims():
    with pytest.raises(DimensionError):
        overlap(basis_state(2, 0), basis_state(3, 0))


def test_basis_state_bounds():
    with pytest.raises(DimensionError):
        basis_state(2, 2)


def test_random_state_normalized():
    rng = np.random.default_rng(21)
    for dim in (2, 3, 5):
        psi = random_state(dim, rng)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)


def test_random_density_is_valid_and_full_rank():
    rng = np.random.default_rng(34)
    for dim in (2, 3, 4):
        rho = random_density(dim, rng)
        vals = np.linalg.eigvalsh(rho.matrix)
        assert vals.min() > 0.0
        assert np.trace(rho.matrix).real == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# plain-Python arithmetic against numpy's, the reference


def hermitian_cases(rng):
    """Random Hermitian matrices of dimension 1-8 and 16 at scales from 1e-200 to
    1e200, every third one with a degenerate spectrum of -1, 0 and 2."""
    for dim in [*range(1, 9), 16]:
        for k in range(12):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            if k % 3 == 0:
                u, _ = np.linalg.qr(g)
                h = u @ np.diag(rng.choice([-1.0, 0.0, 2.0], size=dim)) @ u.conj().T
                yield (h + h.conj().T) / 2
            else:
                yield (g + g.conj().T) * [1e-200, 1e-5, 1.0, 1e5, 1e200][k % 5]


def test_extreme_eigenvalues_match_numpy():
    for h in hermitian_cases(np.random.default_rng(5)):
        vals = np.linalg.eigvalsh(h)
        _, lo, hi = _hermitian_spectrum(h, "operator")
        scale = np.abs(vals).max()
        assert abs(lo - vals[0]) <= 1e-13 * scale and abs(hi - vals[-1]) <= 1e-13 * scale


def test_plain_sums_match_numpy():
    rng = np.random.default_rng(6)
    for dim in (1, 2, 3, 4, 7):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert trace_product(a.tolist(), b.tolist()) == pytest.approx(np.trace(a @ b).real, rel=1e-12, abs=1e-12)
        psi, phi = random_state(dim, rng), random_state(dim, rng)
        assert overlap(psi, phi) == pytest.approx(np.vdot(psi.amplitudes, phi.amplitudes), rel=1e-12, abs=1e-15)
        assert _norm(a[0]) == pytest.approx(np.linalg.norm(a[0]), rel=1e-15)


def test_dimension_bound():
    assert StateVector([1.0] + [0.0] * (MAX_DIM - 1)).dim == MAX_DIM
    with pytest.raises(DimensionError, match=f"dimension {MAX_DIM + 1}, above the bound {MAX_DIM}"):
        StateVector([1.0] + [0.0] * MAX_DIM)
    with pytest.raises(DimensionError, match="above the bound"):
        Effect(np.zeros((MAX_DIM + 1, MAX_DIM + 1)))


def test_non_finite_entries_are_rejected():
    for value in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="non-finite entry"):
            StateVector([value, 1.0])
        with pytest.raises(ValueError, match="non-finite entry"):
            DensityOperator([[1.0, value], [value, 0.0]])


def test_random_generation_is_seed_deterministic():
    a = random_density(3, np.random.default_rng(99))
    b = random_density(3, np.random.default_rng(99))
    assert a.matrix == b.matrix
