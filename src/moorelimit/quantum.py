"""Dense complex linear algebra for states, effects, POVMs and Born-rule statistics.

Everything is a plain numpy array under a thin validated wrapper, an immutable
value like a ``Machine`` that compares and hashes by its arrays' shapes and
entries.  Dimensions stay at desk scale (<= 64), so validation
always runs eagerly and arrays are frozen after construction to keep every
operation deterministic.  One tolerance, ``TAU_NUM``, bounds every check.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .machines import _Value

#: Numerical tolerance for every invariant: normalization, Hermiticity, positivity, trace.
TAU_NUM = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


def _as_matrix(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    m.setflags(write=False)
    return m


def _hermitian_spectrum(matrix, what: str) -> tuple[np.ndarray, float, float]:
    """The frozen square matrix of a Hermitian operator, with its least and
    greatest eigenvalue; the one Hermiticity check of every operator type."""
    m = _as_matrix(matrix)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if not dev <= TAU_NUM:  # NaN fails too
        raise ValueError(f"{what} not Hermitian (deviation {dev})")
    vals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return m, float(vals[0]), float(vals[-1])


class _ArrayValue(_Value):
    """A value over numpy arrays, compared and hashed by their shapes and entries."""

    def _key(self) -> tuple:
        return tuple([(a.shape, tuple(a.ravel().tolist())) for a in super()._key()])

    @property
    def dim(self) -> int:
        return getattr(self, self._fields[0]).shape[0]


class StateVector(_ArrayValue):
    """A unit vector in a finite-dimensional complex Hilbert space."""

    _fields = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise DimensionError("state vector needs dimension >= 1")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= TAU_NUM:  # NaN fails too
            raise ValueError(f"state vector norm {norm} deviates from 1 beyond {TAU_NUM}")
        amps.setflags(write=False)
        self.__dict__["amplitudes"] = amps


class DensityOperator(_ArrayValue):
    """Hermitian, positive semidefinite, unit-trace operator."""

    _fields = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m, lo, _ = _hermitian_spectrum(matrix, "density operator")
        if lo < -TAU_NUM:
            raise ValueError(f"density operator has negative eigenvalue {lo}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TAU_NUM:
            raise ValueError(f"density operator trace {tr} deviates from 1")
        self.__dict__["matrix"] = m

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityOperator":
        return cls(np.outer(psi.amplitudes, psi.amplitudes.conj()))


class Effect(_ArrayValue):
    """A POVM element: Hermitian with spectrum inside [0, 1]."""

    _fields = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m, lo, hi = _hermitian_spectrum(matrix, "effect")
        if lo < -TAU_NUM or hi > 1.0 + TAU_NUM:
            raise ValueError(f"effect spectrum [{lo}, {hi}] outside [0, 1]")
        self.__dict__["matrix"] = m


class Povm(_Value):
    """An ordered, labelled collection of effects summing to the identity."""

    _fields = ("effects", "labels")

    def __init__(self, effects: Sequence, labels: Sequence[str | int]):
        effects = tuple(e if isinstance(e, Effect) else Effect(e) for e in effects)
        if not effects:
            raise ValueError("a POVM has at least one effect")
        labels = tuple(labels)
        if len(labels) != len(effects):
            raise ValueError("one label per effect required")
        if len(set(labels)) != len(labels):
            raise ValueError("POVM outcome labels must be distinct")
        dim = effects[0].dim
        for e in effects:
            if e.dim != dim:
                raise DimensionError("all effects of a POVM share one dimension")
        total = sum(e.matrix for e in effects)
        dev = float(np.max(np.abs(total - np.eye(dim))))
        if dev > TAU_NUM:
            raise ValueError(f"effects sum deviates from identity by {dev}")
        self.__dict__.update(effects=effects, labels=labels)

    @property
    def dim(self) -> int:
        return self.effects[0].dim


def born_distribution(rho: DensityOperator, povm: Povm) -> tuple[float, ...]:
    """Outcome probabilities p_i = trace(rho E_i), in ``povm.labels`` order.

    Roundoff negatives within ``TAU_NUM`` are clamped to zero and the
    distribution renormalized; anything worse is rejected as invalid input.
    """
    if rho.dim != povm.dim:
        raise DimensionError(f"state dim {rho.dim} != POVM dim {povm.dim}")
    probs = []
    for e in povm.effects:
        p = float(np.trace(rho.matrix @ e.matrix).real)
        if p < -TAU_NUM:
            raise ValueError(f"probability {p} below zero beyond tolerance")
        probs.append(min(max(p, 0.0), 1.0))
    total = sum(probs)
    if abs(total - 1.0) > TAU_NUM:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return tuple(p / total for p in probs)


def tensor(a, b):
    """Kronecker product; the left factor carries the slow (coarse) index.

    Two state vectors give a state vector, two operators of the same wrapper
    type give that type, raw arrays (or mixed operands) give a raw array.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    for cls in (DensityOperator, Effect):
        if isinstance(a, cls) and isinstance(b, cls):
            return cls(np.kron(a.matrix, b.matrix))
    mat_a = a.matrix if isinstance(a, (DensityOperator, Effect)) else np.asarray(a)
    mat_b = b.matrix if isinstance(b, (DensityOperator, Effect)) else np.asarray(b)
    return np.kron(mat_a, mat_b)


def overlap(psi: StateVector, phi: StateVector) -> complex:
    """Inner product <psi|phi>."""
    if psi.dim != phi.dim:
        raise DimensionError(f"state dims differ: {psi.dim} vs {phi.dim}")
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector |index> in the given dimension."""
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} outside dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def basis_povm(dim: int, labels: Sequence | None = None) -> Povm:
    """Projective POVM onto the computational basis."""
    if labels is None:
        labels = tuple(range(dim))
    effects = []
    for i in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i] = 1.0
        effects.append(Effect(m))
    return Povm(effects=tuple(effects), labels=tuple(labels))


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state: normalized complex Gaussian vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(v / np.linalg.norm(v))


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Full-rank random density operator via the Ginibre construction G G†/tr."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)
