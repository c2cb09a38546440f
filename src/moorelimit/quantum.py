"""Dense complex linear algebra for states, effects, POVMs and Born-rule statistics.

Everything is plain Python: a vector is a tuple of ``complex`` and a matrix a
tuple of such rows, held by a thin validated wrapper, an immutable value like
a ``Machine`` that compares and hashes by its entries.  Constructors accept
any array-like, numpy arrays included.  Dimensions stay at desk scale
(``MAX_DIM``), so validation always runs eagerly; a cyclic Jacobi routine
gives the extreme eigenvalues.  Every reported quantity (:func:`overlap`,
:func:`trace_product` behind :func:`born_distribution` and the CHSH
correlator, the norm in :func:`random_state`) is summed in one fixed order
without BLAS, so the same inputs give the same bits on every CPU.  numpy is
needed only to draw: :func:`random_state` and :func:`random_density` take a
numpy ``Generator``.  One tolerance, ``TAU_NUM``, bounds every check.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence

from .machines import _Value

#: Numerical tolerance for every invariant: normalization, Hermiticity, positivity, trace.
TAU_NUM = 1e-9

#: The largest dimension a state or operator may have; a Jacobi sweep costs dim**3.
MAX_DIM = 64

#: Cyclic Jacobi sweeps before the diagonal is taken as it stands.
JACOBI_SWEEPS = 50

PAULI_X = ((0j, 1 + 0j), (1 + 0j, 0j))
PAULI_Y = ((0j, -1j), (1j, 0j))
PAULI_Z = ((1 + 0j, 0j), (0j, -1 + 0j))


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


def _entries(values, what: str) -> tuple[complex, ...]:
    """``values`` as a tuple of finite ``complex``."""
    entries = tuple(map(complex, values))
    for z in entries:
        if not cmath.isfinite(z):
            raise ValueError(f"{what} has a non-finite entry {z}")
    return entries


def _check_dim(n: int, what: str) -> None:
    if n < 1:
        raise DimensionError(f"{what} needs dimension >= 1")
    if n > MAX_DIM:
        raise DimensionError(f"{what} has dimension {n}, above the bound {MAX_DIM}")


def _rows(matrix) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(map(complex, row)) for row in matrix)


def _matrix(matrix, what: str) -> tuple[tuple[complex, ...], ...]:
    """``matrix`` as a square tuple of rows of finite ``complex``."""
    try:
        rows = [tuple(row) for row in matrix]
    except TypeError:
        raise DimensionError(f"expected a square matrix, got {type(matrix).__name__}") from None
    lengths = sorted({len(row) for row in rows})
    if lengths not in ([], [len(rows)]):
        raise DimensionError(f"expected a square matrix, got {len(rows)} rows of length {lengths}")
    _check_dim(len(rows), what)
    return tuple(_entries(row, what) for row in rows)


def _identity(dim: int) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(complex(i == j) for j in range(dim)) for i in range(dim))


def _adjoint(m) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(row[i].conjugate() for row in m) for i in range(len(m)))


def _total(values):
    """The sum of ``values``, floats or complex, added left to right (``sum``
    rounds otherwise on Python 3.12+)."""
    total = 0.0
    for z in values:
        total += z
    return total


def max_entry_difference(a, b) -> float:
    """The largest modulus of an entry of ``a - b``, two matrices of one shape."""
    return max(
        math.hypot(d.real, d.imag)  # abs() of a complex raises where hypot gives inf
        for row_a, row_b in zip(a, b)
        for d in (x - y for x, y in zip(row_a, row_b))
    )


def trace_product(a, b) -> float:
    """The real part of trace(a b): each row sum of a_ik b_ki in k order, the rows
    added in i order, in plain ``complex`` arithmetic."""
    total = 0.0
    for i, row in enumerate(a):
        part = 0.0
        for k, x in enumerate(row):
            part += (x * b[k][i]).real
        total += part
    return total


def _extreme_eigenvalues(h: list[list[complex]]) -> tuple[float, float]:
    """The least and greatest eigenvalue of the Hermitian matrix ``h`` (rows of
    ``complex``, overwritten) by cyclic Jacobi rotations.

    The entries are first scaled by a power of two to at most 1 in modulus, so
    no product overflows.  Sweeps stop when the off-diagonal part is below
    1e-16 of the whole in Frobenius norm, which bounds the eigenvalues' error
    far inside ``TAU_NUM``, or after ``JACOBI_SWEEPS`` sweeps.
    """
    n = len(h)
    big = max(max(abs(z.real), abs(z.imag)) for row in h for z in row)
    if big == 0.0:
        return 0.0, 0.0
    e = math.frexp(big)[1]
    for row in h:
        row[:] = [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in row]
    whole = sum(z.real * z.real + z.imag * z.imag for row in h for z in row)
    for _ in range(JACOBI_SWEEPS):
        off = sum(
            z.real * z.real + z.imag * z.imag for p in range(n) for q, z in enumerate(h[p]) if q != p
        )
        if off <= 1e-32 * whole:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = h[p][q]
                r = math.hypot(b.real, b.imag)
                if r == 0.0:
                    continue
                # U = diag(1, conj(phase)) on (p, q) makes h[p][q] real, then a
                # real rotation by t = tan(angle) zeroes it; h <- U^H h U
                phase = complex(b.real / r, b.imag / r)
                alpha, beta = h[p][p].real, h[q][q].real
                theta = (beta - alpha) / (2.0 * r)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                sw, cw = s * phase.conjugate(), c * phase.conjugate()
                for row in h:
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - sw * y, s * x + cw * y
                sp, cp = s * phase, c * phase
                hp, hq = h[p], h[q]
                h[p] = [c * x - sp * y for x, y in zip(hp, hq)]
                h[q] = [s * x + cp * y for x, y in zip(hp, hq)]
                h[p][q] = h[q][p] = 0j
                h[p][p], h[q][q] = complex(alpha - t * r), complex(beta + t * r)
    diagonal = [h[i][i].real for i in range(n)]
    return _unscaled(min(diagonal), e), _unscaled(max(diagonal), e)


def _unscaled(x: float, e: int) -> float:
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _hermitian_spectrum(matrix, what: str) -> tuple[tuple, float, float]:
    """The square matrix of a Hermitian operator, with its least and greatest
    eigenvalue; the one Hermiticity check of every operator type."""
    m = _matrix(matrix, what)
    adjoint = _adjoint(m)
    dev = max_entry_difference(m, adjoint)
    if not dev <= TAU_NUM:
        raise ValueError(f"{what} not Hermitian (deviation {dev})")
    # halve before adding, so entries near the float range cannot overflow
    h = [[0.5 * x + 0.5 * y for x, y in zip(row, row_adj)] for row, row_adj in zip(m, adjoint)]
    lo, hi = _extreme_eigenvalues(h)
    return m, lo, hi


class _ArrayValue(_Value):
    """A value over a vector or a matrix of ``complex``, stored as tuples."""

    @property
    def dim(self) -> int:
        return len(getattr(self, self._fields[0]))


class StateVector(_ArrayValue):
    """A unit vector in a finite-dimensional complex Hilbert space."""

    _fields = ("amplitudes",)

    def __init__(self, amplitudes: Sequence):
        amps = _entries(amplitudes, "state vector")
        _check_dim(len(amps), "state vector")
        norm = _norm(amps)
        if not abs(norm - 1.0) <= TAU_NUM:
            raise ValueError(f"state vector norm {norm} deviates from 1 beyond {TAU_NUM}")
        self.__dict__["amplitudes"] = amps


class DensityOperator(_ArrayValue):
    """Hermitian, positive semidefinite, unit-trace operator."""

    _fields = ("matrix",)

    def __init__(self, matrix: Sequence):
        m, lo, _ = _hermitian_spectrum(matrix, "density operator")
        if lo < -TAU_NUM:
            raise ValueError(f"density operator has negative eigenvalue {lo}")
        tr = _total(m[i][i] for i in range(len(m)))
        if abs(tr - 1.0) > TAU_NUM:
            raise ValueError(f"density operator trace {tr} deviates from 1")
        self.__dict__["matrix"] = m

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityOperator":
        amps = psi.amplitudes
        return cls(tuple(tuple(x * y.conjugate() for y in amps) for x in amps))


class Effect(_ArrayValue):
    """A POVM element: Hermitian with spectrum inside [0, 1]."""

    _fields = ("matrix",)

    def __init__(self, matrix: Sequence):
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
        total = [
            [_total(e.matrix[i][j] for e in effects) for j in range(dim)] for i in range(dim)
        ]
        dev = max_entry_difference(total, _identity(dim))
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
        p = trace_product(rho.matrix, e.matrix)
        if p < -TAU_NUM:
            raise ValueError(f"probability {p} below zero beyond tolerance")
        probs.append(min(max(p, 0.0), 1.0))
    total = _total(probs)
    if abs(total - 1.0) > TAU_NUM:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return tuple(p / total for p in probs)


def kron(a, b) -> tuple[tuple[complex, ...], ...]:
    """Kronecker product of two matrices given as sequences of rows; the left
    factor carries the slow (coarse) index."""
    return tuple(tuple(x * y for x in row_a for y in row_b) for row_a in _rows(a) for row_b in _rows(b))


def tensor(a, b):
    """Kronecker product; the left factor carries the slow (coarse) index.

    Two state vectors give a state vector, two operators of the same wrapper
    type give that type, raw matrices (or mixed operands) give a raw matrix,
    a tuple of rows.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(tuple(x * y for x in a.amplitudes for y in b.amplitudes))
    for cls in (DensityOperator, Effect):
        if isinstance(a, cls) and isinstance(b, cls):
            return cls(kron(a.matrix, b.matrix))
    mat_a = a.matrix if isinstance(a, (DensityOperator, Effect)) else a
    mat_b = b.matrix if isinstance(b, (DensityOperator, Effect)) else b
    return kron(mat_a, mat_b)


def overlap(psi: StateVector, phi: StateVector) -> complex:
    """Inner product <psi|phi>, its terms added in index order."""
    if psi.dim != phi.dim:
        raise DimensionError(f"state dims differ: {psi.dim} vs {phi.dim}")
    return _total(x.conjugate() * y for x, y in zip(psi.amplitudes, phi.amplitudes))


def _norm(amps) -> float:
    """The Euclidean norm of a vector of ``complex``, its squares added in index order."""
    return math.sqrt(_total(z.real * z.real + z.imag * z.imag for z in amps))


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector |index> in the given dimension."""
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} outside dimension {dim}")
    return StateVector(_identity(dim)[index])


def basis_povm(dim: int, labels: Sequence | None = None) -> Povm:
    """Projective POVM onto the computational basis."""
    if labels is None:
        labels = tuple(range(dim))
    effects = []
    for i in range(dim):
        m = [[0j] * dim for _ in range(dim)]
        m[i][i] = 1 + 0j
        effects.append(Effect(m))
    return Povm(effects=tuple(effects), labels=tuple(labels))


def _complex_draws(rng, shape):
    """Standard normal real parts, then imaginary parts, drawn from the numpy ``Generator`` ``rng``."""
    return rng.standard_normal(shape).tolist(), rng.standard_normal(shape).tolist()


def random_state(dim: int, rng) -> StateVector:
    """Haar-ish random pure state: a complex Gaussian vector drawn from the numpy
    ``Generator`` ``rng``, times the reciprocal of its norm."""
    v = list(map(complex, *_complex_draws(rng, dim)))
    scale = 1.0 / _norm(v)
    return StateVector([complex(z.real * scale, z.imag * scale) for z in v])


def random_density(dim: int, rng) -> DensityOperator:
    """Full-rank random density operator via the Ginibre construction G G†/tr,
    G drawn from the numpy ``Generator`` ``rng``."""
    g = [list(map(complex, *rows)) for rows in zip(*_complex_draws(rng, (dim, dim)))]
    m = [[_total(x * y.conjugate() for x, y in zip(gi, gj)) for gj in g] for gi in g]
    tr = _total(m[i][i].real for i in range(dim))
    return DensityOperator([[z / tr for z in row] for row in m])
