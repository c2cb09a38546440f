"""POVM-equipped observers and the observable-dependent exchange symmetry.

An observer is a named, finite set of POVMs over one environment dimension:
whatever its POVMs cannot resolve can be exchanged without changing any
recorded statistics.  The module covers the quantum form of that statement
(lifting a POVM over extra degrees of freedom it is blind to), in the plain
Python of :mod:`moorelimit.quantum`.  Its bench-top caricature, a saturating
integer-count radiation detector that reads the same number for distinct
sources, is :mod:`moorelimit.detector`.

An observer's statistics map each POVM name to its Born probabilities in label
order.  Two such maps are compared by their largest difference; the caller
decides which tolerance makes them indistinguishable.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .machines import _Value
from .quantum import (
    DensityOperator,
    DimensionError,
    Effect,
    Povm,
    _identity,
    born_distribution,
    kron,
)


class StructureError(ValueError):
    """Two statistics maps are not comparable (names or outcomes differ)."""


class ObserverModel(_Value):
    """A finite collection of named POVMs, all over the same environment dimension,
    held in a read-only mapping."""

    _fields = ("env_dim", "povms")

    def __init__(self, env_dim: int, povms: Mapping[str, Povm]):
        if env_dim < 1:
            raise DimensionError("environment dimension must be >= 1")
        povms = dict(povms)
        if not povms:
            raise ValueError("an observer carries at least one POVM")
        for name, povm in povms.items():
            if povm.dim != env_dim:
                raise DimensionError(
                    f"POVM {name!r} has dim {povm.dim}, observer expects {env_dim}"
                )
        self.__dict__.update(env_dim=env_dim, povms=MappingProxyType(povms))

    def _key(self) -> tuple:
        # a mapping proxy is unhashable; equal mappings give equal frozensets
        return (self.env_dim, frozenset(self.povms.items()))


def lift_povm(povm: Povm, extra_dim: int) -> Povm:
    """Extend each effect as E -> E tensor I over degrees of freedom the POVM ignores.

    Born statistics through the lifted POVM cannot depend on the extra factor:
    trace((E tensor I)(rho tensor sigma)) = trace(E rho).
    """
    if extra_dim < 1:
        raise DimensionError("extra dimension must be >= 1")
    eye = _identity(extra_dim)
    effects = tuple(Effect(kron(e.matrix, eye)) for e in povm.effects)
    return Povm(effects=effects, labels=povm.labels)


def outcome_statistics(
    rho: DensityOperator, observer: ObserverModel
) -> dict[str, tuple[float, ...]]:
    """Born distribution of every POVM the observer carries, in its labels' order;
    :func:`moorelimit.quantum.born_distribution` refuses a state of another dimension."""
    return {name: born_distribution(rho, povm) for name, povm in observer.povms.items()}


def max_deviation(
    stats_a: Mapping[str, tuple[float, ...]], stats_b: Mapping[str, tuple[float, ...]]
) -> float:
    """The largest difference between two statistics maps, probability by probability."""
    if set(stats_a) != set(stats_b):
        raise StructureError(
            f"POVM names differ: {sorted(map(str, stats_a))} vs {sorted(map(str, stats_b))}"
        )
    worst = -1.0
    for name, probs_a in stats_a.items():
        probs_b = stats_b[name]
        if len(probs_a) != len(probs_b):
            raise StructureError(f"outcome counts differ under POVM {name!r}")
        for p_a, p_b in zip(probs_a, probs_b):
            worst = max(worst, abs(p_a - p_b))
    return worst
