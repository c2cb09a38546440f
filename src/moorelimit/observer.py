"""POVM-equipped observers and the observable-dependent exchange symmetry.

An observer is a named, finite set of POVMs over one environment dimension:
whatever its POVMs cannot resolve can be exchanged without changing any
recorded statistics.  The module covers the quantum form of that statement
(lifting a POVM over extra degrees of freedom it is blind to).  Its bench-top
caricature, a saturating integer-count radiation detector that reads the same
number for distinct sources, is :mod:`moorelimit.detector`, which needs no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Union

import numpy as np

from .quantum import (
    DensityOperator,
    DimensionError,
    Effect,
    OutcomeDistribution,
    Povm,
    TAU_NUM,
    born_distribution,
)


class StructureError(ValueError):
    """Two statistics maps are not comparable (names or outcomes differ)."""


@dataclass(frozen=True)
class ObserverModel:
    """A finite collection of named POVMs, all over the same environment dimension."""

    env_dim: int
    povms: Mapping[str, Povm]

    def __post_init__(self):
        if self.env_dim < 1:
            raise DimensionError("environment dimension must be >= 1")
        povms = dict(self.povms)
        if not povms:
            raise ValueError("an observer carries at least one POVM")
        for name, povm in povms.items():
            if povm.dim != self.env_dim:
                raise DimensionError(
                    f"POVM {name!r} has dim {povm.dim}, observer expects {self.env_dim}"
                )
        object.__setattr__(self, "povms", MappingProxyType(povms))


@dataclass(frozen=True)
class StatisticsComparison:
    """Result of matching two statistics maps probability by probability."""

    indistinguishable: bool
    max_deviation: float
    at_povm: str
    at_label: Union[str, int]


def lift_povm(povm: Povm, extra_dim: int) -> Povm:
    """Extend each effect as E -> E tensor I over degrees of freedom the POVM ignores.

    Born statistics through the lifted POVM cannot depend on the extra factor:
    trace((E tensor I)(rho tensor sigma)) = trace(E rho).
    """
    if extra_dim < 1:
        raise DimensionError("extra dimension must be >= 1")
    eye = np.eye(extra_dim)
    effects = tuple(Effect(np.kron(e.matrix, eye)) for e in povm.effects)
    return Povm(effects=effects, labels=povm.labels)


def outcome_statistics(
    rho: DensityOperator, observer: ObserverModel
) -> dict[str, OutcomeDistribution]:
    """Born distribution of every POVM the observer carries."""
    if rho.dim != observer.env_dim:
        raise DimensionError(
            f"state dim {rho.dim} != observer environment dim {observer.env_dim}"
        )
    return {name: born_distribution(rho, povm) for name, povm in observer.povms.items()}


def indistinguishable(
    stats_a: Mapping[str, OutcomeDistribution],
    stats_b: Mapping[str, OutcomeDistribution],
    tolerance: float = TAU_NUM,
) -> StatisticsComparison:
    """Whether two statistics maps agree within tolerance, and where they differ most."""
    if set(stats_a) != set(stats_b):
        raise StructureError(
            f"POVM names differ: {sorted(map(str, stats_a))} vs {sorted(map(str, stats_b))}"
        )
    worst = -1.0
    at_povm = at_label = None
    for name, dist_a in stats_a.items():
        dist_b = stats_b[name]
        if dist_a.labels != dist_b.labels:
            raise StructureError(f"outcome labels differ under POVM {name!r}")
        for label, p_a, p_b in zip(dist_a.labels, dist_a.probabilities, dist_b.probabilities):
            dev = abs(p_a - p_b)
            if dev > worst:
                worst, at_povm, at_label = dev, name, label
    return StatisticsComparison(
        indistinguishable=worst <= tolerance,
        max_deviation=worst,
        at_povm=at_povm,
        at_label=at_label,
    )
