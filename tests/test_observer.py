import math
from types import MappingProxyType

import numpy as np
import pytest

from moorelimit.detector import (
    DetectorConfig,
    SourceConfig,
    expected_count_rate,
    geiger_outcome,
    sample_geiger_counts,
)
from moorelimit.observer import (
    ObserverModel,
    StructureError,
    lift_povm,
    max_deviation,
    outcome_statistics,
)
from moorelimit.quantum import (
    DimensionError,
    basis_povm,
    born_distribution,
    random_density,
    tensor,
)

STOCK_DETECTOR = DetectorConfig(aperture_diameter=2.0, efficiency=0.008, saturation=100)
NEAR = SourceConfig(activity=3.7e6, distance=100.0)
FAR = SourceConfig(activity=1.48e7, distance=200.0)


# ---------------------------------------------------------------------------
# POVM lifting / statistics-level exchange symmetry


def test_lift_povm_adds_blind_factor():
    lifted = lift_povm(basis_povm(2), 3)
    assert lifted.dim == 6
    assert lifted.labels == (0, 1)
    total = sum(np.array(e.matrix) for e in lifted.effects)
    assert np.allclose(total, np.eye(6))


def test_lift_povm_rejects_bad_dimension():
    with pytest.raises(DimensionError):
        lift_povm(basis_povm(2), 0)


def test_lifted_statistics_ignore_the_extra_factor():
    rng = np.random.default_rng(61)
    for d_sys, d_env in ((2, 2), (2, 3), (3, 2)):
        for _ in range(20):
            rho = random_density(d_sys, rng)
            sigma = random_density(d_env, rng)
            povm = basis_povm(d_sys)
            direct = born_distribution(rho, povm)
            joint = born_distribution(tensor(rho, sigma), lift_povm(povm, d_env))
            for p, q in zip(direct, joint):
                assert abs(p - q) <= 1e-12


def test_outcome_statistics_runs_every_povm():
    observer = ObserverModel(
        env_dim=2, povms={"z": basis_povm(2), "z2": basis_povm(2, labels=("u", "d"))}
    )
    rho = random_density(2, np.random.default_rng(3))
    stats = outcome_statistics(rho, observer)
    assert set(stats) == {"z", "z2"}
    assert stats["z"] == stats["z2"]


def test_outcome_statistics_checks_dimension():
    observer = ObserverModel(env_dim=2, povms={"z": basis_povm(2)})
    with pytest.raises(DimensionError):
        outcome_statistics(random_density(3, np.random.default_rng(4)), observer)


def test_observer_rejects_mismatched_povm_dim():
    with pytest.raises(DimensionError):
        ObserverModel(env_dim=3, povms={"z": basis_povm(2)})


def test_observer_value_semantics():
    povms = {"z": basis_povm(2)}
    model = ObserverModel(2, povms)
    assert repr(model) == f"ObserverModel(env_dim=2, povms={model.povms!r})"
    assert repr(model).startswith("ObserverModel(env_dim=2, povms=mappingproxy({'z': Povm(effects=(Effect(matrix=(((1+0j), 0j), (0j, 0j))), ")
    assert repr(ObserverModel(env_dim=2, povms=povms)) == repr(model)
    assert model == model and not model != model
    same = ObserverModel(env_dim=2, povms={"z": basis_povm(2)})
    assert model == same and not model != same
    assert hash(model) == hash(same)
    for other in (
        ObserverModel(2, {"z": basis_povm(2, labels=("u", "d"))}),
        ObserverModel(2, {"x": basis_povm(2)}),
        ObserverModel(2, {"z": basis_povm(2), "x": basis_povm(2)}),
    ):
        assert model != other and not model == other
    assert model != object()
    for name in ("env_dim", "povms"):
        with pytest.raises(AttributeError):
            setattr(model, name, getattr(model, name))
        with pytest.raises(AttributeError):
            delattr(model, name)
    with pytest.raises(AttributeError):
        model.extra = 1


def test_observer_povms_are_a_read_only_mapping():
    z = basis_povm(2)
    povms = {"z": z}
    model = ObserverModel(env_dim=2, povms=povms)
    povms["x"] = basis_povm(2)
    assert type(model.povms) is MappingProxyType
    assert dict(model.povms) == {"z": z}
    with pytest.raises(TypeError):
        model.povms["x"] = z
    with pytest.raises(TypeError):
        del model.povms["z"]
    assert dict(model.povms) == {"z": z}


def test_indistinguishable_reports_worst_deviation():
    observer = ObserverModel(env_dim=2, povms={"z": basis_povm(2)})
    rng = np.random.default_rng(7)
    rho = random_density(2, rng)
    stats = outcome_statistics(rho, observer)
    assert max_deviation(stats, stats) == 0.0

    other = outcome_statistics(random_density(2, rng), observer)
    assert max_deviation(stats, other) == max(abs(p - q) for p, q in zip(stats["z"], other["z"]))
    assert max_deviation(stats, other) > 1e-3


def test_indistinguishable_requires_matching_structure():
    observer_a = ObserverModel(env_dim=2, povms={"z": basis_povm(2)})
    observer_b = ObserverModel(env_dim=2, povms={"x": basis_povm(2)})
    rho = random_density(2, np.random.default_rng(9))
    with pytest.raises(StructureError, match="POVM names differ"):
        max_deviation(outcome_statistics(rho, observer_a), outcome_statistics(rho, observer_b))
    with pytest.raises(StructureError, match="outcome counts differ under POVM 'z'"):
        max_deviation({"z": (0.5, 0.5)}, {"z": (0.25, 0.25, 0.5)})


# ---------------------------------------------------------------------------
# deterministic counter model


def test_stock_sources_rate_and_outcome():
    assert expected_count_rate(NEAR, STOCK_DETECTOR) == pytest.approx(0.74, abs=1e-12)
    assert expected_count_rate(FAR, STOCK_DETECTOR) == pytest.approx(0.74, abs=1e-12)
    assert geiger_outcome(NEAR, STOCK_DETECTOR) == geiger_outcome(FAR, STOCK_DETECTOR) == 1


def test_rate_formula_point_source():
    src = SourceConfig(activity=1000.0, distance=10.0, photon_yield=0.5)
    det = DetectorConfig(aperture_diameter=4.0, efficiency=0.25)
    flux = 1000.0 * 0.5 / (4.0 * math.pi * 100.0)
    assert expected_count_rate(src, det) == pytest.approx(flux * math.pi * 4.0 * 0.25)


def test_outcome_rounds_half_up():
    det = DetectorConfig(aperture_diameter=2.0, efficiency=0.5)
    # rate = activity / 8 with these parameters
    assert expected_count_rate(SourceConfig(4.0, 1.0), det) == pytest.approx(0.5)
    assert geiger_outcome(SourceConfig(4.0, 1.0), det) == 1
    assert geiger_outcome(SourceConfig(3.9, 1.0), det) == 0
    assert geiger_outcome(SourceConfig(12.0, 1.0), det) == 2  # 1.5 rounds up


def test_outcome_saturates():
    hot = SourceConfig(activity=1e12, distance=1.0)
    assert geiger_outcome(hot, STOCK_DETECTOR) == 100
    small = DetectorConfig(aperture_diameter=2.0, efficiency=0.008, saturation=7)
    assert geiger_outcome(hot, small) == 7


def test_scaled_sources_leave_identical_records():
    det = STOCK_DETECTOR
    base = SourceConfig(activity=3.7e6, distance=100.0)
    for c in (2.0, 4.0, 8.0, 0.5):
        scaled = SourceConfig(activity=base.activity * c * c, distance=base.distance * c)
        assert expected_count_rate(scaled, det) == expected_count_rate(base, det)
        assert geiger_outcome(scaled, det) == geiger_outcome(base, det)


def test_outcome_monotone_in_activity():
    det = DetectorConfig(aperture_diameter=1.0, efficiency=0.1, saturation=1000)
    outcomes = [
        geiger_outcome(SourceConfig(activity=a, distance=5.0), det)
        for a in np.linspace(10.0, 1e5, 40)
    ]
    assert outcomes == sorted(outcomes)


def test_sampled_counts_clamped_and_deterministic():
    src = SourceConfig(activity=1e9, distance=10.0)
    det = DetectorConfig(aperture_diameter=1.0, efficiency=0.01, saturation=50)
    counts = sample_geiger_counts(src, det, 200, np.random.default_rng(12))
    again = sample_geiger_counts(src, det, 200, np.random.default_rng(12))
    assert counts == again
    assert len(counts) == 200
    assert all(0 <= c <= 50 for c in counts)
    assert max(counts) == 50  # mean rate is far above saturation


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"activity": 0.0, "distance": 1.0},
        {"activity": -1.0, "distance": 1.0},
        {"activity": 1.0, "distance": 0.0},
        {"activity": 1.0, "distance": 1.0, "photon_yield": 0.0},
        {"activity": float("nan"), "distance": 1.0},
        {"activity": float("inf"), "distance": 1.0},
        {"activity": 1.0, "distance": float("inf")},
        {"activity": 1.0, "distance": 1.0, "photon_yield": float("nan")},
    ],
)
def test_source_config_rejects_nonpositive(kwargs):
    with pytest.raises(ValueError):
        SourceConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"aperture_diameter": 0.0, "efficiency": 0.5},
        {"aperture_diameter": 1.0, "efficiency": 0.0},
        {"aperture_diameter": 1.0, "efficiency": 1.5},
        {"aperture_diameter": 1.0, "efficiency": 0.5, "saturation": 0},
        {"aperture_diameter": float("inf"), "efficiency": 0.5},
        {"aperture_diameter": float("nan"), "efficiency": 0.5},
        {"aperture_diameter": 1.0, "efficiency": float("nan")},
    ],
)
def test_detector_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        DetectorConfig(**kwargs)


@pytest.mark.parametrize(
    "source, detector, message",
    [
        (SourceConfig(activity=1.0, distance=1e-300), DetectorConfig(2.0, 0.5), "underflows"),
        (SourceConfig(activity=1.0, distance=1e200), DetectorConfig(2.0, 0.5), "overflows"),
        (SourceConfig(activity=1.0, distance=1.0), DetectorConfig(1e200, 0.5), "overflows"),
        (SourceConfig(activity=1e308, distance=1e-3), DetectorConfig(2.0, 0.5), "overflows"),
    ],
    ids=["distance-underflow", "distance-overflow", "aperture-overflow", "rate-overflow"],
)
def test_rate_outside_float_range_is_rejected(source, detector, message):
    with pytest.raises(ValueError, match=message):
        expected_count_rate(source, detector)
