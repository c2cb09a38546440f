"""The counter model and the ``geiger`` command, without numpy.

A point radiation source seen by a saturating integer-count detector: the
record is the expected rate rounded half-up and clamped at saturation, so two
distinct sources can leave the same integer.  ``exchange`` builds its source
rows from the same pieces.

Only ``math`` is needed for the record.  numpy loads only when ``geiger
--samples`` draws Poisson counts.  A config that holds an ``observer``,
``density_a`` or ``density_b`` block, which ``geiger`` checks and does not use,
loads the plain-Python quantum readers of :mod:`moorelimit.demos`.  A config's
errors start with its path.
"""

from __future__ import annotations

import math

from .cli import _finish
from .machines import _Value
from .serialize import ParseError, _at, _checked, _integer, _number, _object, _require, _symbol, load_json

#: config blocks only ``exchange`` uses; ``geiger`` checks them after the counter blocks
QUANTUM_BLOCKS = ("observer", "density_a", "density_b")


class SourceConfig(_Value):
    """A point radiation source: activity in decays/s, distance in cm."""

    _fields = ("activity", "distance", "photon_yield")

    def __init__(self, activity: float, distance: float, photon_yield: float = 1.0):
        for name, value in (("activity", activity), ("distance", distance), ("yield", photon_yield)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        self.__dict__.update(activity=activity, distance=distance, photon_yield=photon_yield)


class DetectorConfig(_Value):
    """A counting detector: circular aperture (cm), efficiency, integer saturation."""

    _fields = ("aperture_diameter", "efficiency", "saturation")

    def __init__(self, aperture_diameter: float, efficiency: float, saturation: int = 100):
        if not (math.isfinite(aperture_diameter) and aperture_diameter > 0):
            raise ValueError(f"aperture diameter must be finite and positive, got {aperture_diameter!r}")
        if not 0 < efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        if saturation < 1:
            raise ValueError("saturation must be >= 1 count/s")
        fields = self.__dict__
        fields.update(aperture_diameter=aperture_diameter, efficiency=efficiency, saturation=saturation)


def expected_count_rate(source: SourceConfig, detector: DetectorConfig) -> float:
    """Expected detector rate in counts/s, before quantization and saturation.

    Point-source flux through a circular aperture; the expression order is
    fixed so that scaling (activity, distance) by (c^2, c) cancels exactly.
    Raises ``ValueError`` when the geometry leaves the float range: a distance
    whose square underflows to 0, or a square or rate that overflows.
    """
    try:
        square = source.distance**2
        area = math.pi * (detector.aperture_diameter / 2.0) ** 2
    except OverflowError:
        raise ValueError(f"the square of a length overflows: {source}, {detector}") from None
    if square == 0:
        raise ValueError(f"distance {source.distance!r} is too small: its square underflows to 0")
    flux = source.activity * source.photon_yield / (4.0 * math.pi * square)
    rate = flux * area * detector.efficiency
    if not math.isfinite(rate):
        raise ValueError(f"expected count rate overflows for {source} and {detector}")
    return rate


def geiger_outcome(source: SourceConfig, detector: DetectorConfig) -> int:
    """The integer the detector records: expected rate, rounded half-up, saturated.

    Deterministic by design; record equality between distinct sources is then
    an exact statement rather than a statistical one.
    """
    rate = expected_count_rate(source, detector)
    return min(int(math.floor(rate + 0.5)), detector.saturation)


def sample_geiger_counts(source: SourceConfig, detector: DetectorConfig, n_samples: int, rng) -> list[int]:
    """Illustrative Poisson-sampled counts from the numpy ``Generator`` ``rng``,
    clamped at saturation.  Raises ``ValueError`` naming the rate when numpy
    refuses the draw, as it does for a rate past about 9.2e18 counts/s."""
    rate = expected_count_rate(source, detector)
    try:
        draws = rng.poisson(rate, size=n_samples)
    except ValueError as exc:
        raise ValueError(
            f"--samples: cannot draw Poisson counts at expected rate {rate!r} counts/s: {exc}"
        ) from None
    return [min(int(k), detector.saturation) for k in draws]


# ---------------------------------------------------------------------------
# readers


def source_from_dict(doc: dict, where: str = "source") -> SourceConfig:
    activity = _number(_require(doc, "activity", where), f"{where}: activity")
    distance = _number(_require(doc, "distance", where), f"{where}: distance")
    photon_yield = _number(doc.get("yield", 1.0), f"{where}: yield")
    return _checked(where, lambda: SourceConfig(activity, distance, photon_yield))


def detector_from_dict(doc: dict, where: str = "detector") -> DetectorConfig:
    aperture = _number(_require(doc, "aperture_diameter", where), f"{where}: aperture_diameter")
    efficiency = _number(_require(doc, "efficiency", where), f"{where}: efficiency")
    saturation = _integer(doc.get("saturation", 100), f"{where}.saturation")
    return _checked(where, lambda: DetectorConfig(aperture, efficiency, saturation))


def detector_to_dict(detector: DetectorConfig) -> dict:
    return {
        "aperture_diameter": detector.aperture_diameter,
        "efficiency": detector.efficiency,
        "saturation": detector.saturation,
    }


def counters_from_dict(doc: dict, path: str | None = None) -> tuple:
    """The counter blocks of an ``exchange``/``geiger`` config from ``path`` (None
    if built in) as ``(names, sources, detector)``."""
    src_block = _object(doc, str(path)).get("sources")
    if not isinstance(src_block, dict) or not src_block:
        raise ParseError(f"{path or 'scenario'}: expected a nonempty 'sources' object")
    names = [_symbol(name, _at(path, "sources")) for name in src_block]
    sources = [source_from_dict(src_block[name], _at(path, f"sources.{name}")) for name in names]
    detector = detector_from_dict(doc.get("detector", {}), _at(path, "detector"))
    return names, sources, detector


# ---------------------------------------------------------------------------
# geiger


def _default_scenario() -> dict:
    return {
        "sources": {
            "near": {"activity": 3.7e6, "distance": 100.0, "yield": 1.0},
            "far": {"activity": 1.48e7, "distance": 200.0, "yield": 1.0},
        },
        "detector": {"aperture_diameter": 2.0, "efficiency": 0.008, "saturation": 100},
    }


def _source_table(rows):
    """The per-source table ``exchange`` and ``geiger`` share."""
    header = ["source", "activity", "distance", "yield", "expected_rate", "outcome"]
    return header, [
        [r["name"], r["activity"], r["distance"], r["yield"], r["expected_rate"], r["outcome"]]
        for r in rows
    ]


def _source_rows(names, sources, detector, path):
    """One row per source; a rate outside the float range is an error of the
    config read from ``path``."""
    rows = []
    for name, src in zip(names, sources):
        rows.append(
            {
                "name": name,
                "activity": src.activity,
                "distance": src.distance,
                "yield": src.photon_yield,
                "expected_rate": _checked(_at(path, f"sources.{name}"), lambda: expected_count_rate(src, detector)),
                "outcome": geiger_outcome(src, detector),
            }
        )
    return rows


def cmd_geiger(args) -> int:
    doc = load_json(args.config) if args.config else _default_scenario()
    names, sources, detector = counters_from_dict(doc, args.config)
    if any(key in doc for key in QUANTUM_BLOCKS):
        from .demos import quantum_blocks_from_dict

        quantum_blocks_from_dict(doc, args.config)
    rows = _source_rows(names, sources, detector, args.config)
    outcomes = [r["outcome"] for r in rows]
    results = {
        "sources": rows,
        "detector": detector_to_dict(detector),
    }
    if len(rows) > 1:
        results["outcomes_equal"] = all(o == outcomes[0] for o in outcomes)
    if args.samples:
        import numpy as np

        with np.errstate(all="ignore"):
            rng = np.random.default_rng(args.seed)
            sampled = {}
            for name, src in zip(names, sources):
                try:
                    counts = sample_geiger_counts(src, detector, args.samples, rng)
                except ValueError as exc:
                    raise ParseError(f"{_at(args.config, f'sources.{name}')}: {exc}") from None
                sampled[name] = {
                    "samples": args.samples,
                    "mean": float(np.mean(counts)),
                    "min": int(min(counts)),
                    "max": int(max(counts)),
                }
        results["sampled"] = sampled
    checks = {"within_saturation": all(o <= detector.saturation for o in outcomes)}
    if len(rows) > 1:
        checks["outcomes_all_equal"] = results["outcomes_equal"]
    echo = {"config": str(args.config) if args.config else "(default)"}
    return _finish(args, "geiger", echo, results, checks, lambda: _source_table(rows))
