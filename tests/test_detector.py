"""The counter model behind ``geiger`` and ``exchange``: the value semantics of
its two configs, their rejection messages, and the order in which ``geiger``
checks the blocks of a config."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moorelimit import cli
from moorelimit.detector import DetectorConfig, SourceConfig, sample_geiger_counts

ROOT = Path(__file__).resolve().parents[1]

# ---------------------------------------------------------------------------
# value semantics: equality, hashing and repr over the fields, no assignment


def value_cases():
    """(value, an equal value, an unequal value, its field names, its field
    values, its repr) for each of the two config classes."""
    return [
        (
            SourceConfig(3.7e6, 100.0),
            SourceConfig(activity=3.7e6, distance=100.0, photon_yield=1.0),
            SourceConfig(3.7e6, 100.0, 0.5),
            ("activity", "distance", "photon_yield"),
            (3.7e6, 100.0, 1.0),
            "SourceConfig(activity=3700000.0, distance=100.0, photon_yield=1.0)",
        ),
        (
            DetectorConfig(2.0, 0.008),
            DetectorConfig(aperture_diameter=2.0, efficiency=0.008, saturation=100),
            DetectorConfig(2.0, 0.008, 7),
            ("aperture_diameter", "efficiency", "saturation"),
            (2.0, 0.008, 100),
            "DetectorConfig(aperture_diameter=2.0, efficiency=0.008, saturation=100)",
        ),
    ]


@pytest.mark.parametrize("case", value_cases(), ids=lambda case: type(case[0]).__name__)
def test_value_semantics(case):
    value, same, other, names, fields, text = case
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != fields and value != object()
    assert tuple(getattr(value, name) for name in names) == fields
    assert hash(value) == hash(same) == hash(fields)
    assert len({value, same, other}) == 2
    assert repr(value) == text
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert tuple(getattr(value, name) for name in names) == fields


def test_equal_fields_of_the_two_classes_are_not_equal():
    assert SourceConfig(2.0, 0.5, 100.0) != DetectorConfig(2.0, 0.5, 100)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.0, 1.0), "activity must be finite and strictly positive, got 0.0"),
        ((-1.0, 1.0), "activity must be finite and strictly positive, got -1.0"),
        ((float("nan"), 1.0), "activity must be finite and strictly positive, got nan"),
        ((float("inf"), 1.0), "activity must be finite and strictly positive, got inf"),
        ((1.0, 0.0), "distance must be finite and strictly positive, got 0.0"),
        ((1.0, float("inf")), "distance must be finite and strictly positive, got inf"),
        ((1.0, 1.0, 0.0), "yield must be finite and strictly positive, got 0.0"),
        ((1.0, 1.0, float("nan")), "yield must be finite and strictly positive, got nan"),
        # activity is checked before distance, distance before the yield
        ((0.0, 0.0, 0.0), "activity must be finite and strictly positive, got 0.0"),
        ((1.0, -2.0, 0.0), "distance must be finite and strictly positive, got -2.0"),
    ],
)
def test_source_rejection_messages(args, message):
    with pytest.raises(ValueError) as caught:
        SourceConfig(*args)
    assert type(caught.value) is ValueError and str(caught.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.0, 0.5), "aperture diameter must be finite and positive, got 0.0"),
        ((float("inf"), 0.5), "aperture diameter must be finite and positive, got inf"),
        ((float("nan"), 0.5), "aperture diameter must be finite and positive, got nan"),
        ((1.0, 0.0), "efficiency must be in (0, 1]"),
        ((1.0, 1.5), "efficiency must be in (0, 1]"),
        ((1.0, float("nan")), "efficiency must be in (0, 1]"),
        ((1.0, 0.5, 0), "saturation must be >= 1 count/s"),
        # the aperture is checked before the efficiency, the efficiency before saturation
        ((0.0, 0.0, 0), "aperture diameter must be finite and positive, got 0.0"),
        ((1.0, 2.0, 0), "efficiency must be in (0, 1]"),
    ],
)
def test_detector_rejection_messages(args, message):
    with pytest.raises(ValueError) as caught:
        DetectorConfig(*args)
    assert type(caught.value) is ValueError and str(caught.value) == message


# ---------------------------------------------------------------------------
# geiger checks sources, then the detector, then the observer, then the densities,
# and every error starts with the config's path

SOURCE = {"activity": 3.7e6, "distance": 100.0}
DETECTOR = {"aperture_diameter": 2.0, "efficiency": 0.008}
ZEROS = [[0.0, 0.0], [0.0, 0.0]]
BAD_OBSERVER = {"env_dim": "x", "povms": []}
BAD_DENSITY = {"dim": 2, "re": 5, "im": ZEROS}

ORDER_CASES = {
    "observer": (
        {"sources": {"s": SOURCE}, "detector": DETECTOR, "observer": BAD_OBSERVER},
        "error: {config}: observer.env_dim: expected an integer, got 'x'",
    ),
    "source-then-observer": (
        {"sources": {"s": {**SOURCE, "distance": -1.0}}, "detector": DETECTOR, "observer": BAD_OBSERVER},
        "error: {config}: sources.s: distance must be finite and strictly positive, got -1.0",
    ),
    "detector-then-density": (
        {"sources": {"s": SOURCE}, "detector": {**DETECTOR, "efficiency": 2.0}, "density_a": BAD_DENSITY},
        "error: {config}: detector: efficiency must be in (0, 1]",
    ),
    "observer-then-density": (
        {"sources": {"s": SOURCE}, "detector": DETECTOR, "observer": BAD_OBSERVER, "density_a": BAD_DENSITY},
        "error: {config}: observer.env_dim: expected an integer, got 'x'",
    ),
    # every block is read before any source's expected rate is computed
    "observer-then-rate": (
        {
            "sources": {"s": {**SOURCE, "activity": 1e308, "yield": 10.0}},
            "detector": DETECTOR,
            "observer": BAD_OBSERVER,
        },
        "error: {config}: observer.env_dim: expected an integer, got 'x'",
    ),
    # a trace that overflows: numpy would warn of it, and no warning may reach stderr
    "density-overflow": (
        {
            "sources": {"s": SOURCE},
            "detector": DETECTOR,
            "density_b": {"dim": 2, "re": [[1e308, 0.0], [0.0, 1e308]], "im": ZEROS},
        },
        "error: {config}: density_b: density operator trace (inf+0j) deviates from 1",
    ),
}


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_geiger_names_the_first_malformed_block_in_process(capsys, tmp_path, case):
    doc, line = ORDER_CASES[case]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["geiger", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line.format(config=config) + "\n")


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_geiger_names_the_first_malformed_block_as_a_program(tmp_path, case):
    doc, line = ORDER_CASES[case]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "moorelimit", "geiger", "--config", str(config)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line.format(config=config) + "\n")


# ---------------------------------------------------------------------------
# sampling


HOT = {
    "sources": {"hot": {"activity": 1e300, "distance": 1.0}},
    "detector": {"aperture_diameter": 2.0, "efficiency": 1.0},
}


def test_a_rate_too_large_to_sample_exits_2_naming_the_source_and_rate(capsys, tmp_path):
    config = tmp_path / "hot.json"
    config.write_text(json.dumps(HOT))
    assert cli.main(["geiger", "--config", str(config)]) == 0
    report = json.loads(capsys.readouterr().out)
    rate = report["results"]["sources"][0]["expected_rate"]
    assert rate == pytest.approx(2.5e299)
    assert cli.main(["geiger", "--config", str(config), "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = f"error: {config}: sources.hot: --samples: cannot draw Poisson counts at expected rate {rate!r} counts/s: "
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1


def test_sampling_refusal_names_the_rate():
    class Refusing:
        def poisson(self, lam, size):
            raise ValueError("lam value too large")

    with pytest.raises(ValueError) as caught:
        sample_geiger_counts(SourceConfig(4.0, 1.0), DetectorConfig(2.0, 0.5), 3, Refusing())
    assert str(caught.value) == "--samples: cannot draw Poisson counts at expected rate 0.5 counts/s: lam value too large"
