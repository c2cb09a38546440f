"""JSON formats for machines, traces, operators, POVMs and scenario configs.

Machines serialize with explicit ``states``/``inputs``/``outputs``/``initial``
/``delta``/``lambda`` fields; traces as one record per step (``output`` plus,
from the second step on, an optional ``input``); operators as ``dim`` with
row-major ``re``/``im`` arrays.  Parsing raises :class:`ParseError` with a
field-level message; writing is atomic (temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from .machines import Machine, Trace
from .observer import DetectorConfig, ObserverModel, SourceConfig
from .quantum import DensityOperator, Effect, Povm, StateVector


class ParseError(ValueError):
    """A document does not match the expected schema."""


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    return doc[key]


def _symbols(values, where: str) -> list:
    """An array of alphabet symbols, each a string or an integer (not a bool)."""
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected an array of symbols, got {type(values).__name__}")
    for j, sym in enumerate(values):
        _symbol(sym, f"{where}[{j}]")
    return values


def _floats(values, where: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _symbol(sym, where: str):
    if isinstance(sym, bool) or not isinstance(sym, (str, int)):
        raise ParseError(f"{where}: a symbol must be a string or an integer, got {sym!r}")
    return sym


def machine_to_dict(machine: Machine) -> dict:
    return {
        "states": machine.state_count,
        "inputs": list(machine.input_alphabet),
        "outputs": list(machine.output_alphabet),
        "initial": machine.initial,
        "delta": [list(row) for row in machine.transition],
        "lambda": list(machine.output),
    }


def machine_from_dict(doc: dict, where: str = "machine") -> Machine:
    states = _require(doc, "states", where)
    inputs = _symbols(_require(doc, "inputs", where), f"{where}.inputs")
    outputs = _symbols(_require(doc, "outputs", where), f"{where}.outputs")
    initial = _require(doc, "initial", where)
    delta = _require(doc, "delta", where)
    lam = _symbols(_require(doc, "lambda", where), f"{where}.lambda")
    try:
        return Machine(
            state_count=states,
            input_alphabet=tuple(inputs),
            output_alphabet=tuple(outputs),
            transition=tuple(tuple(row) for row in delta),
            output=tuple(lam),
            initial=initial,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def trace_to_dict(trace: Trace) -> dict:
    steps: list[dict] = [{"output": trace.outputs[0]}]
    for out, inp in zip(trace.outputs[1:], trace.inputs):
        steps.append({"output": out, "input": inp})
    return {"steps": steps}


def trace_from_dict(doc: dict, where: str = "trace") -> tuple[Trace, list | None, list | None]:
    """Parse a trace document; returns (trace, output_alphabet, input_alphabet).

    Alphabets are optional declarations widening the observed symbols.  Inputs
    must either appear on every step after the first or on none (autonomous
    observation).
    """
    steps = _require(doc, "steps", where)
    if not isinstance(steps, list) or not steps:
        raise ParseError(f"{where}: 'steps' must be a nonempty array")
    outputs = []
    inputs = []
    for i, step in enumerate(steps):
        at = f"{where}.steps[{i}]"
        outputs.append(_symbol(_require(step, "output", at), f"{at}.output"))
        if i == 0:
            if isinstance(step, dict) and "input" in step:
                raise ParseError(f"{where}.steps[0]: the first record carries no input")
        elif "input" in step:
            inputs.append(_symbol(step["input"], f"{at}.input"))
    if inputs and len(inputs) != len(outputs) - 1:
        raise ParseError(
            f"{where}: inputs must appear on every step after the first or on none"
        )
    try:
        trace = Trace(tuple(outputs), tuple(inputs) if inputs else None)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    alphabets = [
        None if doc.get(key) is None else _symbols(doc[key], f"{where}.{key}")
        for key in ("output_alphabet", "input_alphabet")
    ]
    return trace, *alphabets


def matrix_to_dict(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {
        "dim": m.shape[0],
        "re": [[float(x.real) for x in row] for row in m],
        "im": [[float(x.imag) for x in row] for row in m],
    }


def matrix_from_dict(doc: dict, where: str = "operator") -> np.ndarray:
    dim = _require(doc, "dim", where)
    re = _floats(_require(doc, "re", where), f"{where}.re")
    im = _floats(_require(doc, "im", where), f"{where}.im")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ParseError(f"{where}: re/im must be {dim}x{dim} row-major arrays")
    return re + 1j * im


def state_to_dict(psi: StateVector) -> dict:
    return {
        "dim": psi.dim,
        "re": [float(x.real) for x in psi.amplitudes],
        "im": [float(x.imag) for x in psi.amplitudes],
    }


def state_from_dict(doc: dict, where: str = "state") -> StateVector:
    dim = _require(doc, "dim", where)
    re = _floats(_require(doc, "re", where), f"{where}.re")
    im = _floats(_require(doc, "im", where), f"{where}.im")
    if re.shape != (dim,) or im.shape != (dim,):
        raise ParseError(f"{where}: re/im must be flat arrays of length {dim}")
    try:
        return StateVector(re + 1j * im)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def density_from_dict(doc: dict, where: str = "density") -> DensityOperator:
    matrix = matrix_from_dict(doc, where)
    try:
        return DensityOperator(matrix)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def povm_to_dict(povm: Povm) -> dict:
    return {
        "dim": povm.dim,
        "labels": list(povm.labels),
        "effects": [matrix_to_dict(e.matrix) for e in povm.effects],
    }


def povm_from_dict(doc: dict, where: str = "povm") -> Povm:
    labels = _require(doc, "labels", where)
    effects = _require(doc, "effects", where)
    if not isinstance(effects, list) or not effects:
        raise ParseError(f"{where}: 'effects' must be a nonempty array")
    matrices = [matrix_from_dict(e, f"{where}.effects[{i}]") for i, e in enumerate(effects)]
    try:
        return Povm(effects=tuple(Effect(m) for m in matrices), labels=tuple(labels))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def source_from_dict(doc: dict, where: str = "source") -> SourceConfig:
    activity = _require(doc, "activity", where)
    distance = _require(doc, "distance", where)
    try:
        return SourceConfig(
            activity=float(activity),
            distance=float(distance),
            photon_yield=float(doc.get("yield", 1.0)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def detector_from_dict(doc: dict, where: str = "detector") -> DetectorConfig:
    aperture = _require(doc, "aperture_diameter", where)
    efficiency = _require(doc, "efficiency", where)
    saturation = doc.get("saturation", 100)
    if not (type(saturation) is int or type(saturation) is float and saturation.is_integer()):
        raise ParseError(f"{where}.saturation: expected an integer, got {saturation!r}")
    try:
        return DetectorConfig(
            aperture_diameter=float(aperture),
            efficiency=float(efficiency),
            saturation=int(saturation),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def detector_to_dict(detector: DetectorConfig) -> dict:
    return {
        "aperture_diameter": detector.aperture_diameter,
        "efficiency": detector.efficiency,
        "saturation": detector.saturation,
    }


def observer_from_dict(doc: dict, base_dir: Path | None = None, where: str = "observer") -> ObserverModel:
    """Observer block: environment dimension plus named POVMs, inline or by file."""
    env_dim = _require(doc, "env_dim", where)
    entries = _require(doc, "povms", where)
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{where}: 'povms' must be a nonempty array")
    povms = {}
    for i, entry in enumerate(entries):
        name = _require(entry, "name", f"{where}.povms[{i}]")
        if "file" in entry:
            path = Path(entry["file"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            povms[name] = povm_from_dict(load_json(path), f"{where}.povms[{i}]")
        else:
            povms[name] = povm_from_dict(entry, f"{where}.povms[{i}]")
    try:
        return ObserverModel(env_dim=env_dim, povms=povms)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def load_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def dumps_report(doc: Any) -> str:
    """Deterministic rendering: fixed key order, repr-exact floats, one trailing newline."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def write_atomic(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output.

    The file gets the mode a plain ``open`` would give it (0666 less the
    umask), not the 0600 of the temp file.
    """
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
