"""JSON formats for machines, traces, operators, POVMs and ``--config`` documents.

Machines serialize with explicit ``states``/``inputs``/``outputs``/``initial``
/``delta``/``lambda`` fields; traces as one record per step (``output`` plus,
from the second step on, an optional ``input``); operators as ``dim`` with
row-major ``re``/``im`` arrays.  Each JSON kind has one reader (``_object``,
``_symbol``, ``_number``, ``_integer``) that every document uses.  Parsing
raises :class:`ParseError` with a field-level message; writing is atomic.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from .machines import Machine, Trace, _quoted
from .observer import DetectorConfig, ObserverModel, SourceConfig
from .quantum import DensityOperator, Effect, Povm, StateVector


class ParseError(ValueError):
    """A document does not match the expected schema."""


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got {type(doc).__name__}")
    return doc


def _require(doc: dict, key: str, where: str):
    if key not in _object(doc, where):
        raise ParseError(f"{where}: missing field {key!r}")
    return doc[key]


def _symbols(values, where: str) -> list:
    """An array of alphabet symbols, each a string or an integer (not a bool)."""
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected an array of symbols, got {type(values).__name__}")
    for j, sym in enumerate(values):
        _symbol(sym, f"{where}[{j}]")
    return values


def _symbol(sym, where: str):
    if isinstance(sym, bool) or not isinstance(sym, (str, int)):
        raise ParseError(f"{where}: a symbol must be a string or an integer, got {_quoted(sym)}")
    return sym


def _checked(where: str, build):
    """``build()``, a constructor's rejection of a value re-raised as a ParseError at ``where``."""
    try:
        return build()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _number(value, where: str) -> float:
    """A JSON number (not a bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {_quoted(value)}")
    return _checked(where, lambda: float(value))


def _integer(value, where: str) -> int:
    """An integer, or a float with an integral value such as ``50.0``; not a bool."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ParseError(f"{where}: expected an integer, got {_quoted(value)}")
    return int(value)


def _floats(values, where: str) -> np.ndarray:
    """An array of numbers, or an array of such arrays, as a float array."""
    nested = isinstance(values, list) and any(isinstance(v, list) for v in values)
    for i, row in enumerate(values if nested else [values]):
        at = f"{where}[{i}]" if nested else where
        if not isinstance(row, list):
            raise ParseError(f"{at}: expected an array of numbers, got {type(row).__name__}")
        for j, v in enumerate(row):
            _number(v, f"{at}[{j}]")
    return _checked(where, lambda: np.asarray(values, dtype=float))


def _machine_row(states: int, inputs: list, outputs: list, initial: int, delta: list, lam: list) -> dict:
    """The one layout of a machine document: its fields, in report order."""
    return {
        "states": states,
        "inputs": inputs,
        "outputs": outputs,
        "initial": initial,
        "delta": delta,
        "lambda": lam,
    }


def machine_to_dict(machine: Machine) -> dict:
    return _machine_row(
        machine.state_count,
        list(machine.input_alphabet),
        list(machine.output_alphabet),
        machine.initial,
        [list(row) for row in machine.transition],
        list(machine.output),
    )


def encoding_to_dict(encoding: tuple[int, ...], inputs: tuple, outputs: tuple) -> dict:
    """The document :func:`machine_to_dict` gives for the machine that one of
    :func:`moorelimit.machines.consistent_encodings`'s encodings describes
    over the alphabets ``inputs`` and ``outputs``."""
    m, k = encoding[0], len(inputs)
    delta = [list(encoding[1 + s * k : 1 + (s + 1) * k]) for s in range(m)]
    lam = [outputs[i] for i in encoding[1 + m * k :]]
    return _machine_row(m, list(inputs), list(outputs), 0, delta, lam)


def machine_from_dict(doc: dict, where: str = "machine") -> Machine:
    states = _require(doc, "states", where)
    inputs = _symbols(_require(doc, "inputs", where), f"{where}.inputs")
    outputs = _symbols(_require(doc, "outputs", where), f"{where}.outputs")
    initial = _require(doc, "initial", where)
    delta = _require(doc, "delta", where)
    lam = _symbols(_require(doc, "lambda", where), f"{where}.lambda")
    return _checked(where, lambda: Machine(
        state_count=states,
        input_alphabet=tuple(inputs),
        output_alphabet=tuple(outputs),
        transition=tuple(tuple(row) for row in delta),
        output=tuple(lam),
        initial=initial,
    ))


def trace_from_dict(doc: dict, where: str = "trace") -> Trace:
    """Parse a trace document, its declared alphabets included.

    An absent, null or empty ``output_alphabet``/``input_alphabet`` declares
    nothing; :class:`Trace` checks a declared one.  Inputs must either appear
    on every step after the first or on none (autonomous observation).
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
    alphabets = [
        None if doc.get(key) is None else tuple(_symbols(doc[key], f"{where}.{key}")) or None
        for key in ("output_alphabet", "input_alphabet")
    ]
    return _checked(where, lambda: Trace(tuple(outputs), tuple(inputs) if inputs else None, *alphabets))


def matrix_from_dict(doc: dict, where: str = "operator") -> np.ndarray:
    dim = _integer(_require(doc, "dim", where), f"{where}.dim")
    re = _floats(_require(doc, "re", where), f"{where}.re")
    im = _floats(_require(doc, "im", where), f"{where}.im")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ParseError(f"{where}: re/im must be {dim}x{dim} row-major arrays")
    return re + 1j * im


def state_from_dict(doc: dict, where: str = "state") -> StateVector:
    dim = _integer(_require(doc, "dim", where), f"{where}.dim")
    re = _floats(_require(doc, "re", where), f"{where}.re")
    im = _floats(_require(doc, "im", where), f"{where}.im")
    if re.shape != (dim,) or im.shape != (dim,):
        raise ParseError(f"{where}: re/im must be flat arrays of length {dim}")
    return _checked(where, lambda: StateVector(re + 1j * im))


def density_from_dict(doc: dict, where: str = "density") -> DensityOperator:
    matrix = matrix_from_dict(doc, where)
    return _checked(where, lambda: DensityOperator(matrix))


def povm_from_dict(doc: dict, where: str = "povm") -> Povm:
    labels = _symbols(_require(doc, "labels", where), f"{where}.labels")
    effects = _require(doc, "effects", where)
    if not isinstance(effects, list) or not effects:
        raise ParseError(f"{where}: 'effects' must be a nonempty array")
    matrices = [matrix_from_dict(e, f"{where}.effects[{i}]") for i, e in enumerate(effects)]
    return _checked(where, lambda: Povm(tuple(Effect(m) for m in matrices), tuple(labels)))


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


def observer_from_dict(doc: dict, base_dir: Path | None = None, where: str = "observer") -> ObserverModel:
    """Observer block: environment dimension plus named POVMs, inline or by file."""
    env_dim = _integer(_require(doc, "env_dim", where), f"{where}.env_dim")
    entries = _require(doc, "povms", where)
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{where}: 'povms' must be a nonempty array")
    povms = {}
    for i, entry in enumerate(entries):
        at = f"{where}.povms[{i}]"
        name = _symbol(_require(entry, "name", at), f"{at}.name")
        if str(name) in map(str, povms):  # the report keys statistics by the name's JSON spelling
            raise ParseError(f"{at}.name: {_quoted(name)} names an earlier POVM too")
        if "file" in entry:
            if not isinstance(entry["file"], str):
                raise ParseError(f"{at}.file: expected a path string, got {_quoted(entry['file'])}")
            entry = load_json(base_dir / entry["file"] if base_dir else entry["file"])
        povms[name] = povm_from_dict(entry, at)
    return _checked(where, lambda: ObserverModel(env_dim=env_dim, povms=povms))


def chsh_config_from_dict(doc: dict, where: str) -> tuple[dict, DensityOperator | None]:
    """A ``chsh`` config: its four ``angles`` (empty without the block) and its
    ``state``, a flat vector or a density matrix (None without the block)."""
    angles = {}
    if "angles" in _object(doc, where):
        block = _object(doc["angles"], f"{where}: angles")
        for key in ("a", "a_prime", "b", "b_prime"):
            angles[key] = _number(_require(block, key, f"{where}: angles"), f"{where}: angles.{key}")
    if "state" not in doc:
        return angles, None
    at = f"{where}: state"
    re_block = _object(doc["state"], at).get("re")
    if isinstance(re_block, list) and re_block and isinstance(re_block[0], list):
        state = density_from_dict(doc["state"], at)
    else:
        state = DensityOperator.from_state(state_from_dict(doc["state"], at))
    if state.dim != 4:
        raise ParseError(f"{at}: CHSH needs a two-qubit state (dim 4), got dim {state.dim}")
    return angles, state


def state_pairs_from_dict(doc: dict, where: str) -> list[tuple]:
    """A ``noclone`` config: ``(name, psi, phi)`` for each entry of its ``pairs`` array."""
    entries = _object(doc, where).get("pairs")
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{where}: expected a nonempty 'pairs' array")
    pairs = []
    for i, entry in enumerate(entries):
        at = f"{where}: pairs[{i}]"
        name = _symbol(_object(entry, at).get("name", f"pair_{i}"), f"{at}.name")
        psi = state_from_dict(_require(entry, "psi", at), f"{at}.psi")
        phi = state_from_dict(_require(entry, "phi", at), f"{at}.phi")
        if psi.dim != phi.dim:
            raise ParseError(f"{at}: state dims differ: psi has {psi.dim}, phi has {phi.dim}")
        pairs.append((name, psi, phi))
    return pairs


def scenario_from_dict(doc: dict, path: str | None = None) -> tuple:
    """An ``exchange``/``geiger`` config from ``path`` (None if built in) as ``(names, sources,
    detector, observer or None, [density_a, density_b] where present)``; POVM files
    resolve against the config's directory."""
    src_block = _object(doc, str(path)).get("sources")
    if not isinstance(src_block, dict) or not src_block:
        raise ParseError("scenario: expected a nonempty 'sources' object")
    names = list(src_block)
    sources = [source_from_dict(src_block[name], f"sources.{name}") for name in names]
    detector = detector_from_dict(doc.get("detector", {}), "detector")
    base_dir = Path(path).parent if path else None
    observer = observer_from_dict(doc["observer"], base_dir) if "observer" in doc else None
    densities = [density_from_dict(doc[key], key) for key in ("density_a", "density_b") if key in doc]
    return names, sources, detector, observer, densities


def load_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise ParseError(f"{path}: invalid JSON (nested too deeply)") from None


_encode_str = json.encoder.encode_basestring  # the string spelling of ensure_ascii=False
_MEMO_ITEM_TYPES = {str, int}  # exact types: a bool or a float item keeps a list out of the memo


def _scalar_text(value) -> str | None:
    """JSON text of a string, number, bool or None, spelled as :mod:`json` spells
    it; None for any other value."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or value is True or value is False or isinstance(value, float):
        return json.dumps(value)
    if isinstance(value, int):
        return int.__repr__(value)
    return None


def _key_text(key) -> str:
    """A dict key as :mod:`json` writes it: a scalar's text, quoted as a string."""
    text = key if isinstance(key, str) else _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _encode_str(text)


def dumps_report(doc: Any) -> str:
    """Deterministic rendering: fixed key order, repr-exact floats, one trailing newline.

    The text is byte-identical to ``json.dumps(doc, indent=2,
    ensure_ascii=False) + "\\n"`` for every JSON value (dicts, lists, tuples,
    strings, numbers, bools, None), with the same key conversion and the same
    TypeError for a value or key ``json`` refuses; a circular structure is
    not a JSON value and ends in a RecursionError.  A list of strings and
    integers only (bools and floats excluded, so ``1``, ``True`` and ``1.0``
    never share an entry) is rendered once per indentation and reused, which
    pays off on the many equal ``delta`` rows and alphabets of an
    ``enumerate`` report.
    """
    memo: dict[tuple, str] = {}

    def render(value, pad: str) -> str:
        kind = type(value)
        if kind is str:
            return _encode_str(value)
        if kind is int:
            return int.__repr__(value)
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(value, dict):
            if not value:
                return "{}"
            fields = [_key_text(k) + ": " + render(v, inner) for k, v in value.items()]
            return "{\n" + inner + sep.join(fields) + "\n" + pad + "}"
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            items = tuple(value)
            flat = set(map(type, items)) <= _MEMO_ITEM_TYPES
            text = memo.get((pad, items)) if flat else None
            if text is None:
                text = "[\n" + inner + sep.join([render(v, inner) for v in items]) + "\n" + pad + "]"
                if flat:
                    memo[pad, items] = text
            return text
        text = _scalar_text(value)
        if text is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        return text

    return render(doc, "") + "\n"


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
