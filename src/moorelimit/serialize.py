"""JSON formats for machines and traces, report rendering and atomic writes.

Machines serialize with explicit ``states``/``inputs``/``outputs``/``initial``
/``delta``/``lambda`` fields; traces as one record per step (``output`` plus,
from the second step on, an optional ``input``).  Each JSON kind has one
reader (``_object``, ``_symbol``, ``_number``, ``_integer``) that every
document uses, here and in :mod:`moorelimit.demos`, which reads the physics
commands' documents.  Parsing raises :class:`ParseError` with a field-level
message; writing is atomic.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

from .machines import Machine, Trace, _quoted


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
