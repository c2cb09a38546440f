"""JSON formats for machines and traces, report rendering and atomic writes.

Machines serialize with explicit ``states``/``inputs``/``outputs``/``initial``
/``delta``/``lambda`` fields; traces as one record per step (``output`` plus,
from the second step on, an optional ``input``).  Each JSON kind has one
reader (``_object``, ``_symbol``, ``_number``, ``_integer``) that every
document uses, here and in :mod:`moorelimit.demos`, which reads the physics
commands' documents.  Parsing raises :class:`ParseError` with a field-level
message.  :func:`write_report` streams :mod:`json`'s text of a report in
chunks; a :class:`MachineRows` in it spells the machines that search
encodings describe, joining the texts json gives their parts and reading the
encodings once.  :func:`write_atomic`
streams into a temp file and renames it over the target when it is done.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterator
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from .machines import Machine, Trace, _quoted


class ParseError(ValueError):
    """A document does not match the expected schema."""


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got {type(doc).__name__}")
    return doc


def _at(path, field: str) -> str:
    """Where ``field`` of the config read from ``path`` is, for an error message;
    just ``field`` when the config is built in (``path`` is None)."""
    return f"{path}: {field}" if path else field


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
    if isinstance(sym, str):
        _checked(where, sym.encode)  # UTF-8 refuses a lone surrogate, which a JSON escape can spell
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
        raise ParseError(f"{where}: inputs must appear on every step after the first or on none")
    alphabets = [
        None if doc.get(key) is None else tuple(_symbols(doc[key], f"{where}.{key}")) or None
        for key in ("output_alphabet", "input_alphabet")
    ]
    return _checked(where, lambda: Trace(tuple(outputs), tuple(inputs) if inputs else None, *alphabets))


def load_json(path) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 ({exc})") from exc
    except ValueError as exc:  # a JSONDecodeError, or int() refusing a literal of too many digits
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise ParseError(f"{path}: invalid JSON (nested too deeply)") from None


def _text(value, pad: str) -> str:
    """``value`` as :mod:`json` spells it in a report, at indentation ``pad``."""
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + pad)


class MachineRows:
    """The documents :func:`machine_to_dict` gives for the machines that
    :func:`moorelimit.machines.consistent_encodings`'s ``encodings``, each
    ``(m, delta, lam)``, describe over the alphabets ``inputs`` and
    ``outputs``, which :func:`write_report` renders as the array of them that
    :meth:`texts` spells, reading ``encodings`` once.

    Each part of a document is spelled by :func:`json.dumps` and its text
    cached by value: each distinct transition row, and each distinct ``lam``
    with the document's end, once.  The opening (``states`` to the last
    transition row) is joined again only when ``m`` or a row but the last
    changes; the sorted tables mostly differ in their last row.  A table's
    completions are adjacent in them, so their documents are joined into one
    text per ``(m, delta)``.
    """

    def __init__(self, encodings, inputs, outputs):
        self.encodings, self.inputs, self.outputs = encodings, list(inputs), list(outputs)

    def texts(self, pad: str) -> Iterator[str]:
        """The array of the documents as :mod:`json` spells it on a line indented
        by ``pad``, one text per run of encodings that share a table."""
        inner, deeper = pad + "  ", pad + "    "
        field, sep = ",\n" + deeper, ",\n" + inner
        k, outputs = len(self.inputs), self.outputs
        # from "inputs" to the first transition row: the same in every document
        shared = (f'{field}"inputs": {_text(self.inputs, deeper)}{field}"outputs": {_text(outputs, deeper)}'
                  f'{field}"initial": {_text(0, deeper)}{field}"delta": [\n{deeper}  ')
        cells: dict[tuple, str] = {}  # transition row -> its text
        tails: dict[tuple, str] = {}  # output indices -> the document's text from "lambda" on

        def cell(row: tuple) -> str:
            return cells.get(row) or cells.setdefault(row, _text(row, deeper + "  "))

        def tail(lam: tuple) -> str:
            return f'{field}"lambda": {_text([outputs[i] for i in lam], deeper)}\n{inner}}}'

        opened = opening = None  # (m, every row of delta but the last), and its text
        lead = "[\n" + inner
        for (states, delta), run in groupby(self.encodings, itemgetter(0, 1)):
            last = len(delta) - k
            if (states, delta[:last]) != opened:
                opened = states, delta[:last]
                opening = "".join([f'{{\n{deeper}"states": {_text(states, deeper)}{shared}',
                                   *[cell(delta[s : s + k]) + field + "  " for s in range(0, last, k)]])
            prefix = f"{opening}{cell(delta[last:])}\n{deeper}]"
            ends = [tails.get(lam) or tails.setdefault(lam, tail(lam)) for _, _, lam in run]
            yield lead + prefix + (sep + prefix).join(ends)
            lead = sep
        yield "\n" + pad + "]" if lead == sep else "[]"


#: How many characters of text :func:`write_report` may hold before it passes them on.
CHUNK_CHARS = 64 * 1024


def write_report(doc: object, write) -> None:
    """Render ``doc`` to ``write`` in chunks: ``json.dumps(doc, indent=2,
    ensure_ascii=False)`` and a newline, as :meth:`json.JSONEncoder.iterencode`
    spells it, with json's TypeError for a value or key it refuses and its
    ValueError for a circular structure, raised after the chunks before it.

    The one value json does not know is a :class:`MachineRows`: the encoder's
    ``default`` hook returns ``[]`` for it, and in place of the ``"[]"`` json
    yields next go its :meth:`~MachineRows.texts` at the indentation of the
    current line (a JSON text holds a raw newline only between lines).  The
    code relies on ``iterencode`` taking json's lazy pure-Python path, which
    it does whenever ``indent`` is set: a value is read only when its text is
    due, so ``cmd_enumerate``'s ``checks``, after its rows, shows what the
    rows' generator set.  The text goes to ``write`` whenever more than
    :data:`CHUNK_CHARS` characters are held, so the whole of it never exists.
    """
    pending: list[MachineRows] = []  # the rows whose "[]" json yields next

    def default(value):
        if type(value) is not MachineRows:
            return json.JSONEncoder.default(encoder, value)  # raises json's TypeError
        pending.append(value)
        return []

    def pieces() -> Iterator[str]:
        pad = ""  # the indentation of the current line
        for text in encoder.iterencode(doc):
            if pending:
                yield from pending.pop().texts(pad)
                continue
            if "\n" in text:
                line = text.rpartition("\n")[2]
                pad = line[: len(line) - len(line.lstrip(" "))]
            yield text
        yield "\n"

    encoder = json.JSONEncoder(indent=2, ensure_ascii=False, default=default)
    out: list[str] = []
    size = 0  # characters in out
    for text in pieces():
        out.append(text)
        size += len(text)
        if size > CHUNK_CHARS:
            write("".join(out))
            out.clear()
            size = 0
    write("".join(out))


def dumps_report(doc: object) -> str:
    """The text :func:`write_report` writes for ``doc``, as one string."""
    chunks: list[str] = []
    write_report(doc, chunks.append)
    return "".join(chunks)


def write_atomic(path, produce) -> None:
    """Write the text ``produce(write)`` passes to ``write``, piece by piece, via
    a sibling temp file and rename, so readers never see partial output.

    ``produce`` is such as ``lambda write: write_report(doc, write)``.  If
    anything fails, the temp file is removed and the old target is left as it
    was; an ``OSError`` names ``path``, not the temp file.  The file gets the
    mode a plain ``open`` would give it (0666 less the umask), not the 0600 of
    the temp file.
    """
    target = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            produce(fh.write)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
