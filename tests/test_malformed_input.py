"""Malformed input never escapes the exit-code contract.

Each case starts from a valid document of one input format, puts a value of
some JSON kind at one path of it, and runs ``cli.main`` in process.  No
exception may escape; exit 2 prints exactly one ``error:`` line, which names
the mutated file; exit 0 or 1 prints strict JSON (no ``NaN`` or ``Infinity``
tokens) that encodes as UTF-8; no warning is raised.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moorelimit import cli

ZEROS = [[0.0, 0.0], [0.0, 0.0]]
POVM = {
    "dim": 2,
    "labels": ["click", 1],
    "effects": [
        {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": ZEROS},
        {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": ZEROS},
    ],
}
SCENARIO = {
    "sources": {
        "near": {"activity": 3.7e6, "distance": 100.0, "yield": 1.0},
        "far": {"activity": 1.48e7, "distance": 200.0},
    },
    "detector": {"aperture_diameter": 2.0, "efficiency": 0.008, "saturation": 100},
    "observer": {
        "env_dim": 2,
        "povms": [{"name": "inline", **POVM}, {"name": 7, "file": "povm.json"}],
    },
    "density_a": {"dim": 2, "re": [[0.75, 0.0], [0.0, 0.25]], "im": ZEROS},
    "density_b": {"dim": 2, "re": [[0.75, 0.2], [0.2, 0.25]], "im": [[0.0, 0.1], [-0.1, 0.0]]},
}
PRODUCT_STATE = {"dim": 4, "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]}
SINGLET_DENSITY = {
    "dim": 4,
    "re": [[0, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]],
    "im": [[0] * 4 for _ in range(4)],
}

# format -> (argv naming files by their names, {file name: valid document}, mutated file)
FORMATS = {
    "trace": (
        ["witness", "t.json"],
        {"t.json": {"steps": [{"output": 0}, {"output": 1, "input": "a"}],
                    "output_alphabet": [0, 1], "input_alphabet": ["a", "b"]}},
        "t.json",
    ),
    "machine": (
        ["minimize", "m.json"],
        {"m.json": {"states": 2, "inputs": ["a"], "outputs": [0, "x"], "initial": 0,
                    "delta": [[1], [0]], "lambda": [0, "x"]}},
        "m.json",
    ),
    "state": (["chsh", "--config", "c.json"], {"c.json": {"state": PRODUCT_STATE}}, "c.json"),
    "density": (["chsh", "--config", "c.json"], {"c.json": {"state": SINGLET_DENSITY}}, "c.json"),
    "chsh": (
        ["chsh", "--config", "c.json"],
        {"c.json": {"angles": {"a": 0, "a_prime": 1.5, "b": 0.7, "b_prime": 2.3},
                    "state": PRODUCT_STATE}},
        "c.json",
    ),
    "povm": (
        ["exchange", "--config", "s.json"],
        {"s.json": SCENARIO, "povm.json": POVM},
        "povm.json",
    ),
    "scenario": (
        ["exchange", "--config", "s.json"],
        {"s.json": SCENARIO, "povm.json": POVM},
        "s.json",
    ),
    "geiger": (["geiger", "--config", "s.json"], {"s.json": SCENARIO, "povm.json": POVM}, "s.json"),
    "noclone": (
        ["noclone", "--samples", "1", "--config", "p.json"],
        {"p.json": {"pairs": [
            {"name": "a", "psi": {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]},
             "phi": {"dim": 2, "re": [0.6, 0.0], "im": [0.0, 0.8]}},
            {"psi": {"dim": 2, "re": [0, 1], "im": [0, 0]},
             "phi": {"dim": 2, "re": [0, 1], "im": [0, 0]}},
        ]}},
        "p.json",
    ),
}

# formats whose every rejection names the mutated file: all of them
NAMED_IN_ERRORS = set(FORMATS)

KINDS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.just(10**400),
    st.floats(),
    st.sampled_from([math.nan, math.inf, 1e308]),
    st.text(max_size=3),
    st.sampled_from(["\udc80", "a\ud800"]),  # lone surrogates: JSON escapes spell them, UTF-8 cannot
    st.lists(st.one_of(st.integers(0, 1), st.floats(0, 1)), max_size=3),
    st.dictionaries(st.sampled_from(["x", "dim", "re"]), st.integers(0, 2), max_size=2),
)


def json_paths(doc, path=()):
    """Every path of ``doc``, the empty path (the whole document) first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_malformed_input_keeps_the_exit_code_contract(fmt, data):
    argv, files, target = FORMATS[fmt]
    path = data.draw(st.sampled_from(list(json_paths(files[target]))), label="path")
    value = data.draw(KINDS, label="value")
    files = {**files, target: replaced(files[target], path, value)}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, doc in files.items():
            (directory / name).write_text(json.dumps(doc))
        argv = [str(directory / a) if a in files else a for a in argv]
        target_path = str(directory / target)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert not caught, "a warning would print more lines on stderr"
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if fmt in NAMED_IN_ERRORS:
            assert target_path in err, err
        assert out == ""
    else:
        assert code in (0, 1) and err == ""
        json.loads(out, parse_constant=reject_constant)
        out.encode("utf-8")  # a report is UTF-8 text


def vector(re, im=None):
    return {"dim": len(re), "re": re, "im": im or [0.0] * len(re)}


def matrix(re, im=None):
    return {"dim": len(re), "re": re, "im": im or [[0.0] * len(re) for _ in re]}


KET = vector([1.0, 0.0])
HUGE = [[1e308, 1e308], [1e308, 1e308]]
INLINE = {**SCENARIO, "observer": {"env_dim": 2, "povms": [{"name": "z", **POVM}]}}

# numbers plain-Python arithmetic must not let through: non-finite entries,
# entries whose products overflow, a zero vector and a dimension above 64
# (argv, config, field the error names)
NUMERIC_CASES = {
    "nan-amplitude": (
        ["noclone", "--samples", "1"], {"pairs": [{"psi": vector([math.nan, 0.0]), "phi": KET}]}, "pairs[0].psi",
    ),
    "infinite-amplitude": (["chsh"], {"state": vector([0.0, 0.0, 0.0, math.inf])}, "state"),
    "nan-density-entry": (["exchange"], {**INLINE, "density_a": matrix([[math.nan, 0.0], [0.0, 1.0]])}, "density_a"),
    "infinite-density-entry": (
        ["exchange"], {**INLINE, "density_b": matrix([[1.0, 0.0], [0.0, 0.0]], [[0.0, math.inf], [-math.inf, 0.0]])},
        "density_b",
    ),
    "infinite-effect-entry": (
        ["geiger"],
        {**INLINE, "observer": {"env_dim": 2, "povms": [{"name": "z", **POVM, "effects": [
            matrix([[math.inf, 0.0], [0.0, 0.0]]), matrix([[0.0, 0.0], [0.0, 1.0]])]}]}},
        "observer.povms[0]",
    ),
    "overflowing-norm": (
        ["noclone", "--samples", "1"], {"pairs": [{"psi": vector([1e308, 1e308]), "phi": KET}]}, "pairs[0].psi",
    ),
    "overflowing-density": (["exchange"], {**INLINE, "density_a": matrix(HUGE)}, "density_a"),
    "overflowing-complex-density": (["chsh"], {"state": matrix(
        [[1e308, 0.0, 0.0, 1e308], [0.0] * 4, [0.0] * 4, [1e308, 0.0, 0.0, 1e308]],
        [[0.0, 0.0, 0.0, 1e308], [0.0] * 4, [0.0] * 4, [-1e308, 0.0, 0.0, 0.0]])}, "state"),
    "overflowing-effect": (
        ["exchange"],
        {**INLINE, "observer": {"env_dim": 2, "povms": [{"name": "z", **POVM, "effects": [matrix(HUGE)]}]}},
        "observer.povms[0]",
    ),
    "zero-vector": (["noclone", "--samples", "1"], {"pairs": [{"psi": vector([0.0, 0.0]), "phi": KET}]}, "pairs[0].psi"),
    "zero-chsh-state": (["chsh"], {"state": vector([0.0] * 4)}, "state"),
    "dim-65-state": (
        ["noclone", "--samples", "1"], {"pairs": [{"psi": vector([1.0] + [0.0] * 64), "phi": vector([1.0] + [0.0] * 64)}]},
        "pairs[0].psi",
    ),
    "dim-65-density": (
        ["exchange"], {**INLINE, "density_a": matrix([[float(i == j == 0) for j in range(65)] for i in range(65)])},
        "density_a",
    ),
}


@pytest.mark.parametrize("case", sorted(NUMERIC_CASES))
def test_numbers_outside_plain_arithmetic_exit_2_naming_the_field(case, tmp_path):
    argv, doc, field = NUMERIC_CASES[case]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))  # NaN and Infinity become JSON's non-standard tokens
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([*argv, "--config", str(config)])
    err = err.getvalue()
    assert (code, out.getvalue(), caught) == (2, "", [])
    assert err.startswith(f"error: {config}: {field}") and err.count("\n") == 1, err


@pytest.mark.parametrize("fmt", sorted(NAMED_IN_ERRORS))
def test_undecodable_file_is_named_in_its_error(fmt, tmp_path):
    argv, files, target = FORMATS[fmt]
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / target).write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark, not UTF-8
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code == 2 and out.getvalue() == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(tmp_path / target) in err and "invalid UTF-8" in err, err


@pytest.mark.parametrize(
    "fmt, path",
    [("trace", ("steps", 0, "output")), ("machine", ("initial",)), ("chsh", ("angles", "a")),
     ("geiger", ("detector", "saturation"))],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_an_integer_too_long_to_read_is_named_in_its_error(fmt, path, tmp_path):
    """``int`` refuses a literal of more than ``sys.get_int_max_str_digits()``
    digits (4300 by default) with a bare ValueError; the error names the file."""
    argv, files, target = FORMATS[fmt]
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    text = json.dumps(replaced(files[target], path, "LONG")).replace('"LONG"', "9" * 5000)
    (tmp_path / target).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code == 2 and out.getvalue() == ""
    assert err.startswith(f"error: {tmp_path / target}: invalid JSON (") and err.count("\n") == 1, err


TRACE = {"steps": [{"output": 0}, {"output": "b", "input": "a"}]}  # no declared alphabet to refuse a symbol
MACHINE = FORMATS["machine"][1]["m.json"]
SURROGATE_SOURCES = {**SCENARIO, "sources": {"\udc80": SCENARIO["sources"]["near"], "far": SCENARIO["sources"]["far"]}}

# case -> (argv naming files by their names, {file name: document}, file and field the error names)
SURROGATE_CASES = {
    "witness-trace-output": (
        ["witness", "t.json"], {"t.json": replaced(TRACE, ("steps", 0, "output"), "\udc80")},
        "t.json.steps[0].output",
    ),
    "witness-high-surrogate": (
        ["witness", "t.json"], {"t.json": replaced(TRACE, ("steps", 0, "output"), "\ud800")},
        "t.json.steps[0].output",
    ),
    "enumerate-trace-input": (
        ["enumerate", "t.json", "--max-states", "2"],
        {"t.json": replaced(TRACE, ("steps", 1, "input"), "\ud800")}, "t.json.steps[1].input",
    ),
    "enumerate-table-trace-input": (
        ["enumerate", "t.json", "--max-states", "2", "--format", "table"],
        {"t.json": replaced(TRACE, ("steps", 1, "input"), "\ud800")}, "t.json.steps[1].input",
    ),
    "distinguish-machine-lambda": (
        ["distinguish", "m.json", "n.json"],
        {"m.json": MACHINE, "n.json": replaced(MACHINE, ("lambda", 1), "\udc80")}, "n.json.lambda[1]",
    ),
    "exchange-povm-label": (
        ["exchange", "--config", "s.json"],
        {"s.json": SCENARIO, "povm.json": replaced(POVM, ("labels", 0), "a\udc80")}, "povm.json: povm.labels[0]",
    ),
    "exchange-source-name": (
        ["exchange", "--config", "s.json"], {"s.json": SURROGATE_SOURCES, "povm.json": POVM}, "s.json: sources",
    ),
    "geiger-source-name": (["geiger", "--config", "s.json"], {"s.json": SURROGATE_SOURCES}, "s.json: sources"),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("case", sorted(SURROGATE_CASES))
def test_a_lone_surrogate_in_a_string_exits_2_naming_file_and_field(case, to_file, tmp_path):
    """A lone surrogate cannot be written as UTF-8, so it is refused where it is
    read, whatever the destination or the format."""
    argv, files, field = SURROGATE_CASES[case]
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))  # ensure_ascii spells the surrogate as an escape
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    report = tmp_path / "r.json"
    if to_file:
        argv += ["--out", str(report)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert (code, out.getvalue(), report.exists()) == (2, "", False), err
    assert err.startswith(f"error: {tmp_path / field}") and err.count("\n") == 1, err


BAD_NAME = os.fsdecode(b"t\x80.json")  # "t\udc80.json": the byte 0x80 is not UTF-8

# case -> (argv, the files it reads, the argument the error names)
NON_UTF8_NAME_CASES = {
    "witness-trace": (["witness", BAD_NAME], {BAD_NAME: TRACE}, "trace"),
    "enumerate-trace": (["enumerate", BAD_NAME, "--max-states", "2"], {BAD_NAME: TRACE}, "trace"),
    "enumerate-table-trace": (
        ["enumerate", BAD_NAME, "--max-states", "2", "--format", "table"], {BAD_NAME: TRACE}, "trace",
    ),
    "distinguish-machine-a": (["distinguish", BAD_NAME, "m.json"], {BAD_NAME: MACHINE, "m.json": MACHINE}, "machine_a"),
    "distinguish-machine-b": (["distinguish", "m.json", BAD_NAME], {BAD_NAME: MACHINE, "m.json": MACHINE}, "machine_b"),
    "minimize-machine": (["minimize", BAD_NAME], {BAD_NAME: MACHINE}, "machine"),
    "chsh-config": (["chsh", "--config", BAD_NAME], {BAD_NAME: {}}, "--config"),
    "witness-out": (["witness", "t.json", "--out", BAD_NAME], {"t.json": TRACE}, "--out"),
}


@pytest.mark.parametrize("case", sorted(NON_UTF8_NAME_CASES))
def test_a_file_name_that_is_not_utf8_exits_2_at_parsing_naming_the_argument(case, tmp_path, monkeypatch):
    """A report echoes its file names, so one that UTF-8 cannot spell is refused
    before anything is read or written."""
    argv, files, argument = NON_UTF8_NAME_CASES[case]
    monkeypatch.chdir(tmp_path)
    for name, doc in files.items():
        with open(os.fsencode(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = err.getvalue()
    assert (exc.value.code, out.getvalue()) == (2, ""), err
    assert f"error: argument {argument}: " in err and "UTF-8" in err, err
    assert sorted(os.listdir(".")) == sorted(files)  # no report, no temp file
