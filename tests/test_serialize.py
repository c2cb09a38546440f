import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moorelimit import cli
from moorelimit.machines import Machine, Trace
from moorelimit.observer import ObserverModel
from moorelimit.quantum import Povm, basis_povm
from moorelimit.demos import (
    density_from_dict,
    detector_from_dict,
    matrix_from_dict,
    observer_from_dict,
    povm_from_dict,
    source_from_dict,
    state_from_dict,
)
from moorelimit.serialize import (
    ParseError,
    dumps_report,
    load_json,
    machine_from_dict,
    machine_to_dict,
    trace_from_dict,
    write_atomic,
)


ZEROS = [[0.0, 0.0], [0.0, 0.0]]
BASIS_POVM = {
    "dim": 2,
    "labels": [0, 1],
    "effects": [
        {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": ZEROS},
        {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": ZEROS},
    ],
}


def toggle():
    return Machine(
        state_count=2,
        input_alphabet=("a", "b"),
        output_alphabet=(0, "hi"),
        transition=((1, 0), (0, 1)),
        output=(0, "hi"),
    )


def test_machine_round_trip():
    doc = machine_to_dict(toggle())
    assert doc["states"] == 2
    assert doc["delta"] == [[1, 0], [0, 1]]
    assert machine_from_dict(doc) == toggle()


def test_machine_round_trip_through_json_text():
    text = json.dumps(machine_to_dict(toggle()))
    assert machine_from_dict(json.loads(text)) == toggle()


def test_machine_missing_field():
    doc = machine_to_dict(toggle())
    del doc["delta"]
    with pytest.raises(ParseError, match="delta"):
        machine_from_dict(doc)


def test_machine_invalid_table_becomes_parse_error():
    # JSON true/false is not a state index, although bool is an int subclass
    for field, value, message in [
        ("delta", [[5, 0], [0, 1]], "transition target 5"),
        ("delta", [[True, 0], [0, 1]], "transition target True"),
        ("initial", True, "initial state True"),
        ("states", True, "state_count"),
    ]:
        doc = machine_to_dict(toggle())
        doc[field] = value
        with pytest.raises(ParseError, match=message):
            machine_from_dict(doc)


def test_trace_round_trip_without_inputs():
    back = trace_from_dict({"steps": [{"output": 0}, {"output": 1}, {"output": 1}]})
    assert back == Trace((0, 1, 1))
    assert back.inputs == ("a", "a")
    assert back.output_alphabet is None and back.input_alphabet is None
    assert back.alphabets == ((0, 1), ("a",))


def test_trace_round_trip_with_inputs_and_alphabets():
    doc = {
        "steps": [{"output": "lo"}, {"output": "hi", "input": "b"}],
        "output_alphabet": ["lo", "hi"],
        "input_alphabet": ["a", "b"],
    }
    trace = trace_from_dict(doc)
    assert trace == Trace(("lo", "hi"), ("b",), output_alphabet=("lo", "hi"), input_alphabet=("a", "b"))
    assert trace.output_alphabet == ("lo", "hi")
    assert trace.input_alphabet == ("a", "b")


@pytest.mark.parametrize("declared", [[], None], ids=["empty", "null"])
def test_trace_empty_or_null_alphabet_declares_nothing(capsys, tmp_path, declared):
    doc = {"steps": [{"output": 0}, {"output": 1}], "output_alphabet": declared, "input_alphabet": declared}
    trace = trace_from_dict(doc)
    assert trace.output_alphabet is None and trace.input_alphabet is None
    assert trace.alphabets == ((0, 1), ("a",))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["witness", str(path)]) == 0
    echo = json.loads(capsys.readouterr().out)["inputs"]
    assert echo["output_alphabet"] is None and echo["input_alphabet"] is None


def test_trace_rejects_an_empty_alphabet_passed_to_the_constructor():
    with pytest.raises(ValueError, match="output alphabet must be nonempty"):
        Trace((0,), output_alphabet=())


def test_trace_first_step_must_not_carry_input():
    with pytest.raises(ParseError, match="first record"):
        trace_from_dict({"steps": [{"output": 0, "input": "a"}, {"output": 1}]})


def test_trace_inputs_all_or_none():
    doc = {"steps": [{"output": 0}, {"output": 1, "input": "a"}, {"output": 0}]}
    with pytest.raises(ParseError, match="every step"):
        trace_from_dict(doc)


def test_trace_empty_steps():
    with pytest.raises(ParseError):
        trace_from_dict({"steps": []})


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"steps": [{"output": 0}, {"output": [0]}]}, "trace.steps[1].output"),
        ({"steps": [{"output": 0}, {"output": 1, "input": {"a": 1}}]}, "trace.steps[1].input"),
        ({"steps": [{"output": True}]}, "trace.steps[0].output"),
        ({"steps": [{"output": 0}], "input_alphabet": "ab"}, "trace.input_alphabet"),
    ],
    ids=["list-output", "object-input", "bool-output", "string-alphabet"],
)
def test_trace_symbols_are_strings_or_integers(doc, where):
    with pytest.raises(ParseError, match=re.escape(where)):
        trace_from_dict(doc)


def test_matrix_round_trip_complex():
    doc = {"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, -1.0], [1.0, 0.0]]}
    assert np.array_equal(matrix_from_dict(doc), np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def test_matrix_shape_mismatch():
    with pytest.raises(ParseError, match="row-major"):
        matrix_from_dict({"dim": 2, "re": [[1.0]], "im": [[0.0]]})


def test_state_round_trip():
    psi = state_from_dict({"dim": 3, "re": [0.6, 0.0, 0.0], "im": [0.0, 0.8, 0.0]})
    assert np.array_equal(psi.amplitudes, [0.6, 0.8j, 0.0])


def test_state_rejects_unnormalized():
    with pytest.raises(ParseError):
        state_from_dict({"dim": 2, "re": [1.0, 1.0], "im": [0.0, 0.0]})


def test_density_from_dict_validates():
    doc = {"dim": 2, "re": [[0.75, 0.2], [0.2, 0.25]], "im": [[0.0, 0.1], [-0.1, 0.0]]}
    assert np.array_equal(density_from_dict(doc).matrix, [[0.75, 0.2 + 0.1j], [0.2 - 0.1j, 0.25]])
    with pytest.raises(ParseError):
        density_from_dict({"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": ZEROS})  # trace 2


def test_povm_round_trip():
    povm = basis_povm(2, labels=("up", "down"))
    back = povm_from_dict({**BASIS_POVM, "labels": ["up", "down"]})
    assert back.labels == ("up", "down")
    for e1, e2 in zip(back.effects, povm.effects):
        assert np.array_equal(e1.matrix, e2.matrix)


def test_povm_incomplete_rejected():
    doc = {
        "dim": 2,
        "labels": ["only"],
        "effects": [{"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
    }
    with pytest.raises(ParseError):
        povm_from_dict(doc)
    del doc["effects"][0]["re"]
    with pytest.raises(ParseError) as exc:
        povm_from_dict(doc, "observer.povms[0]")
    assert str(exc.value) == "observer.povms[0].effects[0]: missing field 're'"
    with pytest.raises(ParseError) as exc:
        density_from_dict(doc["effects"][0], "density_a")
    assert str(exc.value) == "density_a: missing field 're'"


def test_source_and_detector_parsing():
    src = source_from_dict({"activity": 100.0, "distance": 5.0, "yield": 0.9})
    assert src.photon_yield == 0.9
    with pytest.raises(ParseError, match="activity") as exc:
        source_from_dict({"distance": 5.0}, "sources.s")
    assert str(exc.value) == "sources.s: missing field 'activity'"
    with pytest.raises(ParseError):
        source_from_dict({"activity": -1.0, "distance": 5.0})
    det = detector_from_dict({"aperture_diameter": 2.0, "efficiency": 0.008})
    assert det.saturation == 100
    with pytest.raises(ParseError):
        detector_from_dict({"aperture_diameter": 2.0, "efficiency": 7.0})
    with pytest.raises(ParseError) as exc:
        detector_from_dict({"efficiency": 0.5})
    assert str(exc.value) == "detector: missing field 'aperture_diameter'"
    assert detector_from_dict({"aperture_diameter": 2.0, "efficiency": 0.5, "saturation": 50.0}).saturation == 50
    with pytest.raises(ParseError, match=r"^detector\.saturation: "):
        detector_from_dict({"aperture_diameter": 2.0, "efficiency": 0.5, "saturation": 2.7})


def test_observer_inline_and_file_povms(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps(BASIS_POVM))
    doc = {
        "env_dim": 2,
        "povms": [
            {"name": "inline", **BASIS_POVM},
            {"name": "fromfile", "file": "z.json"},
        ],
    }
    observer = observer_from_dict(doc, base_dir=tmp_path)
    assert isinstance(observer, ObserverModel)
    assert set(observer.povms) == {"inline", "fromfile"}
    assert isinstance(observer.povms["fromfile"], Povm)


def test_observer_requires_povms():
    with pytest.raises(ParseError):
        observer_from_dict({"env_dim": 2, "povms": []})


def test_load_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_json(path)


def test_dumps_report_is_deterministic_and_newline_terminated():
    doc = {"b": 1, "a": [1.5, "x"], "nested": {"k": True}}
    text = dumps_report(doc)
    assert text.endswith("\n")
    assert text == dumps_report(doc)
    assert json.loads(text) == doc
    # insertion order is preserved, not sorted
    assert text.index('"b"') < text.index('"a"')


def reference_dumps(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.text(alphabet=st.characters(codec="utf-8")),
    st.sampled_from([1, True, 1.0, "1", 0, False, -0.0, 1e16, 5e-324, 2**64 + 1, "\u2028", "\x00\x1f\n", "ön ✓"]),
)
KEYS = st.one_of(st.text(max_size=3), st.integers(), st.floats(), st.booleans(), st.none())
JSON_DOCS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(doc=JSON_DOCS)
@example(doc=[[1, 0], [True, False], [1.0, 0.0], ["1", "0"], (1, 0), [[1, 0], [True, False]]])
@example(doc=[-0.0, 1e16, 5e-324, float("nan"), float("inf"), float("-inf"), 2**64 + 1, -(2**80)])
@example(doc={"ön": "\u2028\x00\x7f\ud800", 1: [], 2.5: {}, True: (), None: "", float("nan"): [[]]})
@example(doc=[])
@example(doc={})
@example(doc="top-level ✓")
def test_dumps_report_matches_json_indent_2(doc):
    assert dumps_report(doc) == reference_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [{(1, 2): 0}, object(), [1, object()], {"k": np.int64(1)}, np.int64(1), {"a": {1: {frozenset(): 1}}}],
    ids=["tuple-key", "object", "object-in-list", "numpy-int-value", "numpy-int", "frozenset-key"],
)
def test_dumps_report_refuses_what_json_refuses(doc):
    with pytest.raises(Exception) as refused:
        reference_dumps(doc)
    with pytest.raises(refused.type):
        dumps_report(doc)


def test_dumps_report_keeps_numpy_floats_as_json_does():
    doc = {"x": np.float64(0.1), "y": [np.float64(-0.0), np.float64("nan")]}
    assert dumps_report(doc) == reference_dumps(doc)


def test_write_atomic_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    write_atomic(target, "new contents\n")
    assert target.read_text() == "new contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
