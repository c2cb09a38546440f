import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moorelimit import cli
from moorelimit.machines import Machine, Trace, consistent_encodings, enumerate_consistent
from moorelimit.observer import ObserverModel
from moorelimit.quantum import Povm, basis_povm
from moorelimit.demos import (
    density_from_dict,
    matrix_from_dict,
    observer_from_dict,
    povm_from_dict,
    state_from_dict,
)
from moorelimit.detector import detector_from_dict, source_from_dict
from moorelimit.serialize import (
    MachineRows,
    ParseError,
    dumps_report,
    load_json,
    machine_from_dict,
    machine_to_dict,
    trace_from_dict,
    write_atomic,
    write_report,
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


def test_dumps_report_renders_one_list_reached_at_several_indentations():
    shared = [1, "a", None, 2.5]
    row = {"x": shared, "deep": {"y": shared, "z": [shared, (shared,)]}}
    doc = {"rows": [row, row, {"x": shared}], "top": shared, "pair": [[shared], shared]}
    assert dumps_report(doc) == reference_dumps(doc)


def test_dumps_report_keeps_aliased_1_true_and_1_0_apart():
    ints, bools, floats = [1, 0], [True, False], [1.0, 0.0]
    doc = [
        ints, bools, floats,
        {"1": ints, "t": bools},
        {1: bools}, {True: floats}, {1.0: ints},
        [floats, bools, ints], (ints, bools), [[ints], [bools], [floats]],
    ]
    assert dumps_report(doc) == reference_dumps(doc)


@st.composite
def aliased_docs(draw):
    """A document built from a few drawn sub-objects, each reachable from many places."""
    pool = draw(st.lists(st.one_of(st.lists(SCALARS, min_size=1, max_size=3), JSON_DOCS), min_size=1, max_size=4))
    shapes = st.recursive(
        st.sampled_from(pool),  # the pooled objects themselves, not copies
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(KEYS, inner, max_size=4),
        ),
        max_leaves=12,
    )
    return draw(st.lists(shapes, min_size=2, max_size=4))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(doc=aliased_docs())
def test_dumps_report_matches_json_indent_2_on_aliased_documents(doc):
    assert dumps_report(doc) == reference_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {(1, 2): 0}, object(), [1, object()], {"k": np.int64(1)}, np.int64(1), {"a": {1: {frozenset(): 1}}},
        (x for x in [1]), {"rows": (x for x in [[1]])},
    ],
    ids=["tuple-key", "object", "object-in-list", "numpy-int-value", "numpy-int", "frozenset-key",
         "generator", "generator-in-dict"],
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
    write_atomic(target, lambda write: write("new contents\n"))
    assert target.read_text() == "new contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


WIDE = Trace((0, 1, 0), ("a", "b"))  # the two-input x,y,x trace, whose 6998 machines fill about 3.5 MB at N=4


def wide_rows():
    """The documents of the 6998 machines of the x,y,x trace at N=4, as ``enumerate`` reports them."""
    return [machine_to_dict(m) for m in enumerate_consistent(WIDE, 4)]


def documents(encodings, inputs, outputs) -> list:
    """The machine documents that search ``encodings`` describe over the alphabets
    ``inputs`` and ``outputs``, built field by field."""
    k = len(inputs)
    return [
        {"states": m, "inputs": list(inputs), "outputs": list(outputs), "initial": 0,
         "delta": [list(delta[s * k : (s + 1) * k]) for s in range(m)],
         "lambda": [outputs[i] for i in lam]}
        for m, delta, lam in encodings
    ]


CHUNK_BOUND = 256 * 1024  # characters; the whole report below is about 3.5 MB


def test_write_report_streams_in_bounded_chunks():
    doc = {"command": "enumerate", "results": {"count": 6998, "machines": wide_rows()}, "checks": {"ok": True}}
    assert len(doc["results"]["machines"]) == 6998
    chunks = []
    write_report(doc, chunks.append)
    text = reference_dumps(doc)
    assert len(text) > 10 * CHUNK_BOUND
    assert len(chunks) > 1
    assert max(len(chunk) for chunk in chunks) < CHUNK_BOUND
    assert "".join(chunks) == text


def test_write_atomic_keeps_the_old_target_when_rendering_fails(tmp_path):
    rows = wide_rows()
    rows.append({"states": object()})  # the last row holds a value json refuses
    target = tmp_path / "report.json"
    target.write_bytes(b"old bytes\n")
    written = []

    def produce(write):
        def counted(chunk):
            written.append(len(chunk))
            return write(chunk)

        write_report({"machines": rows}, counted)

    with pytest.raises(TypeError):
        write_atomic(target, produce)
    assert written  # chunks reached the temp file before the render failed
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_machine_rows_of_the_wide_search_are_the_documents_of_its_machines():
    outputs, inputs = WIDE.alphabets
    encodings = consistent_encodings(WIDE, 4)
    assert documents(encodings, inputs, outputs) == wide_rows()
    doc = {"machines": MachineRows(iter(encodings), inputs, outputs), "after": 1}
    assert dumps_report(doc) == reference_dumps({"machines": wide_rows(), "after": 1})


# alphabets whose symbols json must escape or spell at length: (inputs, outputs)
ESCAPED = [(("\\", " "), ('"', "\n", "ö")), (("ä", "\t", -5), ("✓ \u2028", 10**30)), ((2**70,), ('a"b', -7, "\x00"))]


def random_encodings(rng, inputs, outputs, count) -> list:
    """``count`` encodings of 1-3 states, in no order, so tables repeat apart; each
    holds tuples of its own, so equal tables are grouped by value."""
    encodings = []
    for _ in range(count):
        m = rng.randint(1, 3)
        encodings.append((m, tuple(rng.randrange(m) for _ in range(m * len(inputs))),
                          tuple(rng.randrange(len(outputs)) for _ in range(m))))
    return encodings


def test_machine_rows_render_encodings_in_any_order_as_json_does():
    # a text cached by value serves a repeated table or lambda however far apart
    rng = random.Random(1956)
    for inputs, outputs in ESCAPED:
        encodings = random_encodings(rng, inputs, outputs, 60)
        encodings += encodings[:5]
        doc = {"machines": MachineRows(iter(encodings), inputs, outputs), "none": MachineRows(iter(()), inputs, outputs),
               "after": [1]}
        expected = {"machines": documents(encodings, inputs, outputs), "none": [], "after": [1]}
        assert dumps_report(doc) == reference_dumps(expected)


def small_rows(inputs, outputs):
    """A :class:`MachineRows` over three completions of one two-state table,
    adjacent as the search gives them but each with a ``delta`` of its own, and
    their documents."""
    encodings = [(2, (*[1] * len(inputs), *[0] * len(inputs)), lam) for lam in ((0, 1), (1, 0), (1, 1))]
    return MachineRows(iter(encodings), inputs, outputs), documents(encodings, inputs, outputs)


def test_dumps_report_renders_machine_rows_nested_in_a_dict_in_a_list():
    for inputs, outputs in ESCAPED:
        rows, docs = small_rows(inputs, outputs)
        assert dumps_report([{"rows": rows, "n": 3}, docs[0]]) == reference_dumps([{"rows": docs, "n": 3}, docs[0]])


def test_enumerate_streams_its_machine_rows_in_bounded_chunks(tmp_path, monkeypatch):
    """``enumerate`` renders its rows as whole-table texts; the chunks it writes
    stay bounded in characters, however few parts they hold."""
    path = tmp_path / "xyx.json"
    path.write_text(json.dumps({"steps": [{"output": 0}, {"output": 1, "input": "a"}, {"output": 0, "input": "b"}],
                                "input_alphabet": ["a", "b"]}))
    chunks = []

    class Counting:
        write = chunks.append

        def flush(self):
            pass

    monkeypatch.setattr("sys.stdout", Counting())
    assert cli.main(["enumerate", str(path), "--max-states", "4"]) == 0
    monkeypatch.undo()
    assert len(chunks) > 1
    assert max(len(chunk) for chunk in chunks) < CHUNK_BOUND
    report = json.loads("".join(chunks))
    report["results"]["machines"] = wide_rows()
    assert "".join(chunks) == reference_dumps(report)


def test_write_atomic_keeps_the_old_target_when_machine_rows_hold_a_refused_value(tmp_path):
    outputs, inputs = WIDE.alphabets
    encodings = consistent_encodings(WIDE, 4)
    encodings.append((1, (object(), 0), (0,)))  # the last table holds a value json refuses
    target = tmp_path / "report.json"
    target.write_bytes(b"old bytes\n")
    written = []

    def produce(write):
        def counted(chunk):
            written.append(len(chunk))
            return write(chunk)

        write_report({"machines": MachineRows(iter(encodings), inputs, outputs)}, counted)

    with pytest.raises(TypeError, match="not JSON serializable"):
        write_atomic(target, produce)
    assert written  # chunks reached the temp file before the render failed
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_machine_rows_after_a_string_item_of_a_list():
    (rows_s, docs_s), (rows_t, docs_t) = small_rows(*ESCAPED[0]), small_rows(*ESCAPED[1])
    assert dumps_report(["line\n", rows_s, "after", rows_t]) == reference_dumps(["line\n", docs_s, "after", docs_t])


def test_machine_rows_at_depth_four():
    def doc(d, e, h):
        return {"a": [{"b": {"c": [1, d], "e": e}}], "f": {"g": h}}

    (rows_d, docs_d), (rows_h, docs_h) = small_rows(*ESCAPED[1]), small_rows(*ESCAPED[2])
    empty = MachineRows(iter(()), *ESCAPED[0])
    assert dumps_report(doc(rows_d, empty, rows_h)) == reference_dumps(doc(docs_d, [], docs_h))


def test_a_value_set_once_the_rows_run_out_renders_with_its_final_value():
    checks = {"all_rows_seen": False, "rows": 0}
    inputs, outputs = ESCAPED[0]
    _, docs = small_rows(inputs, outputs)

    def encodings():
        for enc in small_rows(inputs, outputs)[0].encodings:
            checks["rows"] += 1
            yield enc
        checks["all_rows_seen"] = True

    text = dumps_report({"machines": MachineRows(encodings(), inputs, outputs), "checks": checks})
    assert text == reference_dumps({"machines": docs, "checks": {"all_rows_seen": True, "rows": 3}})


def test_a_circular_document_raises_what_json_raises():
    doc = {"rows": []}
    doc["rows"].append(doc)
    with pytest.raises(ValueError, match="Circular reference detected"):
        reference_dumps(doc)
    with pytest.raises(ValueError, match="Circular reference detected"):
        dumps_report(doc)
