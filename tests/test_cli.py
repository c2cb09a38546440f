import gc
import hashlib
import json
import math
import os
import random
import stat
import subprocess
import sys
import tracemalloc

import pytest

from moorelimit import cli, serialize
from moorelimit.machines import Machine, Trace, consistent_encodings, enumerate_consistent
from moorelimit.serialize import machine_to_dict, trace_from_dict

GOLDEN_TRACE = os.path.join(os.path.dirname(__file__), "golden", "trace.json")


def write_json(path, doc):
    """Write ``doc`` as JSON; a string is written as it is, for text no encoder makes."""
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


@pytest.fixture
def trace01(tmp_path):
    return write_json(
        tmp_path / "trace01.json",
        {"steps": [{"output": 0}, {"output": 1}], "output_alphabet": [0, 1]},
    )


@pytest.fixture
def machine_files(tmp_path):
    toggle = Machine(
        state_count=2,
        input_alphabet=("a",),
        output_alphabet=(0, 1),
        transition=((1,), (0,)),
        output=(0, 1),
    )
    constant = Machine(
        state_count=1,
        input_alphabet=("a",),
        output_alphabet=(0, 1),
        transition=((0,),),
        output=(0,),
    )
    unrolled = Machine(
        state_count=4,
        input_alphabet=("a",),
        output_alphabet=(0, 1),
        transition=((1,), (2,), (3,), (0,)),
        output=(0, 1, 0, 1),
    )
    return {
        "toggle": write_json(tmp_path / "toggle.json", machine_to_dict(toggle)),
        "constant": write_json(tmp_path / "constant.json", machine_to_dict(constant)),
        "unrolled": write_json(tmp_path / "unrolled.json", machine_to_dict(unrolled)),
    }


def run_report(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# report envelope


def test_report_envelope_fields(capsys, trace01):
    code, report = run_report(capsys, ["witness", trace01])
    assert code == 0
    assert list(report) == ["command", "version", "seed", "inputs", "results", "checks"]
    assert report["command"] == "witness"
    assert report["seed"] == cli.DEFAULT_SEED


def test_seed_is_echoed(capsys):
    _, report = run_report(capsys, ["chsh", "--seed", "7"])
    assert report["seed"] == 7


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# witness


def test_witness_default(capsys, trace01):
    code, report = run_report(capsys, ["witness", trace01])
    assert code == 0
    assert all(report["checks"].values())
    assert report["results"]["machine_a"]["states"] == 2
    assert report["results"]["machine_b"]["states"] == 3
    assert report["results"]["separating_experiment"] == [["a", "a"]]
    assert report["results"]["outputs_a"] != report["results"]["outputs_b"]


def test_witness_table(capsys, trace01):
    code = cli.main(["witness", trace01, "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,position,output_a,output_b"
    # trace (0,1): both machines agree on the prefix, split on the last output
    assert lines[1:] == ["a a,0,0,0", "a a,1,1,1", "a a,2,1,0"]


def test_witness_inline_alphabet_flag(capsys, tmp_path):
    path = write_json(
        tmp_path / "bare.json", {"steps": [{"output": 3}, {"output": 3}], "output_alphabet": [3, 7]}
    )
    code, report = run_report(capsys, ["witness", path])
    assert code == 0
    assert report["inputs"]["output_alphabet"] == [3, 7]


def test_witness_degenerate_alphabet_exits_2(capsys, tmp_path):
    path = write_json(
        tmp_path / "deg.json",
        {"steps": [{"output": 0}, {"output": 0}], "output_alphabet": [0]},
    )
    assert cli.main(["witness", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert cli.main(["witness", "/nonexistent/trace.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert cli.main(["witness", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


NESTED_LIST = json.loads("[" * 400 + "]" * 400)  # shallow enough for json under pytest's stack
MACHINE_DOC = {
    "states": 2, "inputs": ["a"], "outputs": [0, 1], "initial": 0, "delta": [[1], [0]], "lambda": [0, 1],
}

# trace documents whose declared alphabets the trace contradicts
ALPHABET_FAULTS = {
    "undeclared-output": {"steps": [{"output": 0}], "output_alphabet": ["x"]},
    "undeclared-input": {"steps": [{"output": 0}, {"output": 1, "input": "b"}], "input_alphabet": ["a"]},
    "duplicate-symbol": {"steps": [{"output": 0}], "output_alphabet": [0, 0, 1]},
    "autonomous-without-a": {"steps": [{"output": 0}, {"output": 1}], "input_alphabet": ["x"]},
}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("witness", {"steps": [{"output": 0}, {"output": [0]}]}),
        ("enumerate", {"steps": [{"output": {"x": 0}}]}),
        (
            "minimize",
            {"states": 2, "inputs": ["a"], "outputs": [0, 1], "initial": 0,
             "delta": [[True], [0]], "lambda": [0, 1]},
        ),
        ("witness", "[" * 100_000),
        ("enumerate", {"steps": [{"output": NESTED_LIST}]}),
        ("witness", {"steps": [{"output": 0}, {"output": 1, "input": ["x" * 5000]}]}),
        ("minimize", {**MACHINE_DOC, "states": "s" * 5000}),
        ("minimize", {**MACHINE_DOC, "delta": [[[0] * 3000], [0]]}),
        ("minimize", {**MACHINE_DOC, "initial": "i" * 5000}),
        ("minimize", {**MACHINE_DOC, "lambda": [0, "l" * 5000]}),
        ("witness", {"steps": [{"output": 0}], "output_alphabet": ["o" * 4000]}),
        *[(command, doc) for doc in ALPHABET_FAULTS.values() for command in ("witness", "enumerate")],
    ],
    ids=[
        "list-symbol", "object-symbol", "bool-state", "deeply-nested", "nested-symbol", "long-symbol",
        "long-states", "long-delta-target", "long-initial", "long-lambda", "long-alphabet",
        *[f"{command}-{fault}" for fault in ALPHABET_FAULTS for command in ("witness", "enumerate")],
    ],
)
def test_malformed_document_exits_2_with_one_error_line(capsys, tmp_path, command, doc):
    path = write_json(tmp_path / "doc.json", doc)
    argv = [command, path]
    if command == "enumerate":
        argv += ["--max-states", "2"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1
    assert len(err) < len(str(tmp_path)) + 200  # a quoted value is cut short


@pytest.mark.parametrize(
    "command, value, message",
    [
        ("chsh", "-1", "must be >= 0"),
        ("noclone", "-1", "must be >= 1"),
        ("geiger", "-1", "must be >= 0"),
        ("noclone", "0", "must be >= 1"),
    ],
    ids=["chsh", "noclone", "geiger", "noclone-zero"],
)
def test_negative_samples_rejected_at_parsing(capsys, command, value, message):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--samples", value])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["chsh", "geiger"])
def test_zero_samples_is_the_same_as_no_samples(capsys, command):
    code, report = run_report(capsys, [command, "--samples", "0"])
    assert code == 0
    assert "sampled" not in report["results"]
    assert report == run_report(capsys, [command])[1]


ANGLES = {"a": 0.0, "a_prime": 1.0, "b": 0.5, "b_prime": 2.0}
SOURCE = {"activity": 1.0, "distance": 1.0}
DETECTOR = {"aperture_diameter": 2.0, "efficiency": 0.5}
KET0 = {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}
POVM_Z = {
    "dim": 2,
    "labels": [0, 1],
    "effects": [
        {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    ],
}


MIXED = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}


def with_observer(env_dim=2, **povm):
    """A two-source scenario whose observer carries one POVM, ``POVM_Z`` updated by ``povm``."""
    return {
        "sources": {"s": SOURCE, "t": SOURCE},
        "detector": DETECTOR,
        "observer": {"env_dim": env_dim, "povms": [{"name": "z", **POVM_Z, **povm}]},
    }


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("chsh", [1, 2], "c.json: expected an object"),
        ("chsh", {"angles": 5}, "c.json: angles: expected an object"),
        ("chsh", {"angles": {**ANGLES, "a": [1]}}, "c.json: angles.a: "),
        ("chsh", {"angles": {**ANGLES, "b": "x"}}, "c.json: angles.b: "),
        ("chsh", {"angles": {**ANGLES, "a": float("nan")}}, "c.json: angles.a: "),
        ("chsh", {"angles": {**ANGLES, "a": float("inf")}}, "c.json: angles.a: "),
        ("noclone", [1], "c.json: expected an object"),
        ("noclone", {"pairs": [5]}, "c.json: pairs[0]: expected an object"),
        ("geiger", [1], "c.json: expected an object"),
        ("exchange", [1], "c.json: expected an object"),
        ("geiger", {"sources": {"s": {**SOURCE, "distance": 1e-300}}, "detector": DETECTOR}, "distance"),
        ("geiger", {"sources": {"s": {**SOURCE, "distance": 1e200}}, "detector": DETECTOR}, "distance"),
        ("geiger", {"sources": {"s": {**SOURCE, "activity": "inf"}}, "detector": DETECTOR}, "sources.s: activity"),
        ("geiger", {"sources": {"s": {**SOURCE, "activity": float("nan")}}, "detector": DETECTOR}, "sources.s: activity"),
        ("geiger", {"sources": {"s": {**SOURCE, "activity": 10**400}}, "detector": DETECTOR}, "sources.s: "),
        ("geiger", {"sources": {"s": {**SOURCE, "activity": 1e308, "yield": 10.0}}, "detector": DETECTOR}, "count rate"),
        ("geiger", {"sources": {"s": SOURCE}, "detector": {**DETECTOR, "saturation": 2.7}}, "detector.saturation"),
        ("geiger", {"sources": {"s": SOURCE}, "detector": {**DETECTOR, "aperture_diameter": "inf"}}, "detector: aperture"),
        ("geiger", {"sources": {"s": SOURCE}, "detector": {**DETECTOR, "aperture_diameter": 1e200}}, "aperture"),
        ("geiger", {"sources": {"s": {"distance": 1.0}}, "detector": DETECTOR}, "c.json: sources.s: missing field 'activity'"),
        ("noclone", {"pairs": [{"name": [1], "psi": KET0, "phi": KET0}]}, "c.json: pairs[0].name: "),
        ("chsh", {"state": {"dim": 4, "re": {"x": 1}, "im": []}}, "c.json: state.re: "),
        ("exchange", with_observer(env_dim="x"), "observer.env_dim: "),
        ("exchange", with_observer(name=["c"]), "observer.povms[0].name: "),
        ("exchange", with_observer(file=7), "observer.povms[0].file: "),
        ("exchange", with_observer(file="missing.json"), "c.json: observer.povms[0].file: [Errno 2]"),
        ("geiger", with_observer(file=""), "c.json: observer.povms[0].file: [Errno 21]"),
        ("exchange", {**with_observer(), "observer": {"env_dim": 2, "povms": [{"name": 1, **POVM_Z}, {"name": "1", **POVM_Z}]}}, "observer.povms[1].name: "),
        ("noclone", {"pairs": [{"psi": {**KET0, "re": [float("nan"), 0.0]}, "phi": KET0}]}, "c.json: pairs[0].psi: "),
        ("chsh", {"state": KET0}, "c.json: state: "),
        ("noclone", {"pairs": [{"psi": {"dim": 1, "re": [1.0], "im": [0.0]}, "phi": KET0}]}, "c.json: pairs[0]: "),
        (
            "exchange",
            {**with_observer(), "density_a": {"dim": 2, "re": [[0.5, 1.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}},
            "c.json: density_a: density operator not Hermitian (deviation 1.0)",
        ),
        ("exchange", {"sources": {"s": SOURCE}, "detector": DETECTOR}, "c.json: sources: exchange compares exactly two sources"),
        ("exchange", {"sources": {"s": SOURCE, "t": SOURCE}}, "c.json: detector: missing field 'aperture_diameter'"),
        ("geiger", {"sources": {"s": SOURCE}}, "c.json: detector: missing field 'aperture_diameter'"),
        ("exchange", {"sources": {"s": {**SOURCE, "distance": 1e-300}, "t": SOURCE}, "detector": DETECTOR}, "c.json: sources.s: distance"),
        (
            "exchange",
            {
                **with_observer(),
                "density_a": {"dim": 1, "re": [[1.0]], "im": [[0.0]]},
                "density_b": {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            },
            "c.json: density_a: state dim 1 != POVM dim 2",
        ),
        ("exchange", {**with_observer(), "density_a": MIXED}, "c.json: missing 'density_b'; the statistics need"),
        (
            "exchange",
            {"sources": {"s": SOURCE, "t": SOURCE}, "detector": DETECTOR, "density_a": MIXED, "density_b": MIXED},
            "c.json: missing 'observer'; the statistics need",
        ),
        ("exchange", with_observer(), "c.json: missing 'density_a' and 'density_b'; the statistics need"),
    ],
    ids=[
        "chsh-array", "chsh-angles-number", "chsh-angle-array", "chsh-angle-string",
        "chsh-angle-nan", "chsh-angle-inf",
        "noclone-array", "noclone-pair-number", "geiger-array", "exchange-array",
        "distance-underflow", "distance-overflow", "activity-inf", "activity-nan", "activity-huge-int",
        "rate-overflow", "saturation-fraction", "aperture-inf", "aperture-overflow",
        "missing-activity", "pair-name-array", "state-re-object", "env-dim-string",
        "povm-name-array", "povm-file-number", "povm-file-missing", "povm-file-directory",
        "povm-name-repeated", "amplitude-nan",
        "chsh-state-dim-2", "pair-dims-differ",
        "exchange-density-not-hermitian", "exchange-one-source", "exchange-no-detector",
        "geiger-no-detector", "exchange-distance-underflow", "exchange-density-dim",
        "exchange-no-density-b", "exchange-no-observer", "exchange-observer-only",
    ],
)
def test_malformed_config_exits_2_naming_the_field(capsys, tmp_path, command, doc, field):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize("command", ["chsh", "noclone", "exchange"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "-1e-9"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, command, value):
    with pytest.raises(SystemExit) as exc:  # "--tol=" keeps argparse from reading "-1e-9" as an option
        cli.main([command, f"--tol={value}"])
    assert exc.value.code == 2
    assert "must be a finite number >= 0" in capsys.readouterr().err


def test_tolerance_defaults_per_command():
    parser = cli.build_parser()
    defaults = {"chsh": 1e-9, "noclone": 1e-12, "exchange": 1e-9}
    for command, tol in defaults.items():
        assert parser.parse_args([command]).tol == tol
        assert parser.parse_args([command, "--tol", "0.5"]).tol == 0.5
        assert parser.parse_args([command, "--tol", "0"]).tol == 0.0
    # the other subcommands check nothing against a tolerance, so they take no --tol;
    # ks's arithmetic is exact, so it checks its identities against 0
    others = {
        "ks": [],
        "witness": ["t.json"],
        "enumerate": ["t.json", "--max-states", "2"],
        "distinguish": ["a.json", "b.json"],
        "minimize": ["m.json"],
        "geiger": [],
    }
    for command, operands in others.items():
        assert "tol" not in vars(parser.parse_args([command, *operands]))
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, *operands, "--tol", "0.5"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["witness", "t.json"], "--seed"),
        (["enumerate", "t.json", "--max-states", "2"], "--seed"),
        (["distinguish", "a.json", "b.json"], "--seed"),
        (["minimize", "m.json"], "--seed"),
        (["ks"], "--seed"),
        (["exchange"], "--seed"),
        (["witness", "t.json"], "--output-alphabet"),
        (["witness", "t.json"], "--input-alphabet"),
        (["enumerate", "t.json", "--max-states", "2"], "--output-alphabet"),
        (["enumerate", "t.json", "--max-states", "2"], "--input-alphabet"),
    ],
)
def test_options_a_command_does_not_use_are_rejected_at_parsing(argv, flag):
    # only chsh, noclone and geiger sample, and a trace file declares its own alphabets
    parser = cli.build_parser()
    assert flag.lstrip("-").replace("-", "_") not in vars(parser.parse_args(argv))
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*argv, flag, "1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_counts(capsys, trace01):
    code, report = run_report(capsys, ["enumerate", trace01, "--max-states", "3"])
    assert code == 0
    assert report["results"]["counts"] == [
        {"max_states": 1, "count": 0},
        {"max_states": 2, "count": 2},
        {"max_states": 3, "count": 5},
    ]
    assert report["results"]["count"] == 5
    assert len(report["results"]["machines"]) == 5
    assert all(report["checks"].values())


def test_enumerate_table_exact(capsys, trace01):
    code = cli.main(["enumerate", trace01, "--max-states", "3", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "max_states,count\n1,0\n2,2\n3,5\n"


def random_trace_doc(rng: random.Random) -> dict:
    """A trace of 1-4 records over integer or string symbols with zero, one or
    two inputs, its alphabets declared or not."""
    outputs = rng.choice([(0, 1), ("lo", "hi"), (1, "x", 0)])
    inputs = rng.choice([None, ("a",), ("a", "b"), (1, 0)])
    steps = [{"output": rng.choice(outputs)}]
    for _ in range(rng.randint(0, 3)):
        steps.append({"output": rng.choice(outputs)})
        if inputs:
            steps[-1]["input"] = rng.choice(inputs)
    doc = {"steps": steps}
    if rng.random() < 0.5:
        doc["output_alphabet"] = list(outputs)
    if inputs and rng.random() < 0.5:
        doc["input_alphabet"] = list(inputs)
    return doc


def test_enumerate_rows_equal_the_documents_of_enumerated_machines(capsys, tmp_path):
    rng = random.Random(1956)
    for _ in range(40):
        doc = random_trace_doc(rng)
        bound = rng.randint(1, 3)
        path = write_json(tmp_path / "t.json", doc)
        code, report = run_report(capsys, ["enumerate", path, "--max-states", str(bound)])
        trace = trace_from_dict(doc)
        machines = enumerate_consistent(trace, bound)
        assert code == 0
        assert report["results"]["machines"] == [machine_to_dict(m) for m in machines], doc
        tally = [len(enumerate_consistent(trace, n)) for n in range(1, bound + 1)]
        assert [c["count"] for c in report["results"]["counts"]] == tally, doc
        assert report["results"]["count"] == tally[-1], doc


# alphabets whose symbols json must escape or spell at length
ESCAPED_OUTPUTS = [('"', "\\"), ("\n", " "), ("ö", "✓ \u2028"), (-1, 10**30), ('a"b', -7, "\x00")]
ESCAPED_INPUTS = [("\\", " "), ("ä", "\t"), (-5, 2**70), ('"',)]


def test_enumerate_report_bytes_equal_json_dumps_of_the_enumerated_machines(capsys, tmp_path):
    rng = random.Random(1956)
    for _ in range(30):
        outputs, inputs = rng.choice(ESCAPED_OUTPUTS), rng.choice(ESCAPED_INPUTS)
        steps = [{"output": rng.choice(outputs)}]
        steps += [{"output": rng.choice(outputs), "input": rng.choice(inputs)} for _ in range(rng.randint(1, 3))]
        doc = {"steps": steps, "output_alphabet": list(outputs), "input_alphabet": list(inputs)}
        bound = rng.randint(1, 3)
        path = write_json(tmp_path / "t.json", doc)
        out_path = tmp_path / "report.json"
        argv = ["enumerate", path, "--max-states", str(bound)]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        assert cli.main([*argv, "--out", str(out_path)]) == 0
        report = json.loads(printed)
        report["results"]["machines"] = [machine_to_dict(m) for m in enumerate_consistent(trace_from_dict(doc), bound)]
        expected = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
        assert printed == expected, doc
        assert out_path.read_bytes() == expected.encode("utf-8"), doc


def corrupt_search(monkeypatch, corrupt):
    """Make ``enumerate``'s search give ``corrupt(encodings)`` in place of its encodings."""
    search = cli.consistent_encodings
    monkeypatch.setattr(cli, "consistent_encodings", lambda trace, bound: corrupt(search(trace, bound)))


def replaced(encodings, i, enc):
    return [*encodings[:i], enc, *encodings[i + 1 :]]


def lambda_flipped(enc):
    """``enc`` with each state's output index over the outputs 0, 1 flipped; its
    ``delta`` is the object the search shares."""
    m, delta, lam = enc
    return m, delta, tuple(1 - out for out in lam)


def redirected(enc):
    """``enc`` with its first transition, under input 0, sent to a state whose
    output index differs from that of the state it went to, in a new ``delta``."""
    m, delta, lam = enc
    return m, (next(s for s, out in enumerate(lam) if out != lam[delta[0]]), *delta[1:]), lam


def test_all_consistent_replay_rejects_a_corrupted_row(capsys, monkeypatch):
    # the golden trace records outputs 0, 1, 1, 0 on inputs x, y, x; x is input 0 of 2
    encodings = consistent_encodings(Trace((0, 1, 1, 0), ("x", "y", "x")), 3)
    argv = ["enumerate", GOLDEN_TRACE, "--max-states", "3", "--format", "table"]
    assert len(encodings) == 59 and cli.main(argv) == 0
    for i, enc in enumerate(encodings):
        for corrupted in (lambda_flipped(enc), redirected(enc)):
            monkeypatch.setattr(cli, "consistent_encodings", lambda *_: replaced(encodings, i, corrupted))
            assert cli.main(argv) == 1, (enc, corrupted)
    capsys.readouterr()


@pytest.mark.parametrize("corrupt", [lambda_flipped, redirected])
def test_all_consistent_replays_the_rows_as_written(capsys, monkeypatch, corrupt):
    """The replay reads each encoding the report renders, so one corrupted
    between the search and the writing fails the check and the exit code."""
    corrupt_search(monkeypatch, lambda encodings: replaced(encodings, 1, corrupt(encodings[1])))
    argv = ["enumerate", GOLDEN_TRACE, "--max-states", "3"]
    code, report = run_report(capsys, argv)
    assert code == 1
    assert report["checks"] == {"counts_nondecreasing": True, "all_consistent": False, "all_within_bound": True}
    with open(os.path.join(os.path.dirname(GOLDEN_TRACE), "expected", "enumerate.json"), encoding="utf-8") as fh:
        written = json.load(fh)["results"]["machines"]
    row = written[1]
    enc = (row["states"], tuple(t for cells in row["delta"] for t in cells), tuple(row["lambda"]))  # outputs 0, 1 are indices
    m, delta, lam = corrupt(enc)
    row["delta"] = [list(delta[2 * s : 2 * s + 2]) for s in range(m)]
    row["lambda"] = list(lam)
    assert report["results"]["machines"] == written
    assert cli.main([*argv, "--format", "table"]) == 1
    assert capsys.readouterr().out == "max_states,count\n1,0\n2,2\n3,59\n"


def test_enumerate_table_builds_no_row_text(capsys, monkeypatch):
    """``--format table`` replays every encoding for the checks but renders no
    row, so its bytes and exit codes hold with the row-text builder broken."""

    def broken(self, pad):
        raise AssertionError("a table renders no machine row")

    monkeypatch.setattr(serialize.MachineRows, "texts", broken)
    argv = ["enumerate", GOLDEN_TRACE, "--max-states", "3", "--format", "table"]
    with open(os.path.join(os.path.dirname(GOLDEN_TRACE), "expected", "enumerate.csv"), encoding="utf-8") as fh:
        expected = fh.read()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    corrupt_search(monkeypatch, lambda encodings: replaced(encodings, 1, lambda_flipped(encodings[1])))
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == expected


def test_enumerate_deeper_than_the_recursion_limit_exits_2(capsys, tmp_path):
    """A search that would recurse past the interpreter's limit is refused as
    bad input, with one ``error:`` line and nothing written."""
    path = write_json(tmp_path / "chain.json", {"steps": [{"output": 0}] * 119 + [{"output": 1}]})
    out = tmp_path / "report.json"
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 80)  # the search recurses once per table slot: 120 here
    try:
        for extra in ([], ["--out", str(out)]):
            assert cli.main(["enumerate", path, "--max-states", "120", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: argument --max-states: 120 needs a search deeper")
            assert captured.err.count("\n") == 1 and f"recursion limit of {depth + 80}" in captured.err
    finally:
        sys.setrecursionlimit(limit)
    assert not out.exists() and [p.name for p in tmp_path.iterdir()] == ["chain.json"]


@pytest.mark.parametrize("bound", ["limit", 10**9])
def test_enumerate_refuses_a_bound_at_the_recursion_limit_before_searching(capsys, tmp_path, monkeypatch, bound):
    """The search recurses at least bound + 1 frames deep, so such a bound is refused without searching."""

    def search(*_):
        raise AssertionError("the search ran for a bound it cannot reach")

    monkeypatch.setattr(cli, "consistent_encodings", search)
    path = write_json(tmp_path / "chain.json", {"steps": [{"output": 0}, {"output": 1}]})
    limit = sys.getrecursionlimit()
    bound = limit if bound == "limit" else bound
    out = tmp_path / "report.json"
    for extra in ([], ["--out", str(out)]):
        assert cli.main(["enumerate", path, "--max-states", str(bound), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: argument --max-states: {bound} needs a search deeper "
                                f"than the interpreter's recursion limit of {limit}\n")
    assert not out.exists() and [p.name for p in tmp_path.iterdir()] == ["chain.json"]


def test_enumerate_search_that_overflows_the_stack_exits_2(capsys, tmp_path, monkeypatch):
    """A bound just below the limit passes the check up front; the search's RecursionError still exits 2."""
    calls = []

    def search(trace, bound):
        calls.append(bound)
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "consistent_encodings", search)
    path = write_json(tmp_path / "chain.json", {"steps": [{"output": 0}, {"output": 1}]})
    out = tmp_path / "report.json"
    for extra in ([], ["--out", str(out)]):
        assert cli.main(["enumerate", path, "--max-states", "3", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: argument --max-states: 3 needs a search deeper")
    assert calls == [3, 3]
    assert not out.exists() and [p.name for p in tmp_path.iterdir()] == ["chain.json"]


XYX = {"steps": [{"output": 0}, {"output": 1, "input": "a"}, {"output": 0, "input": "b"}], "input_alphabet": ["a", "b"]}


@pytest.mark.parametrize("form", ["report", "table"])
def test_enumerate_holds_no_rows_beyond_its_encodings(capsys, tmp_path, form):
    # the 6998 rows of the x,y,x trace at N=4 took about 2.5 MB when they were all kept
    path = write_json(tmp_path / "xyx.json", XYX)
    argv = ["enumerate", path, "--max-states", "4"]
    argv += ["--out", str(tmp_path / "report.json")] if form == "report" else ["--format", "table"]

    def peak(run) -> int:
        gc.collect()  # a full collection empties the free lists, which tracemalloc does not see reused
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert cli.main(argv) == 0  # warm up: imports and first-call caches
    capsys.readouterr()
    search = peak(lambda: consistent_encodings(trace_from_dict(XYX), 4))
    assert peak(lambda: cli.main(argv)) - search < 512 * 1024
    assert capsys.readouterr().out == ("" if form == "report" else "max_states,count\n1,0\n2,4\n3,142\n4,6998\n")


# sha256 of the x,y,x report at N=4 (6998 rows) and of its table, run on the relative name "xyx.json"
XYX_SHA256 = {
    "report": "39877f72c0d71446c621f9232414e91e121165edb879ad761e254954aeae0bbb",
    "table": "e5d2cfc0c29f0aa0f7c6f69b26c156bb222e9db1118e897dce66df624577e8f9",
}


def test_enumerate_wide_report_and_table_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report echoes the trace's name as given
    write_json(tmp_path / "xyx.json", XYX)
    argv = ["enumerate", "xyx.json", "--max-states", "4"]

    def sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    assert cli.main(argv) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == XYX_SHA256["report"]
    assert cli.main([*argv, "--out", "report.json"]) == 0
    assert capsys.readouterr().out == ""
    assert sha256((tmp_path / "report.json").read_bytes()) == XYX_SHA256["report"]
    assert cli.main([*argv, "--format", "table"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == XYX_SHA256["table"]


def test_enumerate_requires_max_states(trace01):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", trace01])
    assert exc.value.code == 2


def test_enumerate_rejects_zero_bound(capsys, trace01):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", trace01, "--max-states", "0"])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["chsh"], ["noclone"], ["geiger", "--samples", "3"]],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_rejected_at_parsing_naming_flag_and_value(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["chsh", "--samples", str(2**64)],
        ["enumerate", GOLDEN_TRACE, "--max-states", str(2**64)],
        ["noclone", "--samples", str(2**64)],
        ["geiger", "--samples", str(2**64)],
    ],
    ids=lambda argv: argv[0],
)
def test_count_too_large_to_use_exits_2_with_one_error_line(capsys, argv):
    # refused at parsing, before a count is converted to a machine integer or a loop starts
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"moorelimit {argv[0]}: error: argument {argv[-2]}: must be <= {sys.maxsize}, got {argv[-1]}"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["chsh", "--config", ""],
        ["noclone", "--config", ""],
        ["exchange", "--config", ""],
        ["geiger", "--config", ""],
        ["minimize", os.path.join(os.path.dirname(GOLDEN_TRACE), "machine_padded.json"), "--out", ""],
        ["chsh", "--out", ""],
    ],
    ids=" ".join,
)
def test_an_empty_file_name_exits_2_at_parsing_naming_the_flag(capsys, argv):
    # an empty name is not "not given": it neither falls back to the defaults nor to stdout
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"moorelimit {argv[0]}: error: argument {argv[-2]}: expected a file name, got ''"]


def test_a_state_bound_too_large_to_index_exits_2_naming_the_flag(capsys):
    # sys.maxsize passes parsing, but the search's table over two inputs would need twice as many slots
    assert cli.main(["enumerate", GOLDEN_TRACE, "--max-states", str(sys.maxsize)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: argument --max-states: must be <= {sys.maxsize // 2} over 2 inputs, got {sys.maxsize}\n"
    )


def test_a_seed_past_the_count_bound_is_still_taken(capsys):
    # numpy seeds from any integer >= 0, so --seed has no upper bound
    assert cli.main(["noclone", "--seed", str(2**64), "--samples", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**64


# ---------------------------------------------------------------------------
# distinguish / minimize


def test_distinguish_inequivalent(capsys, machine_files):
    code, report = run_report(
        capsys, ["distinguish", machine_files["toggle"], machine_files["constant"]]
    )
    assert code == 0
    assert report["results"]["equivalent"] is False
    assert report["results"]["separating_experiment"] == [["a"]]
    assert report["checks"]["experiment_iff_inequivalent"]


def test_distinguish_equivalent(capsys, machine_files):
    code, report = run_report(
        capsys, ["distinguish", machine_files["toggle"], machine_files["unrolled"]]
    )
    assert code == 0
    assert report["results"]["equivalent"] is True
    assert report["results"]["separating_experiment"] is None


def test_minimize(capsys, machine_files):
    code, report = run_report(capsys, ["minimize", machine_files["unrolled"]])
    assert code == 0
    assert report["results"]["states_before"] == 4
    assert report["results"]["states_after"] == 2
    assert all(report["checks"].values())


def test_minimize_table(capsys, machine_files):
    cli.main(["minimize", machine_files["unrolled"], "--format", "table"])
    assert capsys.readouterr().out == "states_before,states_after\n4,2\n"


# ---------------------------------------------------------------------------
# chsh


def test_chsh_default(capsys):
    code, report = run_report(capsys, ["chsh"])
    assert code == 0
    results = report["results"]
    assert results["S"] == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)
    assert results["closed_form_deviation"] <= 1e-12
    assert results["lhv_max"] == 2
    assert results["verdict"] == "quantum exceeds LHV"
    assert all(report["checks"].values())


def test_chsh_sampled_block(capsys):
    code, report = run_report(capsys, ["chsh", "--samples", "500"])
    assert code == 0
    sampled = report["results"]["sampled"]
    assert sampled["samples_per_setting"] == 500
    assert abs(sampled["S_estimate"]) <= 4.0
    # estimates are reported, never gated on
    assert set(report["checks"]) == {
        "within_tsirelson",
        "lhv_max_is_two",
        "closed_form_agrees",
    }


def test_chsh_product_state_within_lhv(capsys, tmp_path):
    config = write_json(
        tmp_path / "prod.json",
        {"state": {"dim": 4, "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]}},
    )
    code, report = run_report(capsys, ["chsh", "--config", config])
    assert code == 0
    assert report["results"]["S"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert report["results"]["verdict"] == "within LHV bound"
    assert "closed_form_S" not in report["results"]


def test_chsh_custom_angles(capsys, tmp_path):
    config = write_json(
        tmp_path / "flat.json",
        {"angles": {"a": 0.0, "a_prime": 0.0, "b": 0.0, "b_prime": 0.0}},
    )
    code, report = run_report(capsys, ["chsh", "--config", config])
    assert code == 0
    assert report["results"]["S"] == pytest.approx(-2.0, abs=1e-12)


def test_chsh_angles_block_must_be_complete(capsys, tmp_path):
    config = write_json(tmp_path / "partial.json", {"angles": {"a": 0.0}})
    assert cli.main(["chsh", "--config", config]) == 2
    assert "a_prime" in capsys.readouterr().err


def test_chsh_table_is_sweep(capsys):
    cli.main(["chsh", "--format", "table"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a,a_prime,b,b_prime,S"
    assert len(lines) == 101
    # the canonical quadruple sits at theta = pi/4 (row k=12 is close; exact row k where
    # 2*pi*k/100 == pi/4 does not exist, so just check the sweep hits the extremes)
    values = [float(line.split(",")[4]) for line in lines[1:]]
    assert min(values) == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-2)
    assert max(values) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-2)


# ---------------------------------------------------------------------------
# ks


def test_ks(capsys):
    code, report = run_report(capsys, ["ks"])
    assert code == 0
    assert all(report["checks"].values())
    assert report["results"]["satisfying_assignments"] == 0
    assert report["results"]["assignment_count"] == 512
    assert report["results"]["contextual"] is True


def test_ks_table(capsys):
    cli.main(["ks", "--format", "table"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "row,col,label"
    assert lines[1] == "0,0,XI"
    assert lines[-1] == "2,2,ZZ"
    assert len(lines) == 10


# ---------------------------------------------------------------------------
# noclone


def test_noclone_default(capsys):
    code, report = run_report(capsys, ["noclone"])
    assert code == 0
    checks = report["checks"]
    assert checks["identical_gap_zero"]
    assert checks["orthogonal_gap_zero"]
    assert checks["overlap_0.6_gap_0.24"]
    assert checks["random_gaps_positive"]
    assert checks["classical_witness_separates"]
    gaps = {row["name"]: row["gap"] for row in report["results"]["pairs"]}
    assert gaps["overlap_0.6"] == 0.24
    analogue = report["results"]["classical_analogue"]
    assert analogue["records_identical"] is True
    assert analogue["machines_equivalent"] is False


def test_noclone_custom_pairs(capsys, tmp_path):
    config = write_json(
        tmp_path / "pairs.json",
        {
            "pairs": [
                {
                    "name": "same",
                    "psi": {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]},
                    "phi": {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]},
                }
            ]
        },
    )
    code, report = run_report(capsys, ["noclone", "--config", config, "--samples", "5"])
    assert code == 0
    assert report["results"]["pairs"] == [{"name": "same", "overlap": 1.0, "gap": 0.0}]
    assert report["results"]["random"]["count"] == 5
    # the frozen-pair checks only apply to the built-in demonstration
    assert "overlap_0.6_gap_0.24" not in report["checks"]
    assert "classical_analogue" not in report["results"]


def test_noclone_memory_does_not_grow_with_samples(capsys):
    # the random block keeps a running min_gap and max_gap, not every gap
    def peak(samples: int) -> int:
        tracemalloc.start()
        try:
            assert cli.main(["noclone", "--samples", str(samples)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(500)  # warm up: imports and first-call caches
    assert peak(5000) - peak(500) < 32 * 1024


def test_noclone_bad_config(capsys, tmp_path):
    config = write_json(tmp_path / "bad.json", {"pairs": "nope"})
    assert cli.main(["noclone", "--config", config]) == 2


# ---------------------------------------------------------------------------
# exchange


def test_exchange_default(capsys):
    code, report = run_report(capsys, ["exchange"])
    assert code == 0
    results = report["results"]
    assert results["records_equal"] is True
    assert results["configs_identical"] is False
    assert results["verdict"] == "records carry no trace of the exchange"
    outcomes = [row["outcome"] for row in results["sources"]]
    assert outcomes[0] == outcomes[1]
    stats = results["statistics"]
    assert stats["indistinguishable"] is True
    assert stats["max_deviation"] == 0.0
    assert stats["states_identical"] is False
    assert all(report["checks"].values())


@pytest.mark.parametrize(
    "second, code, outcomes, records_equal, configs_identical",
    [
        ({"activity": 1.48e7, "distance": 200.0}, 0, [1, 1], True, False),  # the stock far source
        ({"activity": 3.7e6, "distance": 100.0}, 1, [1, 1], True, True),  # the near source again
        ({"activity": 3.7e6, "distance": 300.0}, 1, [1, 0], False, False),  # too far for a count
    ],
    ids=["exchanged", "identical", "unequal"],
)
def test_exchange_compares_records_and_configs(
    capsys, tmp_path, second, code, outcomes, records_equal, configs_identical
):
    config = write_json(
        tmp_path / "pair.json",
        {
            "sources": {"near": {"activity": 3.7e6, "distance": 100.0}, "other": second},
            "detector": {"aperture_diameter": 2.0, "efficiency": 0.008, "saturation": 100},
        },
    )
    exit_code, report = run_report(capsys, ["exchange", "--config", config])
    assert exit_code == code
    results = report["results"]
    assert [row["outcome"] for row in results["sources"]] == outcomes
    assert results["records_equal"] is records_equal
    assert results["configs_identical"] is configs_identical
    assert report["checks"] == {"records_equal": records_equal, "configs_distinct": not configs_identical}


def test_exchange_distinguishable_sources_exit_1(capsys, tmp_path):
    config = write_json(
        tmp_path / "unequal.json",
        {
            "sources": {
                "weak": {"activity": 3.7e6, "distance": 100.0},
                "strong": {"activity": 1.0e12, "distance": 1.0},
            },
            "detector": {"aperture_diameter": 2.0, "efficiency": 0.008},
        },
    )
    code, report = run_report(capsys, ["exchange", "--config", config])
    assert code == 1
    assert report["checks"]["records_equal"] is False
    assert report["results"]["verdict"] == "records distinguish the configurations"


def test_exchange_requires_two_sources(capsys, tmp_path):
    config = write_json(
        tmp_path / "three.json",
        {
            "sources": {
                "a": {"activity": 1.0, "distance": 1.0},
                "b": {"activity": 1.0, "distance": 1.0},
                "c": {"activity": 1.0, "distance": 1.0},
            },
            "detector": {"aperture_diameter": 2.0, "efficiency": 0.008},
        },
    )
    assert cli.main(["exchange", "--config", config]) == 2
    assert "two sources" in capsys.readouterr().err


def test_exchange_observer_povm_from_file(capsys, tmp_path):
    povm_doc = {
        "dim": 2,
        "labels": ["click", "silent"],
        "effects": [
            {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        ],
    }
    write_json(tmp_path / "counter.json", povm_doc)
    zeros = [[0.0, 0.0], [0.0, 0.0]]
    config = write_json(
        tmp_path / "scenario.json",
        {
            "sources": {
                "near": {"activity": 3.7e6, "distance": 100.0},
                "far": {"activity": 1.48e7, "distance": 200.0},
            },
            "detector": {"aperture_diameter": 2.0, "efficiency": 0.008},
            "observer": {"env_dim": 2, "povms": [{"name": "counter", "file": "counter.json"}]},
            "density_a": {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": zeros},
            "density_b": {"dim": 2, "re": [[0.5, 0.25], [0.25, 0.5]], "im": zeros},
        },
    )
    code, report = run_report(capsys, ["exchange", "--config", config])
    assert code == 0
    stats = report["results"]["statistics"]
    assert stats["povms"]["counter"]["labels"] == ["click", "silent"]
    assert stats["povms"]["counter"]["p_a"] == pytest.approx([0.5, 0.5])
    assert stats["indistinguishable"] is True


# ---------------------------------------------------------------------------
# geiger


def test_geiger_default(capsys):
    code, report = run_report(capsys, ["geiger"])
    assert code == 0
    rows = report["results"]["sources"]
    assert [row["outcome"] for row in rows] == [1, 1]
    assert rows[0]["expected_rate"] == pytest.approx(0.74, abs=1e-12)
    assert report["results"]["outcomes_equal"] is True
    assert all(report["checks"].values())


def test_geiger_single_source_has_no_equality_check(capsys, tmp_path):
    config = write_json(
        tmp_path / "single.json",
        {
            "sources": {"only": {"activity": 3.7e6, "distance": 100.0}},
            "detector": {"aperture_diameter": 2.0, "efficiency": 0.008},
        },
    )
    code, report = run_report(capsys, ["geiger", "--config", config])
    assert code == 0
    assert "outcomes_equal" not in report["results"]
    assert list(report["checks"]) == ["within_saturation"]


def test_geiger_checks_a_partial_set_of_quantum_blocks_and_ignores_it(capsys, tmp_path):
    config = write_json(tmp_path / "c.json", {**with_observer(), "density_a": MIXED})
    code, report = run_report(capsys, ["geiger", "--config", config])
    assert code == 0
    assert "statistics" not in report["results"]


def test_geiger_sampled_counts_deterministic(capsys, tmp_path):
    code, first = run_report(capsys, ["geiger", "--samples", "40", "--seed", "3"])
    assert code == 0
    _, second = run_report(capsys, ["geiger", "--samples", "40", "--seed", "3"])
    assert first == second
    sampled = first["results"]["sampled"]
    assert set(sampled) == {"near", "far"}
    assert sampled["near"]["samples"] == 40
    assert 0 <= sampled["near"]["min"] <= sampled["near"]["max"] <= 100


def test_geiger_table(capsys):
    cli.main(["geiger", "--format", "table"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "source,activity,distance,yield,expected_rate,outcome"
    assert len(lines) == 3
    assert lines[1].startswith("near,3700000.0,100.0,1.0,0.74")


# ---------------------------------------------------------------------------
# output plumbing


def test_out_file_matches_stdout_bytes(capsys, tmp_path):
    cli.main(["ks"])
    stdout_text = capsys.readouterr().out
    target = tmp_path / "report.json"
    code = cli.main(["ks", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == stdout_text
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_out_error_names_the_path_given(capsys, tmp_path, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path / "dir"
    if where == "a-directory":
        target.mkdir()
    assert cli.main(["ks", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith(f": {str(target)!r}\n")
    assert not list(tmp_path.rglob("*.tmp"))


def test_out_file_honours_umask(tmp_path):
    target = tmp_path / "report.json"
    old = os.umask(0o022)
    try:
        assert cli.main(["ks", "--out", str(target)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(target.stat().st_mode) == 0o644


def test_repeated_invocations_byte_identical():
    cmd = [sys.executable, "-m", "moorelimit", "chsh", "--samples", "200"]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = [subprocess.run(cmd, capture_output=True, check=True, env=env) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.endswith(b"\n")
