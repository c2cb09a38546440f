"""Every name a module under ``src/moorelimit/`` imports is used in that module,
every module-level private name is read somewhere in the package, no module
imports ``dataclasses`` or ``inspect``, the machine commands, ``ks`` and
``geiger`` load no physics module and, for a report, no ``csv``, and the
physics commands load numpy only to draw."""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moorelimit"
GOLDEN = Path(__file__).resolve().parent / "golden"

# the modules only chsh, noclone and exchange need, and geiger only when it
# samples (numpy) or checks a config's quantum blocks (the rest)
PHYSICS = {"numpy", "moorelimit.demos", "moorelimit.nogo", "moorelimit.quantum", "moorelimit.observer"}

# what no module of the package imports: ``dataclasses`` pulls in ``inspect``
# and with it ``ast``, ``dis`` and ``tokenize``
HEAVY = {"dataclasses", "inspect"}

# (module file, name) imported on purpose and never used there
EXEMPT = {
    # perfbench/tracing.py wraps moorelimit.cli.enumerate_consistent by name
    ("cli.py", "enumerate_consistent"),
    # perfbench/tracing.py wraps moorelimit.cli.dumps_report by name, and
    # tests/test_benchmark_contract.py renders a report through it
    ("cli.py", "dumps_report"),
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_uses_every_name_it_imports(path):
    unused = [n for n in unused_imports(path.read_text()) if (path.name, n) not in EXEMPT]
    assert unused == []


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Any, List\nx: Any = 1\n") == ["os", "List"]


def private_names(statement) -> list[str]:
    """The ``_name``s (dunders excluded) a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """``FILE:NAME`` for each module-level private name of ``sources`` (file
    name -> text) that no statement but its own definition reads, as a name or
    as an attribute."""
    statements = [(name, node) for name, text in sources.items() for node in ast.parse(text).body]
    reads = [
        {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        for _, node in statements
    ]
    return [
        f"{file}:{name}"
        for i, (file, node) in enumerate(statements)
        for name in private_names(node)
        if not any(name in read for j, read in enumerate(reads) if j != i)
    ]


def test_package_reads_every_private_name_it_defines():
    assert unreferenced_privates({p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


def test_scan_sees_an_unreferenced_private_name():
    sources = {
        "a.py": "_SEEN = 1\n_UNSEEN, __all__ = 2, []\n\ndef _helper():\n    return _SEEN\n\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n\nclass _Unused:\n    pass\n",
        "b.py": "from . import a\n\nvalue = a._helper()\n",
    }
    assert unreferenced_privates(sources) == ["a.py:_UNSEEN", "a.py:_recursive", "a.py:_Unused"]


def imported_packages(source: str) -> set[str]:
    """The top-level package of every absolute ``import`` anywhere in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_machine_path_imports_no_dataclasses_or_inspect(name):
    assert imported_packages((PACKAGE / name).read_text()) & HEAVY == set()


def test_import_scan_sees_nested_and_dotted_imports():
    source = "def f():\n    import inspect.x\n    from dataclasses import field\n    from . import kernels\n"
    assert imported_packages(source) == {"inspect", "dataclasses"}


def imported_modules(*args: str) -> set[str]:
    """Every module a fresh ``python -X importtime ARGS`` imports, run in
    ``tests/golden`` with this checkout's package first on the path."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=GOLDEN,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@functools.cache
def bare_interpreter_modules() -> frozenset[str]:
    """What ``python -c pass`` loads here: ``site`` may import a module itself."""
    return frozenset(imported_modules("-c", "pass"))


MACHINE_COMMANDS = [
    ["witness", "trace.json"],
    ["enumerate", "trace_ab.json", "--max-states", "3"],
    ["distinguish", "machine_a.json", "machine_b.json"],
    ["minimize", "machine_padded.json"],
]


# ``python -m`` is how the benchmark runs the program, and its ``from .cli
# import main`` probes ``cli.__path__``, which an in-process test never does
@pytest.mark.parametrize("argv", MACHINE_COMMANDS, ids=lambda argv: argv[0])
def test_machine_command_loads_no_physics_module(argv):
    loaded = imported_modules("-m", "moorelimit", *argv)
    assert "moorelimit.cli" in loaded
    assert loaded & PHYSICS == set()


@pytest.mark.parametrize("argv", MACHINE_COMMANDS, ids=lambda argv: argv[0])
def test_machine_command_report_loads_no_dataclasses_or_csv(argv):
    loaded = imported_modules("-m", "moorelimit", *argv)
    assert "moorelimit.cli" in loaded
    assert loaded & (HEAVY | {"csv"}) <= bare_interpreter_modules()


def test_table_format_loads_csv():
    assert "csv" in imported_modules("-m", "moorelimit", "minimize", "machine_padded.json", "--format", "table")


GEIGER_COMMANDS = [["geiger"], ["geiger", "--format", "table"]]


@pytest.mark.parametrize("argv", GEIGER_COMMANDS, ids=" ".join)
def test_geiger_loads_no_physics_module_dataclasses_or_inspect(argv):
    loaded = imported_modules("-m", "moorelimit", *argv)
    assert "moorelimit.detector" in loaded
    assert loaded & PHYSICS == set()
    assert loaded & HEAVY <= bare_interpreter_modules()


KS_COMMANDS = [["ks"], ["ks", "--format", "table"]]


@pytest.mark.parametrize("argv", KS_COMMANDS, ids=" ".join)
def test_ks_loads_no_physics_module_dataclasses_or_inspect(argv):
    loaded = imported_modules("-m", "moorelimit", *argv)
    assert "moorelimit.contextuality" in loaded
    assert loaded & PHYSICS == set()
    assert loaded & HEAVY <= bare_interpreter_modules()


def test_geiger_loads_numpy_to_sample():
    assert "numpy" in imported_modules("-m", "moorelimit", "geiger", "--samples", "1")


POVM = {"dim": 2, "labels": [0, 1], "effects": [
    {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
]}
SCENARIO = {
    "sources": {"s": {"activity": 3.7e6, "distance": 100.0}, "t": {"activity": 1.48e7, "distance": 200.0}},
    "detector": {"aperture_diameter": 2.0, "efficiency": 0.008},
    "observer": {"env_dim": 2, "povms": [{"name": "inline", **POVM}, {"name": "filed", "file": "povm.json"}]},
    "density_a": {"dim": 2, "re": [[0.75, 0.0], [0.0, 0.25]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    "density_b": {"dim": 2, "re": [[0.75, 0.2], [0.2, 0.25]], "im": [[0.0, 0.1], [-0.1, 0.0]]},
}
CHSH_CONFIG = {
    "angles": {"a": 0.0, "a_prime": 1.5, "b": 0.7, "b_prime": 2.3},
    "state": {"dim": 4, "re": [0.0, 0.6, -0.8, 0.0], "im": [0.0, 0.0, 0.0, 0.0]},
}


def write_configs(directory: Path) -> None:
    for name, doc in (("povm.json", POVM), ("s.json", SCENARIO), ("c.json", CHSH_CONFIG)):
        (directory / name).write_text(json.dumps(doc))


def test_geiger_checks_an_observer_block_without_numpy(tmp_path):
    write_configs(tmp_path)
    loaded = imported_modules("-m", "moorelimit", "geiger", "--config", str(tmp_path / "s.json"))
    assert "moorelimit.demos" in loaded
    assert "numpy" not in loaded


PLAIN_PHYSICS_COMMANDS = [
    ["chsh"],
    ["chsh", "--format", "table"],
    ["chsh", "--samples", "0"],
    ["chsh", "--config", "c.json"],
    ["exchange"],
    ["exchange", "--format", "table"],
    ["exchange", "--config", "s.json"],
]


@pytest.mark.parametrize("argv", PLAIN_PHYSICS_COMMANDS, ids=" ".join)
def test_chsh_and_exchange_load_no_numpy(tmp_path, argv):
    write_configs(tmp_path)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    loaded = imported_modules("-m", "moorelimit", *argv)
    assert "moorelimit.demos" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("argv", [["noclone"], ["chsh", "--samples", "1"]], ids=" ".join)
def test_drawing_loads_numpy(argv):
    assert "numpy" in imported_modules("-m", "moorelimit", *argv)


def test_counter_names_resolve_on_cli_without_numpy():
    names = "geiger_outcome, expected_count_rate, sample_geiger_counts, source_from_dict, detector_from_dict"
    loaded = imported_modules("-c", f"from moorelimit.cli import {names}")
    assert "moorelimit.detector" in loaded
    assert loaded & PHYSICS == set()


def test_kochen_specker_check_resolves_on_cli_without_numpy():
    loaded = imported_modules("-c", "from moorelimit.cli import kochen_specker_check")
    assert "moorelimit.contextuality" in loaded
    assert "numpy" not in loaded


def test_physics_command_loads_the_physics_modules():
    assert PHYSICS - {"numpy"} <= imported_modules("-m", "moorelimit", "chsh")


def test_importing_cli_loads_no_numpy():
    loaded = imported_modules("-c", "import moorelimit.cli")
    assert "moorelimit.cli" in loaded
    assert "numpy" not in loaded
