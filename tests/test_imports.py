"""Every name a module under ``src/moorelimit/`` imports is used in that module,
and the machine commands import no physics module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moorelimit"
GOLDEN = Path(__file__).resolve().parent / "golden"

# the modules only chsh, ks, noclone, exchange and geiger need
PHYSICS = {"numpy", "moorelimit.demos", "moorelimit.nogo", "moorelimit.quantum", "moorelimit.observer"}

# (module file, name) imported on purpose and never used there
EXEMPT = {
    # perfbench/tracing.py wraps moorelimit.cli.enumerate_consistent by name
    ("cli.py", "enumerate_consistent"),
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


# ``python -m`` is how the benchmark runs the program, and its ``from .cli
# import main`` probes ``cli.__path__``, which an in-process test never does
@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "trace.json"],
        ["enumerate", "trace_ab.json", "--max-states", "3"],
        ["distinguish", "machine_a.json", "machine_b.json"],
        ["minimize", "machine_padded.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_machine_command_loads_no_physics_module(argv):
    loaded = imported_modules("-m", "moorelimit", *argv)
    assert "moorelimit.cli" in loaded
    assert loaded & PHYSICS == set()


def test_physics_command_loads_the_physics_modules():
    assert PHYSICS <= imported_modules("-m", "moorelimit", "ks")


def test_importing_cli_loads_no_numpy():
    loaded = imported_modules("-c", "import moorelimit.cli")
    assert "moorelimit.cli" in loaded
    assert "numpy" not in loaded
