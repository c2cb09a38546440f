"""Every name a module under ``src/moorelimit/`` imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moorelimit"

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
