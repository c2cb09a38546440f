"""The names the benchmark harness (``perfbench/``) looks up in the program still exist.

``perfbench/tracing.py`` wraps functions at ``(module, name)`` lookup sites,
skips a name its module no longer has, and reports ``null`` for a layer with
no name left; ``perfbench/run.py`` records ``kernels.BACKEND`` and calls
``cli.main``.  These tests import ``tracing.py`` by path and check that every
layer still has a site to wrap.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moorelimit import cli, kernels
from moorelimit.machines import Machine

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer", sorted(tracing.LAYERS))
def test_every_layer_has_a_lookup_site_that_resolves(layer):
    sites = tracing.LAYERS[layer]
    assert any(hasattr(importlib.import_module(module), name) for module, name in sites), sites


# A traced run that only ever dispatches machine commands, in a process where
# nothing else has imported numpy or the physics modules: the sites that
# resolve in the pytest process must resolve here too.
FRESH_PROCESS = """\
import contextlib, importlib, importlib.util, io, json, sys
from moorelimit import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["enumerate", "trace.json", "--max-states", "2"])
has_path = hasattr(cli, "__path__")
numpy_loaded = "numpy" in sys.modules
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
unresolved = [
    layer for layer, sites in tracing.LAYERS.items()
    if not any(hasattr(importlib.import_module(module), name) for module, name in sites)
]
print(json.dumps({"rc": rc, "has_path": has_path, "numpy_loaded": numpy_loaded, "unresolved": unresolved}))
"""


def test_every_layer_resolves_in_a_fresh_interpreter():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, str(TRACING)],
        cwd=ROOT / "tests" / "golden",
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == {
        "rc": 0,
        "has_path": False,
        "numpy_loaded": False,
        "unresolved": [],
    }


def test_every_per_layer_metric_names_a_known_layer():
    assert {layer for _, layer in tracing.PER_LAYER.values()} <= set(tracing.LAYERS)


def test_search_kernel_interface():
    assert kernels.BACKEND == "python"
    # state bound first, a sized result: tracing.py reads both
    assert isinstance(kernels.consistent_machine_encodings(2, 1, 2, (0,), (0, 1)), list)


def test_machine_takes_positional_fields():
    machine = Machine(2, ("a",), (0, 1), [[1], [0]], [0, 1])
    assert machine.transition == ((1,), (0,))


def test_cli_renders_reports_to_text():
    assert isinstance(cli.dumps_report({}), str)
