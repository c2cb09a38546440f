"""The names the benchmark harness (``perfbench/``) looks up in the program still exist.

``perfbench/tracing.py`` wraps functions at ``(module, name)`` lookup sites,
skips a name its module no longer has, and reports ``null`` for a layer with
no name left; ``perfbench/run.py`` records ``kernels.BACKEND`` and calls
``cli.main``.  These tests import ``tracing.py`` by path and check that every
layer still has a site to wrap.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from moorelimit import cli, kernels
from moorelimit.machines import Machine

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
