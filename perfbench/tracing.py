"""In-memory spans around the program's public functions, and the per-layer
metrics derived from them.

Each layer is a set of functions wrapped where the caller looks them up (for
example ``moorelimit.cli.dumps_report``, which ``cli`` resolves through its
own globals).  A wrapper records one span: name, start, end, parent span and
the ``main`` invocation it belongs to.  A name missing from the code under
test is skipped, and a layer with no name left reports ``None``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# layer -> (module, attribute) pairs wrapped for it
LAYERS: dict[str, list[tuple[str, str]]] = {
    "cli.main": [("moorelimit.cli", "main")],
    "serialize.parse": [
        ("moorelimit.cli", name)
        for name in (
            "load_json",
            "trace_from_dict",
            "machine_from_dict",
            "state_from_dict",
            "density_from_dict",
            "source_from_dict",
            "detector_from_dict",
            "observer_from_dict",
        )
    ],
    "machines.enumerate": [("moorelimit.cli", "enumerate_consistent")],
    "kernels.search": [("moorelimit.kernels", "consistent_machine_encodings")],
    "machines.consistent": [("moorelimit.cli", "consistent")],
    "machines.witness": [("moorelimit.cli", "witness_moore")],
    "machines.distinguish": [("moorelimit.cli", "distinguishing_experiment")],
    "machines.minimize": [("moorelimit.cli", "minimize")],
    "serialize.to_dict": [("moorelimit.cli", "machine_to_dict")],
    "serialize.render": [("moorelimit.cli", "dumps_report"), ("moorelimit.cli", "_table_text")],
    "serialize.write": [("moorelimit.cli", "write_atomic")],
    "nogo.chsh": [("moorelimit.cli", "chsh_value")],
    "nogo.ks": [("moorelimit.cli", "kochen_specker_check")],
    "nogo.noclone": [("moorelimit.cli", "no_cloning_gap"), ("moorelimit.cli", "clone_inference_report")],
    "quantum.random_state": [("moorelimit.cli", "random_state")],
    "quantum.born": [("moorelimit.cli", "born_distribution"), ("moorelimit.observer", "born_distribution")],
    "observer.geiger": [
        ("moorelimit.cli", "geiger_outcome"),
        ("moorelimit.cli", "expected_count_rate"),
        ("moorelimit.cli", "sample_geiger_counts"),
    ],
    "observer.exchange": [
        ("moorelimit.cli", "exchange_witness"),
        ("moorelimit.cli", "outcome_statistics"),
        ("moorelimit.cli", "indistinguishable"),
    ],
}

# per-layer metric -> (unit, layer whose wrapped names it needs)
PER_LAYER = {
    "cli.main_s": ("s", "cli.main"),
    "cli.self_s": ("s", "cli.main"),
    "kernels.search_s": ("s", "kernels.search"),
    "kernels.search_calls": ("count", "kernels.search"),
    "kernels.search_lower_s": ("s", "kernels.search"),
    "kernels.behaviors": ("count", "kernels.search"),
    "machines.enumerate_s": ("s", "machines.enumerate"),
    "machines.enumerate_calls": ("count", "machines.enumerate"),
    "machines.build_s": ("s", "machines.enumerate"),
    "machines.consistent_s": ("s", "machines.consistent"),
    "machines.consistent_calls": ("count", "machines.consistent"),
    "serialize.to_dict_s": ("s", "serialize.to_dict"),
    "serialize.to_dict_calls": ("count", "serialize.to_dict"),
    "serialize.render_s": ("s", "serialize.render"),
    "serialize.render_bytes": ("bytes", "serialize.render"),
    "serialize.write_s": ("s", "serialize.write"),
    "serialize.parse_s": ("s", "serialize.parse"),
    "machines.witness_s": ("s", "machines.witness"),
    "machines.distinguish_s": ("s", "machines.distinguish"),
    "machines.minimize_s": ("s", "machines.minimize"),
    "nogo.chsh_s": ("s", "nogo.chsh"),
    "nogo.chsh_calls": ("count", "nogo.chsh"),
    "nogo.ks_s": ("s", "nogo.ks"),
    "nogo.noclone_s": ("s", "nogo.noclone"),
    "quantum.random_state_s": ("s", "quantum.random_state"),
    "quantum.born_s": ("s", "quantum.born"),
    "observer.geiger_s": ("s", "observer.geiger"),
    "observer.exchange_s": ("s", "observer.exchange"),
}


class Tracer:
    """Wraps the layers' functions and keeps every span in memory.

    A span is ``(span_id, name, start, end, parent_id, invocation, attrs)``;
    ``invocation`` is the span id of the enclosing ``cli.main`` call.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, int]] = []  # (span_id, invocation)
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.present: set[str] = set()

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))
                self.present.add(layer)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent, invocation = self._stack[-1] if self._stack else (None, span_id)
            self._stack.append((span_id, invocation))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            attrs = None
            if name == "kernels.search":
                attrs = (args[0] if args else kwargs.get("n_states"), len(result))
            elif name == "serialize.render":
                attrs = len(result.encode("utf-8"))
            self.spans.append((span_id, name, start, end, parent, invocation, attrs))
            return result

        return wrapper


def layer_totals(spans: list[tuple]) -> dict[str, float]:
    """Per-layer sums over a list of spans (one cycle of invocations).

    A layer's time is inclusive, counted once where the same layer nests in
    itself; ``cli.self_s`` and ``machines.build_s`` are self times, which is
    duration minus the time covered by child spans.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])

    def nested_in_same(s) -> bool:
        parent = s[4]
        while parent is not None:
            p = by_id[parent]
            if p[1] == s[1]:
                return True
            parent = p[4]
        return False

    out: dict[str, float] = defaultdict(float)
    top_search: dict[int, int] = {}
    for s in spans:
        if s[1] == "kernels.search":
            top_search[s[5]] = max(top_search.get(s[5], 0), s[6][0])
    for s in spans:
        span_id, name, start, end, _, invocation, attrs = s
        out[name + "_calls"] += 1
        if not nested_in_same(s):
            out[name + "_s"] += end - start
        out[name + "_self_s"] += (end - start) - child_time.get(span_id, 0.0)
        if name == "kernels.search":
            n_states, behaviors = attrs
            if n_states < top_search[invocation]:
                out["kernels.search_lower_s"] += end - start
            else:
                out["kernels.behaviors"] += behaviors
        elif name == "serialize.render":
            out["serialize.render_bytes"] += attrs
    out["cli.self_s"] = out["cli.main_self_s"]
    out["machines.build_s"] = out["machines.enumerate_self_s"]
    return dict(out)


def per_layer_metrics(totals: list[dict], present: set[str]) -> dict[str, float | None]:
    """Mean over cycles' ``layer_totals`` of every per-layer metric; ``None``
    for a layer whose wrapped names are all missing."""
    return {
        key: sum(t.get(key, 0) for t in totals) / len(totals) if layer in present else None
        for key, (_, layer) in PER_LAYER.items()
    }


def self_time_sum(totals: list[dict]) -> float:
    """Mean per cycle of every span's self time; equals ``cli.main_s`` when
    every span nests inside a traced ``main`` call."""
    return sum(
        sum(v for k, v in t.items() if k.endswith("_self_s")) for t in totals
    ) / len(totals)
