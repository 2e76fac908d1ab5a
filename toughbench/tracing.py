"""Spans around calls into toughspec's public functions, for the traced run.

``Tracer.install`` replaces each target function, in every loaded toughspec
module that holds it, by a wrapper that records a span (layer key, start,
end, parent span, operation index).  So a call is traced at the name its
caller looks up: ``verify`` calling its own imported ``spectral_radius`` is
seen as well as the benchmark calling ``toughspec.spectra.spectral_radius``.
A target that no longer exists is skipped, and its metric is left out.

Spans stay in memory; ``write`` saves them when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (layer key, module, attribute).  Several functions may share one key; a
# span nested inside another span of the same key is not counted twice.
TARGETS = (
    ("families.build", "toughspec.families", "family_graph"),
    ("families.build", "toughspec.families", "build_family"),
    ("families.match", "toughspec.families", "matches_family"),
    ("graphs.bipartition", "toughspec.graphs", "bipartition_of"),
    ("spectra.radius", "toughspec.spectra", "spectral_radius"),
    ("spectra.quotient_root", "toughspec.spectra", "quotient_matrix"),
    ("spectra.quotient_root", "toughspec.spectra", "char_poly"),
    ("spectra.quotient_root", "toughspec.spectra", "largest_real_root"),
    ("spectra.spectrum", "toughspec.spectra", "full_spectrum"),
    ("toughness.decide", "toughspec.toughness", "is_tau_tough"),
    ("toughness.minimize", "toughspec.toughness", "toughness"),
    ("toughness.minimize", "toughspec.toughness", "variation_toughness"),
    ("toughness.onesided", "toughspec.toughness", "bipartite_toughness"),
    ("verify.classify", "toughspec.verify", "check_graph_against_theorem"),
    ("verify.threshold", "toughspec.verify", "threshold"),
    ("cli.run", "toughspec.cli", "run"),
    ("graphio.parse", "toughspec.graphio", "parse_graph"),
    ("bounds.brouwer", "toughspec.bounds", "brouwer_margin"),
)

# Layers reported by self time (their spans wrap the other layers).
SELF_TIME = ("verify.classify", "cli.run")
# Layers that also report their call count.
CALLS = ("spectra.radius", "toughness.decide")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [key, start, end, parent, op]
        self.op = -1
        self.graphs_built = 0
        self.power_iterations = 0
        self.found: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module_name in {module_name for _, module_name, _ in TARGETS}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                continue  # its targets are skipped below
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "toughspec" or name.startswith("toughspec."))
        ]
        for key, module_name, attr in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                continue
            self.found.add(key)
            wrapper = self._wrap(key, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        graph_cls = getattr(sys.modules.get("toughspec.graphs"), "Graph", None)
        if graph_cls is not None:
            self.found.add("graphs.built")
            self._patch(graph_cls, "__init__", self._count_graphs(graph_cls.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack
        count_iterations = key == "spectra.radius"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([key, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if count_iterations:
                self.power_iterations += getattr(result, "iterations", 0)
            return result

        return traced

    def _count_graphs(self, init):
        def counted(graph, *args, **kwargs):
            self.graphs_built += 1
            init(graph, *args, **kwargs)

        return counted

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.graphs_built = 0
        self.power_iterations = 0

    def layer_totals(self) -> tuple[Counter, Counter, Counter]:
        """Per key: inclusive seconds, self seconds and calls.

        Inclusive time and calls count only spans with no ancestor of the same
        key.  Self time is a span's duration minus its direct children's.
        """
        inclusive, self_time, calls = Counter(), Counter(), Counter()
        child_time = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (key, start, end, parent, _) in enumerate(self.spans):
            self_time[key] += end - start - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != key:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[key] += end - start
                calls[key] += 1
        return inclusive, self_time, calls

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation layer metrics over the spans recorded so far."""
        inclusive, self_time, calls = self.layer_totals()
        out = {}
        for key in sorted({key for key, _, _ in TARGETS} & self.found):
            seconds = self_time[key] if key in SELF_TIME else inclusive[key]
            out[f"{key}_s"] = seconds / ops
            if key in CALLS:
                out[f"{key}_calls"] = calls[key] / ops
        if "spectra.radius" in self.found:
            out["spectra.power_iterations"] = self.power_iterations / ops
        if "graphs.built" in self.found:
            out["graphs.graphs_built"] = self.graphs_built / ops
        return out

    def write(self, path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header, fields=["key", "start", "end", "parent", "op"],
                       spans=self.spans)
        path.write_text(json.dumps(payload))
