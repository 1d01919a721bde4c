"""Layer spans recorded from outside the program.

The tracer wraps public functions of the program's layers -- module
functions wherever a ``repro`` module binds them, and methods on their
classes -- and records one span per call: name, parent span, root span
(the request), start and end.  Spans stay in memory until the run ends.
A layer's self time is its spans' durations minus their children's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

# (layer, module, attribute) for module functions, (layer, module,
# "Class.method") for methods.  ``batch.runner`` is the request root;
# its self time is whatever the other layers do not account for.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("batch.tasks.decode", "repro.batch.tasks", "decode_task"),
    ("batch.tasks.encode", "repro.batch.tasks", "canonical_json"),
    ("hom.containment", "repro.hom.containment", "views_containing"),
    ("core.basis", "repro.core.basis", "ComponentBasis.from_queries"),
    ("core.basis", "repro.core.basis", "ComponentBasis.vector"),
    ("linalg", "repro.linalg.span", "span_coefficients"),
    ("core.witness", "repro.core.decision",
     "BooleanDeterminacyResult.witness"),
    ("core.witness.verify", "repro.core.witness",
     "CounterexamplePair.verify"),
    ("ucq.analysis", "repro.ucq.analysis", "linear_certificate"),
    ("core.pathdet", "repro.core.pathdet", "decide_path_determinacy"),
    ("hom.engine", "repro.session", "SolverSession.count"),
)
LAYERS = ("batch.runner",) + tuple(dict.fromkeys(
    layer for layer, _, _ in LAYER_TARGETS))

# The request root: in-process callers call ``evaluate_line``; the
# daemon calls ``evaluate_envelope`` and encodes the record itself.
ROOT_IN_PROCESS = ("repro.batch.runner", "evaluate_line")
ROOT_DAEMON = ("repro.batch.runner", "evaluate_envelope")


class Tracer:
    """Installs layer wrappers and keeps the spans they record."""

    def __init__(self, root: Tuple[str, str] = ROOT_IN_PROCESS):
        self.root = root
        # (span id, parent id or -1, root id, layer, start, end)
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent, root = stack[-1], stack[0]
            else:
                parent, root = -1, span_id
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, root, layer, start, end))
        return traced

    def _patch_function(self, layer: str, module_name: str, name: str):
        original = getattr(importlib.import_module(module_name), name)
        wrapped = self._wrap(layer, original)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") \
                    and getattr(module, name, None) is original:
                self._undo.append((module, name, original))
                setattr(module, name, wrapped)

    def _patch_method(self, layer: str, module_name: str, dotted: str):
        class_name, name = dotted.split(".")
        owner = getattr(importlib.import_module(module_name), class_name)
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(layer, original.__func__))
        else:
            wrapped = self._wrap(layer, original)
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapped)

    def install(self) -> None:
        for layer, module_name, name in LAYER_TARGETS:
            if "." in name:
                self._patch_method(layer, module_name, name)
            else:
                self._patch_function(layer, module_name, name)
        self._patch_function("batch.runner", *self.root)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        self.spans.clear()

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Per-layer self time (s) and calls; the summed duration of
        root spans (``root_s``) and of request roots (``request_s``,
        the ``batch.runner`` roots: the daemon encodes each answer in a
        root span of its own, after the request root)."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        root_s = request_s = 0.0
        for span_id, parent, _, layer, start, end in self.spans:
            self_s[layer] += end - start - child_time[span_id]
            calls[layer] += 1
            if parent < 0:
                root_s += end - start
                if layer == "batch.runner":
                    request_s += end - start
        return {"self_s": self_s, "calls": calls, "root_s": root_s,
                "request_s": request_s}

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (ids, layer, times in µs)."""
        with open(path, "w", encoding="utf-8") as sink:
            for span_id, parent, root, layer, start, end in self.spans:
                sink.write(json.dumps(
                    [span_id, parent, root, layer,
                     round(start * 1e6, 1), round(end * 1e6, 1)]) + "\n")
