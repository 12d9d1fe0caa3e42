"""In-memory span recording around the public entry points of each layer.

The traced run installs thin wrappers, from this file, around the calls
into ``interop``, ``api``, ``pipeline``, ``synthesis``, ``core``, ``smt``,
``sat`` and the HTTP client, records one span per call (name, start,
end, parent) and rolls the spans up into per-layer self times: a span's
duration minus the time its direct children cover.  Nothing under
``src/`` is modified on disk; the wrappers are removed when the traced
phase ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: (module, class or None, attribute, span name).  Names imported into a
#: consumer module by ``from x import y`` are patched in that consumer too.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.interop", None, "qasm_to_circuit", "interop.parse"),
    ("repro.api.compile", None, "circuit_hash", "api.fingerprint"),
    ("repro.api.compile", None, "target_fingerprint", "api.fingerprint"),
    ("repro.api.compile", None, "options_fingerprint", "api.fingerprint"),
    ("repro.api.cache", "CompilationCache", "get", "api.cache_get"),
    ("repro.api.cache", "CompilationCache", "put", "api.cache_put"),
    ("repro.pipeline.passes", "RoutePass", "run", "pipeline.route"),
    ("repro.pipeline.passes", "PreprocessPass", "run", "pipeline.preprocess"),
    ("repro.pipeline.passes", "EvaluateRulesPass", "run", "pipeline.evaluate_rules"),
    ("repro.pipeline.passes", "SolvePass", "run", "pipeline.solve"),
    ("repro.pipeline.passes", "ApplyPass", "run", "pipeline.apply"),
    ("repro.pipeline.passes", "MergeSingleQubitPass", "run", "pipeline.merge_1q"),
    ("repro.pipeline.passes", "VerifyPass", "run", "pipeline.verify"),
    ("repro.pipeline.passes", "AnalyzeCostPass", "run", "pipeline.analyze_cost"),
    ("repro.synthesis.two_qubit", None, "decompose_two_qubit", "synthesis.kak"),
    ("repro.core.rules", None, "decompose_two_qubit", "synthesis.kak"),
    ("repro.core.model", "AdaptationModel", "build", "core.model_build"),
    ("repro.smt.optimize", "Optimize", "check", "smt.check"),
    ("repro.sat.solver", "Solver", "solve_limited", "sat.solve"),
    ("repro.server.client", "ReproClient", "submit", "server.client_submit"),
    ("repro.server.client", "RemoteJob", "result", "server.client_result"),
    ("repro.core.adapter", "AdaptationResult", "from_dict", "core.result_decode"),
)

#: Span name of one whole benchmark operation (a compile or a request).
OPERATION = "bench.op"


class SpanRecorder:
    """Thread-aware span store; spans stay in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (span id, parent id or 0, name, start ns, end ns)
        self.spans: List[Tuple[int, int, str, int, int]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            ended = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, started, ended))

    def wrap(self, name: str, function):
        """``function`` with every call recorded as a span named ``name``."""
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return wrapper

    def self_times_ms(self) -> Dict[str, float]:
        """Total self time per span name, milliseconds."""
        child_ns: Dict[int, int] = defaultdict(int)
        for _, parent, _, started, ended in self.spans:
            if parent:
                child_ns[parent] += ended - started
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, name, started, ended in self.spans:
            totals[name] += (ended - started - child_ns.get(span_id, 0)) / 1e6
        return dict(totals)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: id, parent, name, start, end (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Install the layer wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, class_name, attribute, span_name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            saved.append((owner, attribute, raw))
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(recorder.wrap(span_name, raw.__func__))
            else:
                wrapped = recorder.wrap(span_name, raw)
            setattr(owner, attribute, wrapped)
        yield recorder
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)
