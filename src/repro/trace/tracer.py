"""The structured event tracer: spans, point events, buffered JSONL output.

One :class:`Tracer` owns one append-only JSONL file.  Every line is one
event (see :mod:`repro.trace.schema` for the checked-in schema): a span
``begin``/``end`` pair, a ``point`` event inside the enclosing span, or a
``meta`` header describing the producing process.  Timestamps are
``time.perf_counter()`` (monotonic within a process); parent links are
explicit span ids, so traces merged across processes still reconstruct.

Tracing is **opt-in and near-zero-overhead when off**: every hook in the
compile stack first checks whether the tracer's probe source is attached
to :mod:`repro.probe` — one module read while nothing is attached — and
bails out before building any event.
The active tracer is resolved through :func:`current_tracer`, which
consults a context-variable scope first (per-``compile(trace=...)``
overrides, cross-thread span resumption) and the installed global tracer
second (``REPRO_TRACE`` / :func:`start_tracing`).

The solvers and the pass manager are observed through :mod:`repro.probe`
instead: while any tracer is live, :class:`_TraceProbe` turns their
milestones into spans and sampled ``solver`` events.

Writes are thread- and multiprocess-safe: events buffer per tracer under
a lock and flush as one ``os.write`` to an ``O_APPEND`` descriptor, so
complete lines from concurrent writers never interleave mid-line.  A
fork handler drops inherited buffers in the child (the parent flushes its
own copy), preventing duplicated events from process pools.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple, Union

from repro import probe as _probe
from repro.probe import CONFLICT_MILESTONE, Probe, attach, attached, detach

#: Sampling schedule of the ``smt.check`` and ``omt.round`` events: the
#: first this many checks (rounds) are all traced, later ones only every
#: :data:`TRACE_STRIDE`-th — bounded traces on check-heavy runs.  A
#: skipped check's or round's work is carried by the next event, and the
#: exit of the call flushes what is left, so the ``d_*`` fields of a
#: trace sum to the solver's counters.
TRACE_HEAD = 32
TRACE_STRIDE = 8

#: Process-wide span id allocator (``next`` on ``count`` is atomic under
#: the GIL).  Span ids are unique per process; readers key by (pid, span).
_SPAN_IDS = itertools.count(1)

try:  # contextvars is 3.7+; repro requires 3.9, so this always succeeds.
    import contextvars

    _SCOPE: "contextvars.ContextVar[Optional[_Scope]]" = contextvars.ContextVar(
        "repro_trace_scope", default=None
    )
except ImportError:  # pragma: no cover - unreachable on supported pythons
    raise


class _Scope:
    """The context-local tracing state: which tracer, which parent span."""

    __slots__ = ("tracer", "span_id")

    def __init__(self, tracer: "Tracer", span_id: Optional[int]) -> None:
        self.tracer = tracer
        self.span_id = span_id


def tracing_active() -> bool:
    """True when any tracer (global or scoped) may receive events.

    The probe source :func:`_traced` is attached once per live
    activation (the global install counts as one).
    """
    return attached(_traced)


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op."""

    enabled = False
    closed = False
    path: Optional[str] = None

    def event(self, name: str, layer: str, **fields: object) -> None:
        pass

    def begin(self, name: str, layer: str, **fields: object):
        return None

    def end(self, token, **fields: object) -> None:
        pass

    @contextmanager
    def span(self, name: str, layer: str, **fields: object) -> Iterator[None]:
        yield

    def capture(self) -> None:
        return None

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


#: The shared disabled tracer returned whenever tracing is off.
NULL_TRACER = NullTracer()


class TraceContext:
    """A captured (tracer, span) pair for cross-thread span parenting.

    The service captures the submitting request's context onto the job
    and resumes it on the worker thread, so pipeline and solver spans
    parent correctly even though they run on a different thread.
    """

    __slots__ = ("tracer", "span_id")

    def __init__(self, tracer: "Tracer", span_id: Optional[int]) -> None:
        self.tracer = tracer
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"TraceContext(span={self.span_id}, file={self.tracer.path!r})"


class Tracer:
    """A thread-safe buffered JSONL trace writer with span bookkeeping.

    Parameters
    ----------
    path:
        Trace file; opened in append mode (created if missing), so
        several processes — e.g. sharded servers — can share one file.
    buffer_events:
        Events buffered before an automatic flush.  Each flush is a
        single ``os.write`` of complete lines to the ``O_APPEND``
        descriptor, which keeps concurrent writers line-atomic.
    meta:
        Extra fields recorded on the ``trace_start`` meta event.
    """

    enabled = True

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        buffer_events: int = 128,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self.path = os.fspath(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._fd: Optional[int] = os.open(
            self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )
        self._lock = threading.Lock()
        self._buffer: list = []
        self._buffer_limit = max(1, int(buffer_events))
        self.events_emitted = 0
        header = {"python_pid": os.getpid()}
        if meta:
            header.update(meta)
        self._emit({
            "kind": "meta",
            "ts": time.perf_counter(),
            "wall": time.time(),
            "name": "trace_start",
            "layer": "trace",
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "span": None,
            "fields": header,
        })

    # -- low-level emission ----------------------------------------------
    def _emit(self, event: Dict[str, object]) -> None:
        line = json.dumps(event, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            if self._fd is None:
                return
            self._buffer.append(line)
            self.events_emitted += 1
            if len(self._buffer) >= self._buffer_limit:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._buffer or self._fd is None:
            return
        payload = "".join(self._buffer).encode("utf-8")
        self._buffer.clear()
        os.write(self._fd, payload)

    def flush(self) -> None:
        """Write every buffered event to the file."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        """Flush and close the trace file (idempotent)."""
        with self._lock:
            self._flush_locked()
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    @property
    def closed(self) -> bool:
        return self._fd is None

    # -- events and spans ------------------------------------------------
    def event(self, name: str, layer: str, **fields: object) -> None:
        """Emit a point event inside the current span (if any)."""
        scope = _SCOPE.get()
        self._emit({
            "kind": "point",
            "ts": time.perf_counter(),
            "name": name,
            "layer": layer,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "span": scope.span_id if scope is not None else None,
            "fields": fields,
        })

    def begin(self, name: str, layer: str, **fields: object):
        """Open a span; returns the token :meth:`end` needs.

        The low-level pair exists (beyond :meth:`span`) so callers can
        attach fields computed *during* the span to its ``end`` event —
        the pipeline records each pass's size counters that way.
        """
        span_id = next(_SPAN_IDS)
        parent_scope = _SCOPE.get()
        parent = parent_scope.span_id if parent_scope is not None else None
        started = time.perf_counter()
        self._emit({
            "kind": "begin",
            "ts": started,
            "name": name,
            "layer": layer,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "span": span_id,
            "parent": parent,
            "fields": fields,
        })
        reset = _SCOPE.set(_Scope(self, span_id))
        return (span_id, name, layer, started, reset)

    def end(self, token, **fields: object) -> None:
        """Close a span opened by :meth:`begin`."""
        if token is None:
            return
        span_id, name, layer, started, reset = token
        ended = time.perf_counter()
        _SCOPE.reset(reset)
        self._emit({
            "kind": "end",
            "ts": ended,
            "name": name,
            "layer": layer,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "span": span_id,
            "dur": ended - started,
            "fields": fields,
        })

    @contextmanager
    def span(self, name: str, layer: str, **fields: object) -> Iterator[int]:
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        token = self.begin(name, layer, **fields)
        try:
            yield token[0]
        finally:
            self.end(token)

    # -- cross-thread propagation ----------------------------------------
    def capture(self) -> TraceContext:
        """Capture the current span for resumption on another thread."""
        scope = _SCOPE.get()
        span_id = scope.span_id if scope is not None and scope.tracer is self else None
        return TraceContext(self, span_id)

    @contextmanager
    def activate(self, parent: Optional[int] = None) -> Iterator["Tracer"]:
        """Make this tracer current for the calling context.

        Used for per-call tracers (``compile(trace="file.jsonl")``) and,
        via :func:`resume_context`, for adopting a captured span as the
        parent on a worker thread.
        """
        attach(_traced)
        reset = _SCOPE.set(_Scope(self, parent))
        try:
            yield self
        finally:
            _SCOPE.reset(reset)
            detach(_traced)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self.events_emitted} events"
        return f"Tracer({self.path!r}, {state})"


# ---------------------------------------------------------------------------
# Ambient tracer management
# ---------------------------------------------------------------------------
_GLOBAL: Optional[Tracer] = None
_GLOBAL_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False

#: Environment variable naming the trace file; when set, tracing starts
#: automatically on first import of :mod:`repro.trace` (including in
#: spawned worker processes, which inherit the environment).
TRACE_ENV_VAR = "REPRO_TRACE"

#: HTTP header carrying the caller's span identity (``"pid:span"``) so a
#: receiving process can record it as ``fields.remote_parent`` and the
#: trace reader can stitch client → gateway → shard into one tree.
TRACE_HEADER = "X-Repro-Trace"


def current_tracer() -> Union[Tracer, NullTracer]:
    """The tracer for the calling context, or the no-op tracer.

    Scoped activations (``compile(trace=...)``, resumed job contexts)
    take precedence over the globally installed tracer.
    """
    if _probe._LIVE is None or not attached(_traced):
        return NULL_TRACER
    scope = _SCOPE.get()
    if scope is not None and not scope.tracer.closed:
        return scope.tracer
    tracer = _GLOBAL
    if tracer is not None and not tracer.closed:
        return tracer
    return NULL_TRACER


def _sampled(index: int) -> bool:
    return index <= TRACE_HEAD or index % TRACE_STRIDE == 0


class _TraceProbe(Probe):
    """One solver or pipeline call's milestones, as spans and events.

    ``reported`` is the counter value the last emitted event accounted
    for: each event carries the delta since then (``d_*``).
    """

    __slots__ = ("tracer", "reported", "consistent", "outer", "inner")

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer
        self.reported = 0
        self.consistent: Optional[bool] = None
        self.outer = None  # the pipeline, select or omt.optimize span
        self.inner = None  # the running pass's span

    # -- SAT: conflict milestones plus the residual at exit --------------
    def sat_begin(self, solver) -> None:
        self.reported = solver.statistics.conflicts

    def sat_conflict(self, solver) -> None:
        if solver.statistics.conflicts % CONFLICT_MILESTONE == 0:
            self._conflicts(solver)

    def sat_exit(self, solver) -> None:
        if solver.statistics.conflicts > self.reported:
            self._conflicts(solver)

    def _conflicts(self, solver) -> None:
        stats = solver.statistics
        self.tracer.event(
            "sat.conflicts", "solver",
            d_conflicts=stats.conflicts - self.reported,
            conflicts=stats.conflicts,
            learned=solver.num_learned,
            decisions=stats.decisions,
        )
        self.reported = stats.conflicts

    def sat_restart(self, solver, next_limit: int) -> None:
        self.tracer.event(
            "sat.restart", "solver",
            d_restarts=1,
            restarts=solver.statistics.restarts,
            conflicts=solver.statistics.conflicts,
            next_limit=next_limit,
        )

    def sat_reduce_db(self, solver, deleted: int, next_limit: int) -> None:
        self.tracer.event("sat.reduce_db", "solver", d_deleted=deleted,
                          learned=solver.num_learned, next_limit=next_limit)

    # -- DPLL(T): sampled theory checks plus the residual at exit --------
    def check_begin(self, counters) -> None:
        self.reported = counters["theory_pivots"]

    def theory_check(self, counters, consistent: bool, pivots: int) -> None:
        self.consistent = consistent
        if _sampled(counters["theory_checks"]):
            self._check(counters)

    def check_exit(self, counters) -> None:
        if counters["theory_pivots"] > self.reported:
            self._check(counters)

    def _check(self, counters) -> None:
        self.tracer.event(
            "smt.check", "solver",
            check=counters["theory_checks"],
            consistent=self.consistent,
            d_pivots=counters["theory_pivots"] - self.reported,
            theory_conflicts=counters["theory_conflicts"],
        )
        self.reported = counters["theory_pivots"]

    # -- OMT: one span, sampled rounds plus the residual at exit ---------
    def omt_begin(self, sense: str) -> None:
        self.outer = self.tracer.begin("omt.optimize", "solver", sense=sense)

    def omt_round(self, rounds: int, best) -> None:
        if _sampled(rounds):
            self._round(rounds, best)

    def omt_end(self, rounds: int, best) -> None:
        if rounds > self.reported and best is not None:  # None: unbounded
            self._round(rounds, best)
        self.tracer.end(self.outer, rounds=rounds)

    def _round(self, rounds: int, best) -> None:
        self.tracer.event("omt.round", "solver", d_rounds=rounds - self.reported,
                          round=rounds, best=float(best))
        self.reported = rounds

    # -- selection and pipeline spans ------------------------------------
    def select_begin(self, objective: str) -> None:
        self.outer = self.tracer.begin("select", "solver", objective=objective)

    def select_end(self, fields: Dict[str, object]) -> None:
        self.tracer.end(self.outer, **fields)

    def pipeline_begin(self, technique: str, circuit) -> None:
        self.outer = self.tracer.begin(
            "pipeline", "pipeline", technique=technique, circuit=circuit.name,
            gates_in=len(circuit.instructions),
        )

    def pass_begin(self, name: str) -> None:
        self.inner = self.tracer.begin(f"pass:{name}", "pipeline")

    def pass_end(self, name: str, seconds: float, counters: Dict[str, object]) -> None:
        self.tracer.end(self.inner, **counters)
        self.inner = None

    def pipeline_end(self, report, adapted) -> None:
        self.tracer.end(self.inner)  # a pass that raised
        self.tracer.end(self.outer, gates_out=(len(adapted.instructions)
                                               if adapted is not None else None))


def _traced() -> Optional[_TraceProbe]:
    """The probe source: a fresh :class:`_TraceProbe` when tracing here."""
    tracer = current_tracer()
    return _TraceProbe(tracer) if tracer.enabled else None


def start_tracing(
    target: Union[str, "os.PathLike[str]", Tracer, None] = None,
    **tracer_options: object,
) -> Tracer:
    """Install a process-global tracer and return it.

    ``target`` is a file path, an existing :class:`Tracer`, or ``None``
    to read the path from ``REPRO_TRACE``.  Calling again with the same
    path returns the already-installed tracer; a different path replaces
    it (the old tracer is flushed and closed).
    """
    global _GLOBAL, _ATEXIT_REGISTERED
    if target is None:
        target = os.environ.get(TRACE_ENV_VAR)
        if not target:
            raise ValueError(
                "start_tracing() needs a path (or set the REPRO_TRACE "
                "environment variable)"
            )
    with _GLOBAL_LOCK:
        if isinstance(target, Tracer):
            tracer = target
        else:
            path = os.fspath(target)
            if _GLOBAL is not None and not _GLOBAL.closed and _GLOBAL.path == path:
                return _GLOBAL
            tracer = Tracer(path, **tracer_options)
        if _GLOBAL is not None and _GLOBAL is not tracer:
            _GLOBAL.close()
            detach(_traced)
        elif _GLOBAL is tracer:
            return tracer
        _GLOBAL = tracer
        attach(_traced)
        if not _ATEXIT_REGISTERED:
            atexit.register(_close_global_at_exit)
            _ATEXIT_REGISTERED = True
    return tracer


def stop_tracing() -> None:
    """Flush, close and uninstall the global tracer (no-op when absent)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            return
        _GLOBAL.close()
        _GLOBAL = None
        detach(_traced)


def global_tracer() -> Optional[Tracer]:
    """The installed global tracer, if any (scoped overrides not consulted)."""
    return _GLOBAL


def _close_global_at_exit() -> None:
    tracer = _GLOBAL
    if tracer is not None:
        tracer.close()


def capture_context() -> Optional[TraceContext]:
    """Capture the calling context's tracer + span, or ``None`` when off."""
    tracer = current_tracer()
    if not tracer.enabled:
        return None
    return tracer.capture()


@contextmanager
def resume_context(context: Optional[TraceContext]) -> Iterator[None]:
    """Re-enter a captured trace context (no-op for ``None``)."""
    if context is None or context.tracer.closed:
        yield
        return
    with context.tracer.activate(parent=context.span_id):
        yield


@contextmanager
def scoped_tracer(
    target: Union[None, bool, str, "os.PathLike[str]", Tracer]
) -> Iterator[Union[Tracer, NullTracer]]:
    """Resolve a ``trace=`` argument into an active tracer for one call.

    ============================  =========================================
    ``None``                      ambient tracing (global / resumed scope)
    ``False``                     force tracing off for the call
    ``True``                      the global tracer (auto-started from
                                  ``REPRO_TRACE`` when set; no-op
                                  otherwise)
    path (str / PathLike)         a per-call tracer appending to the path
    :class:`Tracer`               that tracer, activated for the call
    ============================  =========================================
    """
    if target is None:
        yield current_tracer()
        return
    if target is False:
        reset = _SCOPE.set(_Scope(NULL_TRACER, None))  # type: ignore[arg-type]
        try:
            yield NULL_TRACER
        finally:
            _SCOPE.reset(reset)
        return
    if target is True:
        tracer = _GLOBAL
        if tracer is None and os.environ.get(TRACE_ENV_VAR):
            tracer = start_tracing()
        if tracer is None or tracer.closed:
            yield current_tracer()
            return
        with tracer.activate(parent=tracer.capture().span_id):
            yield tracer
        return
    if isinstance(target, Tracer):
        with target.activate(parent=target.capture().span_id):
            yield target
        return
    # A path: open, trace the call, flush and close.
    tracer = Tracer(os.fspath(target))
    try:
        with tracer.activate():
            yield tracer
    finally:
        tracer.close()


# ---------------------------------------------------------------------------
# Fork hygiene: a forked worker inherits the parent's buffers; the parent
# flushes its own copy, so the child must drop them or events duplicate.
# ---------------------------------------------------------------------------
def _reset_after_fork() -> None:
    tracer = _GLOBAL
    if tracer is not None:
        tracer._lock = threading.Lock()
        tracer._buffer = []


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    os.register_at_fork(after_in_child=_reset_after_fork)
