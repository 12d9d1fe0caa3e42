"""The stack's named metric families and their hot-path hook helpers.

Everything the serving stack measures registers here, once, at import —
call sites use the ``record_*`` helpers, each of which opens with the
``telemetry_enabled()`` fast path so a disabled hook costs one global
read regardless of how many families it would touch.

The solvers and the pass manager are metered by :class:`SolverMeter`,
which :func:`repro.telemetry.enable_telemetry` attaches to
:mod:`repro.probe`: pass latency, and SAT/SMT/OMT counter deltas flushed
at conflict milestones and at every solver exit.

Family naming follows Prometheus conventions: ``repro_`` prefix, base
units (seconds, bytes), ``_total`` suffix on counters.
"""

from __future__ import annotations

import sys
from typing import Dict, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from repro.probe import CONFLICT_MILESTONE, Probe
from repro.telemetry.registry import REGISTRY, telemetry_enabled

__all__ = [
    "SolverMeter",
    "record_auth",
    "record_cache",
    "record_compile",
    "record_http_request",
    "record_job_event",
    "record_peer_fetch",
    "record_scheduler_saturation",
    "record_shed",
    "resource_usage",
]

# -- HTTP gateway ----------------------------------------------------------

HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by route.",
    ("route",),
)
HTTP_ERRORS = REGISTRY.counter(
    "repro_http_request_errors_total",
    "HTTP error responses, by route and kind (client 4xx / server 5xx).",
    ("route", "kind"),
)
HTTP_LATENCY = REGISTRY.histogram(
    "repro_http_request_duration_seconds",
    "Wall-clock request latency, by route.",
    ("route",),
)

# -- pipeline --------------------------------------------------------------

PASS_LATENCY = REGISTRY.histogram(
    "repro_pass_duration_seconds",
    "Compilation pass latency, by pass name.",
    ("pass",),
)

COMPILE_LATENCY = REGISTRY.histogram(
    "repro_compile_duration_seconds",
    "End-to-end compile latency, by technique.",
    ("technique",),
    buckets=(0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
             15.0, 60.0),
)

# -- scheduler / service ---------------------------------------------------

QUEUE_DEPTH = REGISTRY.gauge(
    "repro_scheduler_queue_depth",
    "Jobs waiting in the scheduler queue (live, updated on transitions).",
)
WORKERS_BUSY = REGISTRY.gauge(
    "repro_scheduler_workers_busy",
    "Worker threads currently running a job (live, updated on transitions).",
)
JOBS_PENDING = REGISTRY.gauge(
    "repro_scheduler_jobs_pending",
    "Jobs admitted but not finished: queued plus running.",
)
SCHEDULER_JOBS = REGISTRY.counter(
    "repro_scheduler_jobs_total",
    "Job lifecycle outcomes, by state.",
    ("state",),
)
WORKER_UTILIZATION = REGISTRY.gauge(
    "repro_scheduler_worker_utilization",
    "Fraction of worker-seconds spent running jobs since service start.",
)

# -- caches / store --------------------------------------------------------

CACHE_REQUESTS = REGISTRY.counter(
    "repro_cache_requests_total",
    "Result-cache lookups, by tier (l1 memory / l2 store) and outcome.",
    ("tier", "outcome"),
)
STORE_BYTES = REGISTRY.gauge(
    "repro_store_bytes",
    "Bytes currently held by the persistent result store, by backend.",
    ("backend",),
)
STORE_EVENTS = REGISTRY.counter(
    "repro_store_events_total",
    "Persistent-store lifecycle events, by backend (puts, evictions, "
    "corruptions).",
    ("backend", "event"),
)
STORE_PEER_FETCHES = REGISTRY.counter(
    "repro_store_peer_fetches_total",
    "Replicated-backend peer fetch attempts, by backend and outcome.",
    ("backend", "outcome"),
)

# -- cluster: auth / admission ---------------------------------------------

AUTH_REQUESTS = REGISTRY.counter(
    "repro_auth_requests_total",
    "Authentication decisions, by key name and outcome "
    "(ok, missing, invalid, expired, throttled, quota).",
    ("key", "outcome"),
)
SHED_REQUESTS = REGISTRY.counter(
    "repro_shed_requests_total",
    "Submissions refused by the load shedder, by key name.",
    ("key",),
)
JOB_EVENTS_PUBLISHED = REGISTRY.counter(
    "repro_job_events_total",
    "Job lifecycle events published to streaming subscribers, by event.",
    ("event",),
)
EVENT_STREAMS_ACTIVE = REGISTRY.gauge(
    "repro_event_streams_active",
    "Server-sent event streams currently open.",
)
LONGPOLL_ACTIVE = REGISTRY.gauge(
    "repro_longpoll_active",
    "Long-poll result waits currently holding a handler thread.",
)

# -- solvers ---------------------------------------------------------------

SOLVER_EVENTS = REGISTRY.counter(
    "repro_solver_events_total",
    "SAT/SMT/OMT solver progress events flushed at checkpoint milestones.",
    ("event",),
)
SOLVER_LEARNED_CLAUSES = REGISTRY.gauge(
    "repro_solver_learned_clauses",
    "Learned-clause database size after the most recent SAT solve.",
)

# -- process resources -----------------------------------------------------

PROCESS_RSS = REGISTRY.gauge(
    "repro_process_resident_memory_bytes",
    "Resident set size of this process.",
)
PROCESS_CPU = REGISTRY.counter(
    "repro_process_cpu_seconds_total",
    "User plus system CPU time consumed by this process.",
)
PROCESS_GC = REGISTRY.counter(
    "repro_process_gc_collections_total",
    "Python garbage collections, by generation.",
    ("generation",),
)
PROCESS_FDS = REGISTRY.gauge(
    "repro_process_open_fds",
    "Open file descriptors held by this process.",
)

# -- server ----------------------------------------------------------------

SERVER_UPTIME = REGISTRY.gauge(
    "repro_server_uptime_seconds",
    "Seconds since the gateway started.",
)
SERVER_JOBS_TRACKED = REGISTRY.gauge(
    "repro_server_jobs_tracked",
    "Job handles the gateway currently retains.",
)


# -- solver and pipeline meter ---------------------------------------------

# ru_maxrss is kilobytes on Linux, bytes on macOS.
_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


def resource_usage() -> Tuple[float, int]:
    """``(cpu_seconds, peak_rss_bytes)`` for this process so far."""
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return 0.0, 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu = usage.ru_utime + usage.ru_stime
    return cpu, int(usage.ru_maxrss) * _MAXRSS_SCALE


class SolverMeter(Probe):
    """One solver or pipeline call's milestones, as metric updates.

    ``flushed`` holds the counters the last flush accounted for; each
    flush adds the deltas since then to ``repro_solver_events_total``.
    """

    __slots__ = ("flushed", "usage")

    def _flush(self, counts: Dict[str, int]) -> None:
        for event, value in counts.items():
            delta = value - self.flushed[event]
            if delta:
                SOLVER_EVENTS.labels(event).inc(delta)
        self.flushed = counts

    @staticmethod
    def _sat_counts(solver) -> Dict[str, int]:
        stats = solver.statistics
        return {"conflicts": stats.conflicts, "propagations": stats.propagations,
                "decisions": stats.decisions, "restarts": stats.restarts}

    def sat_begin(self, solver) -> None:
        self.flushed = self._sat_counts(solver)

    def sat_conflict(self, solver) -> None:
        # Live rates during long solves.
        if solver.statistics.conflicts % CONFLICT_MILESTONE == 0:
            self.sat_exit(solver)

    def sat_exit(self, solver) -> None:
        self._flush(self._sat_counts(solver))
        SOLVER_LEARNED_CLAUSES.set(solver.num_learned)

    def check_begin(self, counters) -> None:
        self.flushed = dict(counters)

    def check_exit(self, counters) -> None:
        self._flush(dict(counters))

    def omt_end(self, rounds: int, best) -> None:
        if rounds:
            SOLVER_EVENTS.labels("omt_rounds").inc(rounds)

    def pass_end(self, name: str, seconds: float, counters: Dict[str, object]) -> None:
        PASS_LATENCY.labels(name).observe(seconds)

    def pipeline_begin(self, technique: str, circuit) -> None:
        self.usage = resource_usage()

    def pipeline_end(self, report, adapted) -> None:
        cpu_end, rss_end = resource_usage()
        report.resources = {
            "cpu_seconds": max(0.0, cpu_end - self.usage[0]),
            "peak_rss_bytes": float(rss_end),
        }


# -- hot-path helpers ------------------------------------------------------

def record_http_request(route: str, status: int, seconds: float) -> None:
    """One served request: count, error class, latency."""
    if not telemetry_enabled():
        return
    HTTP_REQUESTS.labels(route).inc()
    if status >= 500:
        HTTP_ERRORS.labels(route, "server").inc()
    elif status >= 400:
        HTTP_ERRORS.labels(route, "client").inc()
    HTTP_LATENCY.labels(route).observe(seconds)


def record_compile(technique: str, seconds: float) -> None:
    """One end-to-end compile (cache misses that ran the pipeline)."""
    if not telemetry_enabled():
        return
    COMPILE_LATENCY.labels(technique).observe(seconds)


def record_cache(tier: str, outcome: str) -> None:
    """One cache lookup: ``tier`` in {l1, l2}, ``outcome`` in {hit, miss}."""
    if not telemetry_enabled():
        return
    CACHE_REQUESTS.labels(tier, outcome).inc()


def record_scheduler_saturation(queue_depth: int, workers_busy: int,
                                jobs_pending: int) -> None:
    """Live saturation gauges, pushed at submit/start/finish."""
    if not telemetry_enabled():
        return
    QUEUE_DEPTH.set(queue_depth)
    WORKERS_BUSY.set(workers_busy)
    JOBS_PENDING.set(jobs_pending)


def record_auth(key: str, outcome: str) -> None:
    """One authentication decision for a (possibly anonymous) key."""
    if not telemetry_enabled():
        return
    AUTH_REQUESTS.labels(key, outcome).inc()


def record_shed(key: str) -> None:
    """One submission refused by the load shedder."""
    if not telemetry_enabled():
        return
    SHED_REQUESTS.labels(key).inc()


def record_peer_fetch(backend: str, outcome: str) -> None:
    """One peer fetch attempt: ``outcome`` in {hit, miss, error}."""
    if not telemetry_enabled():
        return
    STORE_PEER_FETCHES.labels(backend, outcome).inc()


def record_job_event(event: str) -> None:
    """One job lifecycle event published to the streaming broker."""
    if not telemetry_enabled():
        return
    JOB_EVENTS_PUBLISHED.labels(event).inc()
