"""Multi-process sharding: N gateway workers behind a hash router.

:class:`ShardRouter` spawns ``shards`` worker *processes*, each running a
full :class:`repro.server.ReproServer` (its own ``CompilationService``,
worker threads and in-process L1 cache) on a loopback port, and fronts
them with one routing HTTP server:

* **Submissions** (``POST /v1/jobs``, ``/v1/batch``, suite compiles,
  validation) are routed by the :func:`repro.api.payload_fingerprint`
  of the request body — byte-identical submissions always land on the
  same worker, so repeats hit that worker's L1 cache and concurrent
  duplicates coalesce onto one in-flight compilation.
* **Job lookups** route by the job id itself: every shard mints ids
  under its own prefix (``s0-j1``, ``s1-j1``, ...), so ``GET
  /v1/jobs/s1-j7`` needs no routing table.
* **``/healthz`` and ``/metrics``** fan out to every shard and come back
  aggregated (per-shard documents plus summed counters).

The router's HTTP edge is the gateway's (``repro.server.app``): one
route table, the same request limits and the same auth rejections.  It
classifies each request by the table's action name, and relays a
shard's status, ``Content-Type``, ``Retry-After`` and body unchanged,
streaming event feeds as the shard writes them.

All shards share one :class:`repro.service.PersistentResultStore`
directory as their L2 tier.  The store's writes are atomic
(``os.replace``) and its entries content-addressed, so cross-process
sharing needs no extra coordination: the per-shard locks serialize
writers within a process and concurrent processes at worst redundantly
write the same bytes.

The router also **supervises** its shards: a health-monitor thread
detects a dead worker process, respawns it under a fresh job-id
generation (``s1g1-``, ``s1g2-``, ...), and in the meantime fails
submissions over to the surviving shards.  Lookups of a dead shard's
jobs answer 503 with a ``Retry-After`` hint while the replacement boots
(the jobs themselves died with the process; after the respawn the shard
answers 404 for them, which is the honest terminal state).

Shutdown is **draining**: the router stops accepting, each shard is
asked to quiesce over ``POST /internal/drain`` (queued and running jobs
finish), and only then are the worker processes stopped.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import threading
import time
import urllib.error
import urllib.request
from http.server import ThreadingHTTPServer
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api.fingerprints import payload_fingerprint
from repro.cluster.auth import Authenticator
from repro.cluster.backends import _parse_spec, write_peers_file
from repro.server.app import (
    DEADLINE_HEADER,
    ApiError,
    _EdgeHandler,
    _Raw,
    build_server,
)
from repro.telemetry.prometheus import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    merge_prometheus,
)
from repro.trace.tracer import TRACE_HEADER

#: How long the router waits for one forwarded request; must exceed the
#: gateway's 60 s result long-poll cap.
_FORWARD_TIMEOUT_SECONDS = 120.0

#: End-to-end headers relayed to the shard: trace propagation, the
#: compile-deadline hint and the API credential (shards re-check key
#: *validity*; the router already charged the rate limits).  Everything
#: else stops at the router.
_FORWARDED_HEADERS = (TRACE_HEADER, DEADLINE_HEADER, "Authorization",
                      "X-API-Key")

#: How the router serves each action of the gateway's route table
#: (``repro.server.app._ROUTES``).  Job-affine actions go to the shard
#: the job id names; body-routed ones to the shard their body hashes to
#: (failing over); aggregated ones fan out to every shard; internal ones
#: are the router's own business and answer 404.  The rest (the suite
#: index) may go to any shard.
_BY_JOB = frozenset({"status", "result", "events", "cancel"})
_BY_BODY = frozenset({"submit", "batch", "validate", "suite_compile"})
_FAN_OUT = frozenset({"healthz", "metrics"})
_NOT_FORWARDED = frozenset({"drain", "store_entry"})

#: Per-backend store statistics summed across shards in /metrics.
_STORE_SUMMED = ("total_bytes", "entries", "hits", "misses", "puts",
                 "evictions", "corrupted", "peer_hits", "peer_misses",
                 "peer_errors")

#: Service counters summed across shards in the aggregated /metrics.
_SUMMED_COUNTERS = ("submitted", "deduplicated", "completed", "failed",
                    "cancelled", "queue_depth", "busy_workers", "workers",
                    "worker_crashes", "degraded")

#: Job ids are ``s<shard>[g<generation>]-...``; generation 0 keeps the
#: plain ``s<shard>-`` form so pre-respawn ids stay valid.
_JOB_ID_SHARD = re.compile(r"^s(\d+)(?:g\d+)?-.")

#: How often the health monitor polls shard process liveness.
_HEALTH_INTERVAL_SECONDS = 0.5

#: ``Retry-After`` hint while a dead shard's replacement boots.
_SHARD_RETRY_AFTER_SECONDS = 2.0


def _shard_main(index: int, host: str, ready, config: Dict,
                job_prefix: str) -> None:
    """Worker-process entry point: serve one gateway on a free port."""
    server = build_server(
        host=host,
        port=0,
        workers=config["workers"],
        store=config["store"],
        durations=config["durations"],
        max_pending=config["max_pending"],
        job_prefix=job_prefix,
        # The router is the charging edge; shards only re-check key
        # validity so one request never pays its rate limit twice.
        auth=config.get("auth"),
        enforce_limits=False,
    )
    ready.put((index, server.port))
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass


class ShardRouter:
    """A fingerprint-hash HTTP router over N worker server processes."""

    def __init__(
        self,
        shards: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        store: Optional[str] = None,
        durations: str = "D0",
        max_pending: int = 256,
        auth=None,
    ) -> None:
        if shards < 1:
            raise ValueError("the router needs at least one shard")
        if store is not None and not isinstance(store, str):
            raise TypeError(
                "the sharded store must be a directory path or a "
                "'dir:'/'replicated:' spec string (each worker process "
                "opens its own store backend over it)"
            )
        self.shards = shards
        self.host = host
        self.store = store
        # A replicated store spec makes each shard keep a *private*
        # local tier under <root>/s<k> and peer-fetch misses over HTTP;
        # the router publishes the peer map once every port is known.
        self._store_root: Optional[str] = None
        if store is not None:
            scheme, root, _ = _parse_spec(store)
            if scheme == "replicated":
                self._store_root = root
        # The router is the charging edge of the key set; the shards it
        # spawns get the same keys in validity-only mode.
        self._auth = Authenticator.from_spec(auth, enforce_limits=True)
        self._config = {
            "workers": workers,
            "store": store,
            "durations": durations,
            "max_pending": max_pending,
            "auth": self._auth.key_config() if self._auth.enabled else None,
        }
        self._requested_port = port
        self._processes: Dict[int, multiprocessing.Process] = {}
        self._shard_ports: Dict[int, int] = {}
        self._generations: Dict[int, int] = {}
        self._respawns: Dict[int, int] = {}
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._context = multiprocessing.get_context()
        self._ready = None  # The shard-port announcement queue.
        self._monitor_thread: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._respawn_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    def _spawn_shard(self, index: int) -> multiprocessing.Process:
        """Start the worker process for one shard (current generation)."""
        generation = self._generations.get(index, 0)
        prefix = f"s{index}-" if generation == 0 else f"s{index}g{generation}-"
        process = self._context.Process(
            target=_shard_main,
            args=(index, self.host, self._ready, self._config, prefix),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        self._processes[index] = process
        return process

    def start(self, boot_timeout: float = 60.0) -> "ShardRouter":
        """Spawn the shard processes and start routing."""
        if self._started:
            raise RuntimeError("ShardRouter is already started")
        self._ready = self._context.Queue()
        for index in range(self.shards):
            self._spawn_shard(index)
        deadline = time.monotonic() + boot_timeout
        while len(self._shard_ports) < self.shards:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.shutdown(drain=False)
                raise TimeoutError(
                    f"only {len(self._shard_ports)} of {self.shards} shards "
                    f"came up within {boot_timeout}s"
                )
            try:
                index, port = self._ready.get(timeout=min(remaining, 1.0))
            except Exception:  # queue.Empty (multiprocessing re-exports it)
                continue
            self._shard_ports[index] = port
        self._publish_peers()

        handler = type("_BoundRouterHandler", (_RouterHandler,),
                       {"router": self, "auth": self._auth})
        self._server = ThreadingHTTPServer((self.host, self._requested_port),
                                           handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-shard-router", daemon=True)
        self._thread.start()
        self._started = True
        self._monitor_stop.clear()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-shard-monitor", daemon=True)
        self._monitor_thread.start()
        return self

    # -- supervision -----------------------------------------------------
    def _monitor_loop(self) -> None:
        """Watch shard liveness; respawn whatever died."""
        while not self._monitor_stop.wait(_HEALTH_INTERVAL_SECONDS):
            for index, process in list(self._processes.items()):
                if not process.is_alive():
                    self._respawn_shard(index)

    def _respawn_shard(self, index: int, boot_timeout: float = 60.0) -> bool:
        """Replace a dead shard process; ``True`` once the new one serves.

        The replacement mints job ids under a bumped generation prefix
        (``s<index>g<n>-``), so ids of the dead generation can never
        collide with new ones.
        """
        with self._respawn_lock:
            process = self._processes.get(index)
            if (not self._started or process is None or process.is_alive()):
                return False
            process.join(timeout=1.0)
            self._shard_ports.pop(index, None)
            self._generations[index] = self._generations.get(index, 0) + 1
            self._respawns[index] = self._respawns.get(index, 0) + 1
            self._spawn_shard(index)
            deadline = time.monotonic() + boot_timeout
            while index not in self._shard_ports:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                try:
                    announced, port = self._ready.get(
                        timeout=min(remaining, 1.0))
                except Exception:  # queue.Empty
                    continue
                self._shard_ports[announced] = port
            self._publish_peers()
            return True

    def _publish_peers(self) -> None:
        """Refresh the replicated store's peer map (node -> base URL).

        Shard ports are OS-assigned, so the peers file can only be
        written once they are known — and must be rewritten whenever a
        respawn moves one.  Backends re-read it on mtime change.
        """
        if self._store_root is None:
            return
        write_peers_file(self._store_root, {
            f"s{index}": self.shard_url(index)
            for index in sorted(self._shard_ports)
        })

    def respawns(self) -> Dict[int, int]:
        """Per-shard respawn counts so far (a snapshot)."""
        return dict(self._respawns)

    def live_shards(self) -> List[int]:
        """Indices of shards whose process is alive and port known."""
        return [index for index in sorted(self._shard_ports)
                if (process := self._processes.get(index)) is not None
                and process.is_alive()]

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("ShardRouter is not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def shard_url(self, index: int) -> str:
        return f"http://{self.host}:{self._shard_ports[index]}"

    def shutdown(self, drain: bool = True, timeout: float = 120.0) -> None:
        """Stop routing, drain every shard, then stop the processes."""
        # The monitor must stop first, or it would dutifully respawn the
        # very shards this is terminating.
        self._started = False
        self._monitor_stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=10)
            self._monitor_thread = None
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if drain:
            for index in list(self._shard_ports):
                try:
                    self._fetch(
                        index, "POST", "/internal/drain",
                        json.dumps({"timeout": timeout}).encode(),
                        timeout=timeout + 10,
                    )
                except OSError:
                    pass  # Shard already gone; terminate below.
        for process in self._processes.values():
            process.terminate()
        for process in self._processes.values():
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=5)
        self._processes = {}
        self._shard_ports = {}

    def __enter__(self) -> "ShardRouter":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=True)

    # -- routing ---------------------------------------------------------
    def shard_for_body(self, body: bytes, path: str = "") -> int:
        """Stable shard index for a submission (body fingerprint hash).

        The resource path salts the digest so e.g. two suite-compile
        requests with empty bodies but different benchmark names spread
        over different shards.
        """
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = body.hex()
        digest = payload_fingerprint([path, payload])
        return int(digest[:16], 16) % self.shards

    def shard_for_job(self, job_id: str) -> Optional[int]:
        """Shard index encoded in a job id (``s<k>[g<gen>]-...``), or ``None``."""
        match = _JOB_ID_SHARD.match(job_id)
        if match is None:
            return None
        index = int(match.group(1))
        # A valid-but-currently-dead shard still resolves: the routing
        # layer answers 503 + Retry-After for it while the replacement
        # process boots, not 404.
        return index if index < self.shards else None

    def _open(self, index: int, method: str, target: str,
              body: Optional[bytes] = None,
              timeout: float = _FORWARD_TIMEOUT_SECONDS,
              headers: Optional[Dict[str, str]] = None):
        """Send one request to a shard; its answer, read or not.

        An HTTP error status is an answer like any other (the returned
        ``HTTPError`` has ``status``, ``headers`` and a body); only a
        shard that cannot be reached raises (``OSError``).
        """
        request_headers = dict(headers or {})
        if body:
            request_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.shard_url(index) + target, data=body or None, method=method,
            headers=request_headers,
        )
        try:
            return urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as error:
            return error

    def _fetch(self, index: int, method: str, target: str,
               body: Optional[bytes] = None,
               timeout: float = _FORWARD_TIMEOUT_SECONDS) -> Tuple[int, bytes]:
        """One shard answer read whole: ``(status, body)``."""
        with self._open(index, method, target, body, timeout) as response:
            return response.status, response.read()

    def _forward_job(self, job_id: str, method: str, target: str,
                     body: bytes, headers: Dict[str, str]):
        """Forward a job-affine request to the shard the job id names.

        Job ids are shard-affine: a dead shard's jobs cannot fail over,
        so this answers 503 until the replacement is up (which will then
        report them 404 — they died with the process).
        """
        index = self.shard_for_job(job_id)
        if index is None:
            raise ApiError(404, f"unknown job {job_id!r}")
        if index not in self._shard_ports:
            raise _shard_down(f"shard {index} is restarting; job {job_id!r} "
                              "state is unavailable")
        try:
            return self._open(index, method, target, body, headers=headers)
        except OSError:
            raise _shard_down(f"shard {index} is unreachable") from None

    def _forward_failover(self, preferred: int, method: str, target: str,
                          body: bytes, headers: Dict[str, str]):
        """Forward to ``preferred``, failing over to any live shard.

        Cache affinity is best-effort: a submission whose home shard is
        mid-respawn lands on a survivor rather than bouncing back to the
        client (it only costs a possible duplicate compilation).
        """
        candidates = [preferred] + [index for index in self.live_shards()
                                    if index != preferred]
        for index in candidates:
            if index not in self._shard_ports:
                continue
            try:
                return self._open(index, method, target, body, headers=headers)
            except OSError:
                continue
        raise _shard_down("no shard is currently available")

    def _aggregate_prometheus(self) -> Tuple[int, bytes]:
        """Fan the Prometheus scrape out and concatenate shard documents.

        Every shard self-labels its samples with ``shard="s<k>"``, so the
        merge only needs to deduplicate HELP/TYPE headers per family.
        """
        documents: List[str] = []
        status = 200
        for index in sorted(self._shard_ports):
            try:
                shard_status, raw = self._fetch(
                    index, "GET", "/metrics?format=prometheus")
            except OSError:
                status = 502
                continue
            if shard_status != 200:
                status = 502
                continue
            documents.append(raw.decode("utf-8", "replace"))
        return status, merge_prometheus(documents).encode("utf-8")

    def _aggregate(self, path: str) -> Tuple[int, Dict[str, object]]:
        """Fan ``/healthz`` or ``/metrics`` out to every shard and merge."""
        documents: Dict[str, object] = {}
        status = 200
        for index in sorted(self._shard_ports):
            try:
                shard_status, raw = self._fetch(index, "GET", path)
                document = json.loads(raw.decode("utf-8"))
            except (OSError, ValueError):
                shard_status, document = 502, {"error": "shard unreachable"}
            if shard_status != 200:
                status = 502
            documents[f"s{index}"] = document
        if path == "/healthz":
            live = self.live_shards()
            if len(live) < self.shards:
                status = 502
            merged: Dict[str, object] = {
                "status": "ok" if status == 200 else "degraded",
                "shards": self.shards,
                "live": len(live),
                "respawns": {f"s{k}": n for k, n in sorted(self._respawns.items())},
                "per_shard": documents,
            }
        else:
            totals: Dict[str, float] = {}
            stores: Dict[str, Dict[str, float]] = {}
            for document in documents.values():
                service = document.get("service") if isinstance(document, dict) else None
                if not isinstance(service, dict):
                    continue
                for counter in _SUMMED_COUNTERS:
                    value = service.get(counter)
                    if isinstance(value, (int, float)):
                        totals[counter] = totals.get(counter, 0) + value
                # Per-backend store statistics: shards sharing one
                # local-dir double-report the same bytes, but replicated
                # backends own private tiers, so the per-backend sums
                # (and peer hit/miss counters) are the cluster truth.
                l2 = service.get("l2")
                if isinstance(l2, dict):
                    backend = str(l2.get("backend", "local_dir"))
                    bucket = stores.setdefault(backend, {"shards": 0})
                    bucket["shards"] += 1
                    for field in _STORE_SUMMED:
                        value = l2.get(field)
                        if isinstance(value, (int, float)):
                            bucket[field] = bucket.get(field, 0) + value
            merged = {
                "shards": self.shards,
                "aggregate": totals,
                "stores": stores,
                "per_shard": documents,
            }
        return status, merged


def _shard_down(detail: str) -> ApiError:
    """503 + retry hint while a shard's replacement process boots."""
    return ApiError(503, detail, retry=True,
                    retry_after=_SHARD_RETRY_AFTER_SECONDS)


def _relayed(response) -> _Raw:
    """A shard's answer as the router's: Content-Type, Retry-After, body.

    An answer without ``Content-Length`` (an event stream) is relayed
    chunk by chunk as the shard writes it — buffering would hold every
    event until the job ended and defeat the stream.
    """
    if response.headers.get("Content-Length") is not None:
        with response:
            body = response.read()
    else:
        body = _chunks(response)
    return _Raw(body, response.headers.get("Content-Type", "application/json"),
                response.headers.get("Retry-After"))


def _chunks(response) -> Iterator[bytes]:
    """Whatever the shard's socket has (``read1``), until it closes."""
    with response:
        while True:
            chunk = response.read1(8192)
            if not chunk:
                return
            yield chunk


class _RouterHandler(_EdgeHandler):
    """The router's edge: admit the request, then route it by action."""

    router: ShardRouter

    def _handle(self, action: str, match, query) -> Tuple[int, object]:
        router = self.router
        if action in _FAN_OUT:
            if "prometheus" in (query.get("format") or ()):
                status, text = router._aggregate_prometheus()
                return status, _Raw(text, PROMETHEUS_CONTENT_TYPE)
            return router._aggregate(match.string)
        if action in _NOT_FORWARDED:
            raise ApiError(404, f"no such resource: {self.command} {match.string}")
        # End-to-end headers travel to the shard; everything else stops here.
        headers = {name: self.headers[name] for name in _FORWARDED_HEADERS
                   if name in self.headers}
        if action in _BY_JOB:
            response = router._forward_job(match.group("job_id"), self.command,
                                           self.path, self.body, headers)
        else:
            preferred = (router.shard_for_body(self.body, match.string)
                         if action in _BY_BODY else 0)
            response = router._forward_failover(preferred, self.command,
                                                self.path, self.body, headers)
        return response.status, _relayed(response)
