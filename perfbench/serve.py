"""The ``serve_mixed`` workload: a closed loop against ``python -m repro.server``.

One client thread with its own :class:`repro.server.ReproClient` sends
the next request only after the previous one returned (a closed loop).
Requests follow Zipf popularity over the 27 bundled QASM sources x
{direct, template_f, template_r}, in an order drawn from the seed: a
key's first request compiles (L1 put, L2 store write) and its repeats are
cache reads (L1 hit, copy, encode, HTTP).  The server is
a fresh child process with its own empty store for every phase.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import harness
import layers
import spans

TECHNIQUES = ("direct", "template_f", "template_r")
#: Closed-loop clients.  With two, client and server kept both vCPUs of
#: a 2-vCPU host busy, and run-to-run throughput spread 0.40 (IQR/median,
#: 10 runs) as host contention came and went.  One client needs about one
#: core at a time and measured 0.13 over 5 runs at the same throughput.
CLIENT_THREADS = 1
#: The client and the server child share this one CPU.  Unpinned, each
#: request's ping-pong crossed vCPUs, and on a shared 2-vCPU host p50
#: swung 17.6-28.3 ms across three alternating trials; pinned it was
#: 14.1-17.5 ms, at higher throughput.
PINNED_CPU = 0
#: Server compile workers (``--workers``): at most the core count.
SERVER_WORKERS = max(1, min(2, os.cpu_count() or 1))
#: Zipf exponent of key popularity (rank r gets weight r**-s).
ZIPF_EXPONENT = 1.0
#: Size of the request multiset; a run keeps sending past ``--seconds``
#: until it has sent this many.  The 81 first sights are then under 7% of
#: the traffic, so ``latency_ms_p90`` falls inside the hit distribution.
#: At ~900 requests it sat on the hit/miss boundary and moved 36% between
#: runs with the hit share.
MIN_REQUESTS = 1200
#: Server boots timed per run; the median is the boot part of setup_s.
BOOT_SAMPLES = 5
BOOT_TIMEOUT_S = 60.0


class Key(NamedTuple):
    name: str
    qasm: str
    num_qubits: int
    technique: str

    @property
    def label(self) -> str:
        return f"{self.name}/{self.technique}"


def request_keys() -> List[Key]:
    """Every (suite source, technique) key, in suite order."""
    import repro.interop
    import repro.server  # noqa: F401 - the client layer is part of set-up

    return [
        Key(entry.name, entry.qasm, entry.metadata()["qubits"], technique)
        for entry in repro.interop.load_suite()
        for technique in TECHNIQUES
    ]


def zipf_stream(keys: List[Key], seed: int) -> "RequestStream":
    """Zipf-proportioned requests over ``keys`` (ranked as given), in seeded order.

    Key ``r`` (1-based rank, suite order) gets its largest-remainder share
    of ``MIN_REQUESTS`` for weight ``r**-ZIPF_EXPONENT``; the seed shuffles
    that multiset.  Every key appears (the rarest about 3 times), so every
    run compiles the same 81 keys and serves the same hits, and only the
    order changes with the seed.  An i.i.d. draw left the counts of the
    rare, large keys (qft_n8, qft_n6) to chance; they sit near p90, which
    moved 22% between seeds.
    """
    weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(keys) + 1)]
    total = sum(weights)
    shares = [MIN_REQUESTS * weight / total for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(keys)), key=lambda i: counts[i] - shares[i])
    for index in by_remainder[:MIN_REQUESTS - sum(counts)]:
        counts[index] += 1
    requests = [key for key, count in zip(keys, counts) for _ in range(count)]
    return RequestStream(requests, random.Random(seed))


class RequestStream:
    """Thread-safe source of the next key: the multiset in seeded order,
    reshuffled whenever it is used up."""

    def __init__(self, requests: List[Key], rng: random.Random) -> None:
        self._requests = requests
        self._rng = rng
        self._pending: List[Key] = []
        self._lock = threading.Lock()

    def next(self) -> Key:
        with self._lock:
            if not self._pending:
                self._pending = list(self._requests)
                self._rng.shuffle(self._pending)
            return self._pending.pop()


class Server:
    """A ``python -m repro.server`` child with an empty store of its own."""

    def __init__(self, tag: str, workers: int) -> None:
        self.store = harness.OUT_DIR / f"store-{os.getpid()}-{tag}"
        shutil.rmtree(self.store, ignore_errors=True)
        self.log_path = harness.OUT_DIR / f"server-{os.getpid()}-{tag}.log"
        self.log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--workers", str(workers), "--store", str(self.store)],
            cwd=harness.ROOT, env=harness.child_env(),
            stdout=subprocess.PIPE, stderr=self.log,
        )
        try:
            self.url = self._await_listening()
            from repro.server import ReproClient

            ReproClient(self.url, retries=0).wait_until_ready(timeout=BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started
        self._drain = threading.Thread(target=self._drain_stdout, daemon=True)
        self._drain.start()

    def warm_up(self) -> None:
        """One untimed request per technique on a circuit no key uses."""
        from repro.server import ReproClient

        client = ReproClient(self.url, retries=0)
        for technique in TECHNIQUES:
            client.submit(harness.WARM_UP_QASM, {"num_qubits": 2, "durations": "D0"},
                          technique, **harness.TRANSLATE_OPTIONS).result()

    def _await_listening(self) -> str:
        marker = "listening on "
        for raw in self.process.stdout:
            line = raw.decode("utf-8", "replace")
            if marker in line:
                return line.split(marker, 1)[1].split()[0]
        raise RuntimeError(f"server exited with {self.process.wait()} before listening")

    def _drain_stdout(self) -> None:
        for _ in self.process.stdout:
            pass

    def peak_rss_mb(self) -> float:
        return harness.process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Draining shutdown (SIGTERM), then kill if it hangs; always reaped."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=20)  # the pipe is at EOF once the server exited
        self.process.stdout.close()
        self.log.close()
        if self.log_path.stat().st_size == 0:
            self.log_path.unlink()
        shutil.rmtree(self.store, ignore_errors=True)


class Loop(NamedTuple):
    tally: harness.Tally
    results: Dict[str, object]
    hit_latencies: List[float]
    miss_latencies: List[float]
    job_ids: List[str]


def request(client, key: Key):
    """One compile over HTTP: submit, then block on the result."""
    job = client.submit(
        key.qasm, {"num_qubits": key.num_qubits, "durations": "D0"}, key.technique,
        **harness.TRANSLATE_OPTIONS,
    )
    return job, job.result()


def closed_loop(url: str, stream: RequestStream, seconds: float,
                recorder: Optional[spans.SpanRecorder] = None,
                min_requests: int = 0) -> Loop:
    """``CLIENT_THREADS`` clients, each sending its next request on a reply.

    Clients stop once ``seconds`` have elapsed and ``min_requests`` have
    been answered.
    """
    from repro.server import ReproClient

    tally = harness.Tally()
    results: Dict[str, object] = {}
    signatures: Dict[str, tuple] = {}
    job_ids: List[str] = []
    hit_latencies: List[float] = []
    miss_latencies: List[float] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client_thread() -> None:
        # retries=0: a 429/503 is a failed operation, not a silent retry.
        client = ReproClient(url, retries=0)
        while time.perf_counter() < deadline or tally.attempted < min_requests:
            key = stream.next()
            began = time.perf_counter()
            try:
                if recorder is None:
                    job, result = request(client, key)
                else:
                    with recorder.span(spans.OPERATION):
                        job, result = request(client, key)
            except Exception as error:  # noqa: BLE001 - counted, run goes on
                with lock:
                    tally.attempted += 1
                    tally.fail(f"{key.label}: {type(error).__name__}: {error}")
                continue
            elapsed = time.perf_counter() - began
            with lock:
                tally.attempted += 1
                problem = harness.check_result(result, key.technique, key.label, signatures)
                if problem is not None:
                    tally.fail(f"{key.label}: {problem}")
                    continue
                tally.latencies.append(elapsed)
                results.setdefault(key.label, result)
                job_ids.append(job.job_id)
                hit = result.report is not None and result.report.cache_hit
                (hit_latencies if hit else miss_latencies).append(elapsed)

    started = time.perf_counter()
    threads = [threading.Thread(target=client_thread, name=f"client-{index}")
               for index in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    tally.wall = time.perf_counter() - started
    return Loop(tally, results, hit_latencies, miss_latencies, job_ids)


def properties(loop: Loop) -> Dict[str, float]:
    """Workload-property report: how much of the traffic repeated a key."""
    completed = len(loop.tally.latencies)
    return {
        "bench.hit_share": len(loop.hit_latencies) / completed if completed else 0.0,
        "bench.distinct_keys": float(len(loop.results)),
    }


def hit_miss_latencies(loop: Loop) -> Dict[str, float]:
    """Median latency of cache hits and of compiles (misses), ms."""
    return {
        f"{kind}_latency_ms_p50": 1000 * harness.percentile(samples, 50)
        for kind, samples in (("hit", loop.hit_latencies), ("miss", loop.miss_latencies))
        if samples
    }


def boot_servers(workers: int, count: int) -> Tuple[List[float], Server]:
    """Boot ``count`` servers one after another; keep the last one running."""
    boots = []
    for index in range(count - 1):
        server = Server(f"boot{index}", workers)
        boots.append(server.boot_s)
        server.stop()
    server = Server("run", workers)
    boots.append(server.boot_s)
    return boots, server


def server_metrics(url: str, job_ids: List[str]) -> Dict[str, float]:
    """Server-side layer numbers from ``/metrics`` and the job documents."""
    from repro.server import ReproClient

    client = ReproClient(url, retries=0)
    document = client.metrics()
    requests = document.get("requests", {})
    service = document.get("service", {})
    queue_waits, runs = [], []
    for job_id in job_ids:
        timing = client.job_status(job_id).get("timing", {})
        if "queue_wait_seconds" in timing:
            queue_waits.append(timing["queue_wait_seconds"])
        if "run_seconds" in timing:
            runs.append(timing["run_seconds"])
    return {
        "server.post_jobs_ms": requests.get("POST /v1/jobs", {}).get("mean_ms", 0.0),
        "server.get_result_ms": requests.get(
            "GET /v1/jobs/{id}/result", {}).get("mean_ms", 0.0),
        "service.queue_wait_ms": 1000 * statistics.fmean(queue_waits) if queue_waits else 0.0,
        "service.run_ms": 1000 * statistics.fmean(runs) if runs else 0.0,
        "service.worker_utilization": float(service.get("worker_utilization", 0.0)),
        "service.l1_hit_ratio": float(service.get("l1_hit_rate", 0.0)),
        "cluster.shed_or_throttled": shed_or_throttled(document.get("telemetry", [])),
    }


def shed_or_throttled(families) -> float:
    """Submissions the shedder refused plus auth throttles and quota refusals."""
    total = 0.0
    for family in families:
        name = family.get("name")
        for sample in family.get("samples", []):
            labels = sample.get("labels", {})
            if name == "repro_shed_requests_total" or (
                    name == "repro_auth_requests_total"
                    and labels.get("outcome") in ("throttled", "quota")):
                total += float(sample.get("value", 0.0))
    return total


def run(seed: int, seconds: int, trace: bool, record: Dict) -> Dict:
    """Run ``serve_mixed``; returns attempted/failed/metrics."""
    keys = request_keys()
    workers = SERVER_WORKERS
    record["server_workers"] = workers
    allowed = os.sched_getaffinity(0)
    cpu = PINNED_CPU if PINNED_CPU in allowed else min(allowed)
    os.sched_setaffinity(0, {cpu})  # inherited by the server children
    record["pinned_cpu"] = cpu
    if not trace:
        setup = harness.time_setup_children("serve_mixed")
        boots, server = boot_servers(workers, BOOT_SAMPLES)
        try:
            server.warm_up()
            loop = closed_loop(server.url, zipf_stream(keys, seed), seconds,
                               min_requests=MIN_REQUESTS)
            peak = server.peak_rss_mb()
        finally:
            server.stop()
        record["properties"] = properties(loop)
        record["setup_samples_s"] = setup
        record["boot_samples_s"] = boots
        record["requests"] = len(loop.tally.latencies)
        record.update(hit_miss_latencies(loop))
        fidelity, idle = harness.quality_means(
            [loop.results[label] for label in sorted(loop.results)])
        metrics = {
            "setup_s": statistics.median(setup) + statistics.median(boots),
            "compiles_per_s": loop.tally.rate,
            "latency_ms_p50": 1000 * harness.percentile(loop.tally.latencies, 50),
            "latency_ms_p90": 1000 * harness.percentile(loop.tally.latencies, 90),
            "fidelity_change_mean": fidelity,
            "idle_time_decrease_mean": idle,
            "peak_rss_mb": peak,
        }
        return harness.outcome(loop.tally.attempted, loop.tally.failed,
                               loop.tally.errors, metrics, "end_to_end")

    # Traced run: an untraced half, then a traced half against a second
    # fresh server (the first one's cache is warm), same seeded stream.
    half = seconds / 2
    server = Server("plain", workers)
    try:
        server.warm_up()
        plain = closed_loop(server.url, zipf_stream(keys, seed), half)
    finally:
        server.stop()
    recorder = spans.SpanRecorder()
    server = Server("traced", workers)
    try:
        server.warm_up()
        with spans.instrumented(recorder):
            traced = closed_loop(server.url, zipf_stream(keys, seed), half, recorder)
        remote = server_metrics(server.url, traced.job_ids)
    finally:
        server.stop()
    operations = len(traced.tally.latencies)
    metrics = {
        **layers.span_metrics(recorder.self_times_ms(), operations),
        **layers.result_metrics(traced.results.values()),
        **remote,
        **properties(plain),
        "bench.trace_overhead_pct": layers.overhead_pct(plain.tally.rate, traced.tally.rate),
    }
    record["properties"] = properties(plain)
    record["requests"] = operations
    record["spans"] = len(recorder.spans)
    recorder.dump(harness.OUT_DIR / f"spans-serve_mixed-s{seed}.jsonl")
    return harness.outcome(plain.tally.attempted + traced.tally.attempted,
                           plain.tally.failed + traced.tally.failed,
                           plain.tally.errors + traced.tally.errors,
                           metrics, "per_layer")
