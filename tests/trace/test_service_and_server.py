"""Tracing through the async service and the HTTP gateway, plus job timing."""

import threading

import pytest

import repro

from repro.circuits.circuit import QuantumCircuit
from repro.server import ReproClient, build_server
from repro.service.scheduler import CompilationService
from repro.hardware import spin_qubit_target
from repro.trace import (
    current_tracer,
    global_tracer,
    load_events,
    stop_tracing,
    summarize,
    validate_trace,
)
from repro.workloads import ghz_circuit

QASM_BELL_CHAIN = (
    'OPENQASM 2.0; include "qelib1.inc"; '
    "qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];"
)


@pytest.fixture(autouse=True)
def _no_global_tracer():
    stop_tracing()
    yield
    stop_tracing()


def _distinct_circuit(index):
    circuit = ghz_circuit(3)
    circuit.name = f"ghz3_v{index}"
    # A trailing 1q gate on a different qubit keeps dedup keys distinct.
    circuit.x(index % 3)
    return circuit


class TestServiceTracing:
    def test_two_simultaneous_jobs_trace_cleanly_and_parent_correctly(
        self, tmp_path
    ):
        """Acceptance: concurrent traced jobs yield non-interleaved,
        correctly-parented spans."""
        path = str(tmp_path / "service.jsonl")
        # Each job waits at the barrier until the other one runs too, so
        # the pair overlaps on the two workers however fast sat_p is.
        both_running = threading.Barrier(2, timeout=60)

        def overlapping_compile(*args, **kwargs):
            both_running.wait()
            return repro.compile(*args, **kwargs)

        service = CompilationService(workers=2, trace=path,
                                     compile_fn=overlapping_compile)
        target = spin_qubit_target(3, "D0")
        try:
            tracer = current_tracer()
            submit_spans = {}
            handles = []
            for index in range(2):
                with tracer.span("submit", "api", index=index) as span_id:
                    handle = service.submit(
                        _distinct_circuit(index), target, "sat_p",
                        use_cache=False)
                submit_spans[handle.job_id] = span_id
                handles.append(handle)
            for handle in handles:
                handle.result(timeout=300)
        finally:
            service.shutdown()

        events = load_events(path)
        validate_trace(events)  # per-thread LIFO nesting, monotonic ts
        job_begins = [e for e in events
                      if e["kind"] == "begin" and e["name"] == "job"]
        assert len(job_begins) == 2
        # Each worker-side job span parents under its own submitter span.
        for begin in job_begins:
            job_id = begin["fields"]["job_id"]
            assert begin["parent"] == submit_spans[job_id]
        # The two jobs ran on distinct worker threads with distinct spans.
        assert len({b["span"] for b in job_begins}) == 2
        assert len({b["tid"] for b in job_begins}) == 2

    def test_dedup_emits_a_dedup_event_instead_of_a_second_job(self, tmp_path):
        path = str(tmp_path / "dedup.jsonl")
        service = CompilationService(workers=1, trace=path)
        target = spin_qubit_target(3, "D0")
        circuit = ghz_circuit(3)
        try:
            # The blocker occupies the only worker, so the identical pair
            # below is still queued when the duplicate arrives.
            blocker = service.submit(_distinct_circuit(0), target, "direct",
                                     use_cache=False)
            first = service.submit(circuit, target, "direct")
            second = service.submit(circuit, target, "direct")
            assert first.job_id == second.job_id
            blocker.result(timeout=300)
            first.result(timeout=300)
            second.result(timeout=300)
        finally:
            service.shutdown()
        events = load_events(path)
        names = [e["name"] for e in events]
        assert names.count("job.submit") == 2  # blocker + the shared pair
        assert names.count("job.dedup") == 1
        dedup = next(e for e in events if e["name"] == "job.dedup")
        assert dedup["fields"]["job_id"] == first.job_id
        assert dedup["fields"]["waiters"] == 2

    def test_job_timing_lifecycle_fields(self):
        service = CompilationService(workers=1)
        target = spin_qubit_target(3, "D0")
        try:
            handle = service.submit(ghz_circuit(3), target, "direct",
                                    use_cache=False)
            partial = handle.timing()
            assert "submitted_at" in partial
            handle.result(timeout=300)
        finally:
            service.shutdown()
        timing = handle.timing()
        assert set(timing) == {
            "submitted_at", "started_at", "queue_wait_seconds",
            "finished_at", "run_seconds", "total_seconds",
        }
        assert timing["submitted_at"] <= timing["started_at"] <= timing["finished_at"]
        assert timing["queue_wait_seconds"] >= 0.0
        assert timing["run_seconds"] >= 0.0
        assert timing["total_seconds"] >= timing["run_seconds"]


class TestServerTracing:
    @pytest.fixture()
    def traced_server(self, tmp_path):
        path = str(tmp_path / "server.jsonl")
        server = build_server(workers=2, trace=path).start_background()
        yield server, path
        server.stop(drain=False)

    def test_http_compile_traces_all_four_layers(self, traced_server):
        """Acceptance: one HTTP compile spans server -> service -> pipeline
        -> solver in a single trace file."""
        server, path = traced_server
        client = ReproClient(server.url, timeout=120.0)
        result = client.compile_suite("toffoli_n3", technique="sat_p",
                                      timeout=300)
        assert result.cost.gate_count > 0
        global_tracer().flush()

        events = load_events(path)
        validate_trace(events)
        summary = summarize(events)
        assert {"server", "service", "api", "pipeline", "solver"} <= set(
            summary["layers"])
        assert any(key.startswith("pipeline:pass:") for key in summary["stages"])
        # The worker's selection span made it through, with its counters.
        select = [e for e in events
                  if e["kind"] == "end" and e["name"] == "select"]
        assert len(select) == 1
        assert select[0]["fields"]["selection"] == "exact"
        assert select[0]["fields"]["nodes"] >= 1

    def test_job_status_payload_carries_timing(self, traced_server):
        server, _ = traced_server
        client = ReproClient(server.url, timeout=120.0)
        job = client.submit(QASM_BELL_CHAIN, technique="direct")
        job.result(timeout=300)
        status = client.job_status(job.job_id)
        timing = status["timing"]
        assert timing["queue_wait_seconds"] >= 0.0
        assert timing["run_seconds"] >= 0.0
        assert timing["finished_at"] >= timing["submitted_at"]

    def test_metrics_exposes_per_pass_latency_histograms(self, traced_server):
        server, _ = traced_server
        client = ReproClient(server.url, timeout=120.0)
        circuit = QuantumCircuit(2, name="metrics2")
        circuit.h(0)
        circuit.cx(0, 1)
        client.compile(circuit, technique="direct", timeout=300)
        passes = client.metrics()["passes"]
        for stage in ("route", "solve", "analyze_cost"):
            block = passes[stage]
            assert block["count"] >= 1
            assert block["p50_ms"] <= block["p95_ms"] or block["count"] == 1
            # Non-cumulative buckets: every observation lands in exactly one.
            assert sum(block["histogram_ms"].values()) == block["count"]


class TestTracePropagation:
    """Client spans travel over ``X-Repro-Trace`` and stitch into the
    server's trace via ``fields.remote_parent``."""

    def test_client_requests_root_the_request_trees(self, tmp_path):
        from repro.trace import build_spans, resolve_parent, trace_forest

        path = str(tmp_path / "stitched.jsonl")
        server = build_server(workers=2, trace=path).start_background()
        try:
            client = ReproClient(server.url, timeout=120.0)
            # use_cache=False: a cache hit would skip the pipeline layer
            # this test walks the stitched tree for.
            client.compile_suite("teleport_n3", technique="direct",
                                 use_cache=False, timeout=300)
        finally:
            server.stop(drain=True)

        events = load_events(path)
        validate_trace(events)  # remote stitching never bends local invariants
        spans = build_spans(events)
        roots, children = trace_forest(spans)
        index = {(span.pid, span.span_id): span for span in spans}

        # Every server-side request span hangs off the client span that
        # sent it; only client.request spans root the forest.
        requests = [span for span in spans if span.name == "http.request"]
        assert requests
        for span in requests:
            parent = resolve_parent(span, index)
            assert parent is not None and parent.name == "client.request"
        assert {root.layer for root in roots} == {"client"}
        # The compile request's tree reaches all the way into the workers.
        compile_root = next(
            root for root in roots
            if str(root.fields.get("path", "")).endswith("/compile"))
        layers = set()
        stack = [compile_root]
        while stack:
            span = stack.pop()
            layers.add(span.layer)
            stack.extend(children.get((span.pid, span.span_id), ()))
        assert {"client", "server", "service", "pipeline"} <= layers

    def test_two_processes_stitch_into_one_validated_forest(self, tmp_path):
        """Acceptance: a traced client compile against a *separate* server
        process yields one stitched trace tree per request, and the pair
        of files passes ``python -m repro.trace --validate``."""
        import subprocess
        import sys
        import time as time_module

        from repro.trace import build_spans, resolve_parent, start_tracing
        from repro.trace.__main__ import main as trace_main

        server_path = tmp_path / "server.jsonl"
        client_path = tmp_path / "client.jsonl"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--workers", "1", "--trace", str(server_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on " in banner, banner
            url = banner.split("listening on ", 1)[1].split()[0]

            start_tracing(str(client_path))
            client = ReproClient(url, timeout=120.0)
            client.compile_suite("teleport_n3", technique="direct",
                                 timeout=300)
            stop_tracing()
        finally:
            process.terminate()
            process.wait(timeout=60)

        deadline = time_module.time() + 10
        while not server_path.exists() and time_module.time() < deadline:
            time_module.sleep(0.05)

        assert trace_main(["--validate", str(client_path),
                           str(server_path)]) == 0

        events = load_events([client_path, server_path])
        spans = build_spans(events)
        index = {(span.pid, span.span_id): span for span in spans}
        assert len({span.pid for span in spans}) == 2
        requests = [span for span in spans if span.name == "http.request"]
        assert requests
        for span in requests:
            parent = resolve_parent(span, index)
            assert parent is not None
            assert parent.name == "client.request"
            assert parent.pid != span.pid  # genuinely cross-process
