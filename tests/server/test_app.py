"""The HTTP gateway end to end: real sockets, real compilations.

Every test here talks to an in-process ``ThreadingHTTPServer`` over
loopback HTTP — the exact wire a remote client sees.  The acceptance
test submits QASM over the wire and checks the returned adapted circuit
is unitary-equivalent to a locally compiled one.
"""

import json
import threading
import time
import urllib.request

import pytest

import repro
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.unitary import allclose_up_to_global_phase, circuit_unitary
from repro.hardware import spin_qubit_target
from repro.interop import qasm_to_circuit
from repro.server import (
    BadRequestError,
    CompilationFailedError,
    JobNotFoundError,
    ReproClient,
    ServerSaturatedError,
    ServerUnavailableError,
    build_server,
)
from repro.service.scheduler import CompilationService

QASM_BELL_CHAIN = (
    'OPENQASM 2.0; include "qelib1.inc"; '
    "qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];"
)


@pytest.fixture(scope="module")
def server():
    server = build_server(workers=2).start_background()
    yield server
    server.stop(drain=False)


@pytest.fixture(scope="module")
def client(server):
    return ReproClient(server.url, timeout=120.0)


class TestEndToEnd:
    def test_qasm_submitted_over_the_wire_is_unitary_equivalent_locally(
        self, client
    ):
        """Acceptance: wire-compiled == locally-compiled, up to global phase."""
        job = client.submit(QASM_BELL_CHAIN, technique="direct", name="bell3")
        remote = job.result(timeout=300)

        circuit = qasm_to_circuit(QASM_BELL_CHAIN)
        local = repro.compile(
            circuit, spin_qubit_target(3, "D0"), "direct", use_cache=False
        )
        assert allclose_up_to_global_phase(
            circuit_unitary(remote.adapted_circuit),
            circuit_unitary(local.adapted_circuit),
        )
        # And the QASM export in the raw payload re-imports equivalently.
        payload = client.result_payload(job.job_id, timeout=60)
        reimported = qasm_to_circuit(payload["qasm"])
        assert allclose_up_to_global_phase(
            circuit_unitary(reimported), circuit_unitary(circuit)
        )

    def test_circuit_json_submission_returns_full_adaptation_result(self, client):
        circuit = QuantumCircuit(2, name="wire2")
        circuit.h(0)
        circuit.cx(0, 1)
        result = client.compile(circuit, technique="direct", timeout=300)
        assert result.technique == "direct"
        assert result.cost.gate_count > 0
        assert result.report is not None
        assert result.report.technique == "direct"

    def test_job_lifecycle_reaches_done_and_keeps_report(self, client):
        job = client.submit(QASM_BELL_CHAIN, technique="direct")
        job.result(timeout=300)
        status = client.job_status(job.job_id)
        assert status["status"] == "done"
        assert status["kind"] == "technique"
        assert status["report"]["technique"] == "direct"

    def test_portfolio_submission_records_contenders(self, client):
        circuit = QuantumCircuit(2, name="race")
        circuit.h(0)
        circuit.cx(0, 1)
        result = client.compile_portfolio(
            circuit, techniques=["direct", "kak_cz"], timeout=300
        )
        raced = {c["technique"] for c in result.report.contenders}
        assert raced == {"direct", "kak_cz"}

    def test_suite_index_and_suite_compile(self, client):
        names = {entry["name"] for entry in client.suite()}
        assert "ghz_n5" in names
        result = client.compile_suite("ghz_n5", technique="direct", timeout=300)
        assert result.cost.gate_count > 0

    def test_batch_manifest_over_http(self, client):
        jobs = client.submit_batch({
            "technique": "direct",
            "workloads": [
                {"kind": "ghz", "num_qubits": 3},
                {"kind": "qv", "num_qubits": 2, "depth": 2, "seed": 0},
            ],
        })
        assert len(jobs) == 2
        for job in jobs:
            assert job.result(timeout=300).cost.gate_count > 0


class TestValidationErrors:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(JobNotFoundError):
            client.job_status("j999999")

    def test_bad_qasm_is_400_with_position(self, client):
        with pytest.raises(BadRequestError, match="invalid QASM"):
            client.submit("OPENQASM 2.0; qreg q[2]; nonsense q[0];",
                          technique="direct")

    def test_bad_circuit_json_is_400(self, client):
        with pytest.raises(BadRequestError, match="invalid circuit JSON"):
            client.submit({"not": "a circuit"}, technique="direct")

    def test_unknown_technique_is_400(self, client):
        with pytest.raises(BadRequestError, match="unknown technique"):
            client.submit(QASM_BELL_CHAIN, technique="definitely_not_a_key")

    def test_unknown_suite_benchmark_is_404(self, client):
        with pytest.raises(JobNotFoundError):
            client.compile_suite("no_such_benchmark", technique="direct")

    def test_batch_partial_rejection_returns_accepted_job_ids(self, client):
        """One bad workload must not orphan the rest: ids still come back."""
        with pytest.raises(BadRequestError) as excinfo:
            client.submit_batch({
                "technique": "direct",
                # The fixed 2-qubit target rejects the 3-qubit workload
                # at submit time; the 2-qubit one is already enqueued.
                "target": {"num_qubits": 2},
                "workloads": [
                    {"kind": "ghz", "num_qubits": 2, "name": "fits"},
                    {"kind": "ghz", "num_qubits": 3, "name": "too_wide"},
                ],
            })
        payload = excinfo.value.payload
        assert [e["name"] for e in payload["errors"]] == ["too_wide"]
        accepted = payload["jobs"]
        assert len(accepted) == 1 and accepted[0]["name"] == "fits"
        # The accepted job is live and pollable.
        assert client.result(accepted[0]["job_id"],
                             timeout=300).cost.gate_count > 0

    def test_batch_manifest_rejects_server_side_paths(self, client):
        with pytest.raises(BadRequestError, match="path"):
            client.submit_batch({
                "workloads": [{"kind": "qasm", "path": "/etc/passwd"}],
            })

    def test_target_too_small_is_400(self, client):
        with pytest.raises(BadRequestError, match="qubits"):
            client.submit(QASM_BELL_CHAIN, target={"num_qubits": 2},
                          technique="direct")

    def test_technique_and_portfolio_together_is_400(self, server):
        body = json.dumps({
            "circuit": QASM_BELL_CHAIN,
            "technique": "direct",
            "portfolio": ["direct"],
        }).encode()
        request = urllib.request.Request(
            server.url + "/v1/jobs", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_wrong_method_is_405(self, server):
        request = urllib.request.Request(server.url + "/v1/jobs", method="GET")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 405

    def test_unroutable_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/v2/nothing")
        assert excinfo.value.code == 404

    def test_negative_content_length_is_rejected_not_hung(self, server):
        """read(-1) would pin the handler thread until client EOF."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=10)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()  # Must answer, not block.
            assert response.status == 400
        finally:
            connection.close()

    def test_malformed_content_length_is_400(self, server):
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=10)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Content-Length", "banana")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_oversized_content_length_is_413_before_the_body(self, server):
        import http.client

        from repro.server.app import MAX_BODY_BYTES

        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=10)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            assert connection.getresponse().status == 413
        finally:
            connection.close()

    def test_unknown_technique_400_lists_available_keys(self, client):
        try:
            client.submit(QASM_BELL_CHAIN, technique="definitely_not_a_key")
            raise AssertionError("unknown technique accepted")
        except BadRequestError as error:
            assert "sat_p" in error.payload["available"]

    def test_non_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/jobs", data=b"not json {", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400


class TestHealthAndMetrics:
    def test_healthz_reports_ok_and_job_counts(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert "total" in health["jobs"]

    def test_unmatched_paths_share_one_metrics_label(self, server, client):
        for probe in ("/wp-admin", "/.env", "/scanner/12345"):
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url + probe)
        requests = client.metrics()["requests"]
        assert requests["GET <unmatched>"]["count"] >= 3
        assert not any("/wp-admin" in route for route in requests)

    def test_keepalive_connection_survives_an_error_with_a_body(self, server):
        """An errored POST must not poison the next request on the socket."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=30)
        try:
            body = json.dumps({"circuit": "ignored"}).encode()
            # Unroutable path WITH a body: the server answers before
            # reading it and must close the connection cleanly rather
            # than parse the body bytes as the next request line.
            connection.request("POST", "/v2/nothing", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 404
            assert response.headers.get("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_metrics_serialize_and_carry_latency_percentiles(self, client):
        client.healthz()  # Guarantee at least one observed request.
        metrics = client.metrics()
        json.dumps(metrics)  # Must be pure JSON all the way down.
        route = metrics["requests"]["GET /healthz"]
        assert route["count"] >= 1
        assert route["p50_ms_lifetime"] >= 0.0
        assert route["p95_ms_lifetime"] >= route["p50_ms_lifetime"] - 1e-9
        assert "le_inf" in route["histogram_ms"]
        # Windowed percentiles ride along, labelled by their window.
        assert set(route["windows"]) == {"1m", "5m", "15m"}
        assert route["windows"]["1m"]["count"] >= 1
        assert metrics["service"]["workers"] == 2


class TestBackpressureAndCancel:
    """Deterministic queue behaviour via an injected blocking compile_fn."""

    @pytest.fixture()
    def gated(self):
        release = threading.Event()
        started = threading.Event()

        def blocking_compile(circuit, target, technique, **kwargs):
            started.set()
            assert release.wait(timeout=60), "test never released the gate"
            return repro.compile(circuit, target, technique, use_cache=False)

        service = CompilationService(workers=1, max_pending=1,
                                     compile_fn=blocking_compile)
        server = build_server(service=service).start_background()
        try:
            yield server, ReproClient(server.url, timeout=30.0, retries=0), \
                release, started
        finally:
            release.set()
            server.stop(drain=False)

    def _distinct_circuit(self, tag: int) -> QuantumCircuit:
        circuit = QuantumCircuit(2, name=f"gated{tag}")
        circuit.rz(0.1 * (tag + 1), 0)
        circuit.cx(0, 1)
        return circuit

    def test_full_queue_is_503_and_result_long_poll_is_202(self, gated):
        server, client, release, started = gated
        running = client.submit(self._distinct_circuit(0), technique="direct")
        assert started.wait(timeout=30)
        queued = client.submit(self._distinct_circuit(1), technique="direct")
        with pytest.raises(ServerSaturatedError):
            client.submit(self._distinct_circuit(2), technique="direct")
        # The running job is not done: a bounded long-poll must say 202
        # (surfaced as TimeoutError client-side), not block forever.
        with pytest.raises(TimeoutError):
            client.result(running.job_id, timeout=0.2)
        release.set()
        assert running.result(timeout=60).cost.gate_count > 0
        assert queued.result(timeout=60).cost.gate_count > 0

    def test_queued_job_cancels_and_result_is_410(self, gated):
        from repro.server import JobCancelledError

        server, client, release, started = gated
        client.submit(self._distinct_circuit(0), technique="direct")
        assert started.wait(timeout=30)
        queued = client.submit(self._distinct_circuit(1), technique="direct")
        assert queued.cancel() is True
        assert queued.status() == "cancelled"
        with pytest.raises(JobCancelledError):
            queued.result(timeout=10)
        release.set()


class TestFailuresAndShutdown:
    def test_failed_compilation_is_422_with_the_cause(self):
        def exploding_compile(circuit, target, technique, **kwargs):
            raise RuntimeError("boom: no solution")

        service = CompilationService(workers=1, compile_fn=exploding_compile)
        server = build_server(service=service).start_background()
        try:
            client = ReproClient(server.url, timeout=30.0)
            job = client.submit(QASM_BELL_CHAIN, technique="direct")
            with pytest.raises(CompilationFailedError, match="boom"):
                job.result(timeout=60)
            assert client.job_status(job.job_id)["status"] == "failed"
        finally:
            server.stop(drain=False)

    def test_draining_stop_finishes_inflight_work_and_rejects_new(self):
        server = build_server(workers=1).start_background()
        client = ReproClient(server.url, timeout=60.0, retries=0)
        circuit = QuantumCircuit(2, name="drainme")
        circuit.h(0)
        circuit.cx(0, 1)
        job = client.submit(circuit, technique="direct")
        stopped = threading.Thread(target=server.stop, kwargs={"drain": True})
        stopped.start()
        stopped.join(timeout=120)
        assert not stopped.is_alive()
        # The in-flight job was drained to completion before the worker
        # pool wound down (checked on the in-process gateway object —
        # the listener itself is gone now).
        assert server.gateway._jobs[job.job_id].status() == "done"
        with pytest.raises(ServerUnavailableError):
            client.healthz()

    def test_unreachable_server_raises_after_retries(self):
        client = ReproClient("http://127.0.0.1:9", timeout=1.0,
                             retries=1, backoff=0.01)
        with pytest.raises(ServerUnavailableError):
            client.healthz()

    def test_internal_drain_endpoint_quiesces(self, ):
        server = build_server(workers=1).start_background()
        try:
            body = json.dumps({"timeout": 30}).encode()
            request = urllib.request.Request(
                server.url + "/internal/drain", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=60) as response:
                payload = json.loads(response.read())
            assert payload["drained"] is True
        finally:
            server.stop(drain=False)
