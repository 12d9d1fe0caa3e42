"""Fast perf-harness smoke test (runs in the default tier and in CI).

Executes the ``smoke`` preset end to end and checks the report invariants
that gate the perf trajectory: the JSON is serializable and the kernel
paths beat (or match) the dense baselines where promised.  OMT optima are
checked against a brute-force oracle in
``tests/smt/test_incremental_theory.py``.
"""

import json

from perf.suite import run_suite


def test_perf_smoke_suite(tmp_path):
    report = run_suite("smoke")

    # The report must be valid machine-readable JSON.
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    assert json.loads(path.read_text())["preset"] == "smoke"

    # Acceptance criterion: >= 10x on 10-qubit statevector simulation.
    ten_qubit = [row for row in report["statevector"] if row["num_qubits"] == 10]
    assert ten_qubit and ten_qubit[0]["speedup"] >= 10

    # Stage timings from the pipeline report are present for every compile.
    for row in report["compile"]:
        assert row["seconds"] > 0
        assert "solve" in row["stage_seconds"] or row["technique"] in ("direct", "kak_cz", "kak_dcz")

    # Service-layer throughput landed, and the warm (persistent-store)
    # pass really was served from disk.
    service = report["service"]
    assert service["cold_circuits_per_second"] > 0
    assert service["warm_circuits_per_second"] > 0
    assert service["warm_store_hits"] > 0

    # Bundled-benchmark (QASM interop) throughput landed, with one row
    # per benchmark actually compiled.
    suite = report["suite"]
    assert suite["circuits_per_second"] > 0
    assert suite["benchmarks"] == len(suite["per_benchmark"]) > 0
