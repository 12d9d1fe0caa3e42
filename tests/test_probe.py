"""The probe seam: attach/detach bookkeeping, fan-out, and its subscribers."""

import sys
import threading

import pytest

from repro import probe
from repro.probe import Probe, attach, current_probe, detach
from repro.resilience import Budget, budget_scope, clear_fault_plan, install_fault_plan
from repro.telemetry import disable_telemetry, enable_telemetry, telemetry_enabled
from repro.telemetry.instruments import SolverMeter
from repro.trace import Tracer


@pytest.fixture(autouse=True)
def isolated_probe(monkeypatch):
    """Run each test against an empty seam, restoring the real one after."""
    monkeypatch.setattr(probe, "_LIVE", None)
    monkeypatch.setattr(probe, "_COUNTS", {})


class Recorder(Probe):
    __slots__ = ("name", "log")

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def sat_conflict(self, solver):
        self.log.append((self.name, solver))


def test_nothing_attached_means_no_probe():
    assert current_probe() is None


def test_attach_is_counted_per_source():
    log = []
    source = lambda: Recorder("a", log)  # noqa: E731
    attach(source)
    attach(source)
    detach(source)
    assert isinstance(current_probe(), Recorder)
    detach(source)
    assert current_probe() is None
    detach(source)  # an unmatched detach is harmless
    assert current_probe() is None


def test_concurrent_attach_detach_leaves_the_seam_empty():
    """Budget scopes open and close on many threads at once."""
    sources = [lambda: Recorder("a", []), lambda: Recorder("b", [])]
    errors = []

    def churn(source):
        try:
            for _ in range(2000):
                attach(source)
                current_probe()
                detach(source)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(sources[i % 2],))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert probe._COUNTS == {} and current_probe() is None


def test_a_source_with_nothing_to_observe_is_skipped():
    attach(lambda: None)
    assert current_probe() is None


def test_fanout_reports_to_every_probe_in_attach_order():
    log = []
    attach(lambda: Recorder("first", log))
    attach(lambda: Recorder("second", log))
    fanout = current_probe()
    fanout.sat_conflict("solver")
    fanout.omt_round(3, 1)  # a hook neither overrides stays a no-op
    assert log == [("first", "solver"), ("second", "solver")]


def test_each_subscriber_attaches_only_while_active(tmp_path):
    budget = Budget(timeout=60.0)
    with budget_scope(budget):
        assert current_probe() is budget
    assert current_probe() is None

    plan = install_fault_plan([{"site": "sat.conflict", "action": "slow", "after": 0}])
    try:
        assert current_probe() is plan
    finally:
        clear_fault_plan()
    assert current_probe() is None

    tracer = Tracer(str(tmp_path / "t.jsonl"))
    try:
        with tracer.activate():
            assert type(current_probe()).__name__ == "_TraceProbe"
    finally:
        tracer.close()
    assert current_probe() is None

    was_enabled = telemetry_enabled()
    disable_telemetry()
    try:
        enable_telemetry()
        enable_telemetry()  # idempotent: attached once
        assert isinstance(current_probe(), SolverMeter)
        disable_telemetry()
        assert current_probe() is None
    finally:
        if was_enabled:
            enable_telemetry()

