"""Solver ``d_*`` trace deltas sum to the result's solver statistics.

The sampled solver events (``sat.conflicts`` milestones, head/stride
``smt.check`` and ``omt.round``) each carry the work since the previous
event of their kind, and every solver call flushes its residual on exit,
so summing a trace reproduces the counters in ``result.statistics``.
"""

import repro
from repro.core import exact
from repro.hardware import spin_qubit_target
from repro.trace import load_events
from repro.workloads import quantum_volume_circuit


def _delta_sum(events, name, field):
    return sum(event["fields"][field] for event in events
               if event["kind"] == "point" and event["name"] == name)


def test_omt_trace_deltas_sum_to_result_statistics(tmp_path, monkeypatch):
    # A zero limit sends SAT_P to the OMT, whose loops emit the events.
    monkeypatch.setattr(exact, "MAX_COMBINATIONS", 0)
    path = tmp_path / "omt.jsonl"
    result = repro.compile(quantum_volume_circuit(3, seed=1), spin_qubit_target(3),
                           "sat_p", use_cache=False, trace=str(path),
                           max_improvement_rounds=50)
    stats = result.statistics
    assert stats["selection"] == "omt"
    assert stats["sat_conflicts"] > 0 and stats["theory_pivots"] > 0
    events = load_events(str(path))
    assert _delta_sum(events, "sat.conflicts", "d_conflicts") == stats["sat_conflicts"]
    assert _delta_sum(events, "smt.check", "d_pivots") == stats["theory_pivots"]
    assert _delta_sum(events, "omt.round", "d_rounds") == stats["improvement_rounds"]
    assert _delta_sum(events, "sat.restart", "d_restarts") == stats["sat_restarts"]


def test_omt_telemetry_counts_match_result_statistics(monkeypatch):
    # The level-0 propagation before the search loop, and the early
    # UNSAT returns after it, are counted as well.
    from repro.telemetry.instruments import SOLVER_EVENTS
    from repro.telemetry.registry import (
        disable_telemetry,
        enable_telemetry,
        telemetry_enabled,
    )

    monkeypatch.setattr(exact, "MAX_COMBINATIONS", 0)
    events = ("propagations", "conflicts", "decisions")
    was_enabled = telemetry_enabled()
    enable_telemetry()
    try:
        before = {event: SOLVER_EVENTS.labels(event).value for event in events}
        result = repro.compile(quantum_volume_circuit(3, seed=1), spin_qubit_target(3),
                               "sat_p", use_cache=False, max_improvement_rounds=50)
        delta = {event: SOLVER_EVENTS.labels(event).value - before[event]
                 for event in events}
    finally:
        if not was_enabled:
            disable_telemetry()
    stats = result.statistics
    assert stats["selection"] == "omt"
    assert delta == {event: stats[f"sat_{event}"] for event in events}


def test_unbounded_objective_closes_its_span(tmp_path):
    from repro.smt import Optimize, Real, RealVal
    from repro.trace import Tracer

    tracer = Tracer(str(tmp_path / "unbounded.jsonl"))
    with tracer.activate():
        opt = Optimize()
        x = Real("x")
        opt.add(x >= RealVal(0))
        handle = opt.maximize(x)
        opt.check()
    tracer.close()
    assert handle.unbounded
    events = load_events(str(tmp_path / "unbounded.jsonl"))
    ends = [e for e in events if e["kind"] == "end" and e["name"] == "omt.optimize"]
    assert [e["fields"]["rounds"] for e in ends] == [1]
