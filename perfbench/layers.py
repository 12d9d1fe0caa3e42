"""Per-layer metrics of a traced run.

``*_ms`` metrics are self times per operation (compile or request) from
the span recorder; counts and ratios come from ``result.statistics``, the
pipeline report counters, the server's ``/metrics`` document and the job
status ``timing``.  A layer a workload never enters reports 0.
"""

from __future__ import annotations

from typing import Dict, Iterable

#: Per-layer self-time metric -> span name (see ``spans.ENTRY_POINTS``).
SPAN_METRICS = {
    "smt.check_ms": "smt.check",
    "sat.solve_ms": "sat.solve",
    "core.model_build_ms": "core.model_build",
    "pipeline.solve_ms": "pipeline.solve",
    "pipeline.evaluate_rules_ms": "pipeline.evaluate_rules",
    "synthesis.kak_ms": "synthesis.kak",
    "pipeline.merge_1q_ms": "pipeline.merge_1q",
    "pipeline.verify_ms": "pipeline.verify",
    "pipeline.route_ms": "pipeline.route",
    "pipeline.preprocess_ms": "pipeline.preprocess",
    "pipeline.apply_ms": "pipeline.apply",
    "pipeline.analyze_cost_ms": "pipeline.analyze_cost",
    "interop.parse_ms": "interop.parse",
    "api.fingerprint_ms": "api.fingerprint",
    "api.cache_get_ms": "api.cache_get",
    "api.cache_put_ms": "api.cache_put",
    "server.client_submit_ms": "server.client_submit",
    "server.client_result_ms": "server.client_result",
    "core.result_decode_ms": "core.result_decode",
}

#: Per-compile solver counters: metric -> ``result.statistics`` key.
SOLVER_COUNTS = {
    "smt.omt_rounds": "improvement_rounds",
    "smt.theory_checks": "theory_checks",
    "smt.theory_pivots": "theory_pivots",
    "sat.decisions": "sat_decisions",
    "sat.conflicts": "sat_conflicts",
    "sat.propagations": "sat_propagations",
}

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(self_ms: Dict[str, float], operations: int) -> Dict[str, float]:
    """Per-operation self time of every wrapped layer."""
    return {metric: _ratio(self_ms.get(span, 0.0), operations)
            for metric, span in SPAN_METRICS.items()}


def result_metrics(results: Iterable) -> Dict[str, float]:
    """Solver counts and pipeline counters, per compiled (non-hit) result."""
    totals = {key: 0.0 for key in SOLVER_COUNTS.values()}
    conflicts = checks = gates = chosen = candidates = 0.0
    compiled = 0
    for result in results:
        report = result.report
        if report is None or report.cache_hit:
            continue
        compiled += 1
        statistics = result.statistics
        for key in totals:
            totals[key] += _number(statistics.get(key))
        conflicts += _number(statistics.get("theory_conflicts"))
        checks += _number(statistics.get("theory_checks"))
        for stage in report.stages:
            if stage.name == "analyze_cost":
                gates += stage.counters.get("gates", 0.0)
            elif stage.name == "evaluate_rules":
                candidates += stage.counters.get("candidates", 0.0)
            elif stage.name == "solve":
                chosen += stage.counters.get("chosen", 0.0)
    metrics = {metric: _ratio(totals[key], compiled) for metric, key in SOLVER_COUNTS.items()}
    metrics["smt.theory_conflict_ratio"] = _ratio(conflicts, checks)
    metrics["sat.conflicts_per_kdecision"] = 1000.0 * _ratio(
        totals["sat_conflicts"], totals["sat_decisions"])
    metrics["pipeline.gates_out"] = _ratio(gates, compiled)
    metrics["pipeline.accept_ratio"] = _ratio(chosen, candidates)
    return metrics


def _number(value) -> float:
    """A numeric statistic as float; strings (strategy names) count 0."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return 0.0


def overhead_pct(untraced_rate: float, traced_rate: float) -> float:
    """How much slower the traced phase ran, percent of the traced rate."""
    return 100.0 * (_ratio(untraced_rate, traced_rate) - 1.0) if traced_rate else 0.0
