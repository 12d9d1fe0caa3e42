"""Event-schema validation and the ``python -m repro.trace`` reader."""

import json

import pytest

import repro
from repro.hardware import spin_qubit_target
from repro.trace import (
    TraceValidationError,
    diff_summaries,
    load_events,
    pass_totals,
    summarize,
    validate_event,
    validate_trace,
)
from repro.trace.__main__ import main as trace_main
from repro.workloads import ghz_circuit


def _event(**overrides):
    event = {
        "kind": "point",
        "ts": 1.0,
        "name": "x",
        "layer": "api",
        "pid": 1,
        "tid": 1,
        "span": None,
        "fields": {},
    }
    event.update(overrides)
    return event


class TestValidateEvent:
    def test_accepts_a_well_formed_event(self):
        validate_event(_event())

    @pytest.mark.parametrize("missing", [
        "kind", "ts", "name", "layer", "pid", "tid", "span", "fields",
    ])
    def test_rejects_missing_required_key(self, missing):
        event = _event()
        del event[missing]
        with pytest.raises(TraceValidationError, match=missing):
            validate_event(event)

    def test_rejects_unknown_kind_and_layer(self):
        with pytest.raises(TraceValidationError):
            validate_event(_event(kind="bogus"))
        with pytest.raises(TraceValidationError):
            validate_event(_event(layer="bogus"))

    def test_rejects_kind_specific_key_omissions(self):
        with pytest.raises(TraceValidationError):  # begin needs parent
            validate_event(_event(kind="begin", span=1))
        with pytest.raises(TraceValidationError):  # end needs dur
            validate_event(_event(kind="end", span=1))
        with pytest.raises(TraceValidationError):  # meta needs wall
            validate_event(_event(kind="meta"))

    def test_rejects_non_dict_fields(self):
        with pytest.raises(TraceValidationError):
            validate_event(_event(fields=[1, 2]))


class TestValidateTrace:
    def _begin(self, span, ts, parent=None, tid=1):
        return _event(kind="begin", span=span, parent=parent, ts=ts,
                      tid=tid, name=f"s{span}")

    def _end(self, span, ts, tid=1):
        return _event(kind="end", span=span, dur=0.0, ts=ts, tid=tid,
                      name=f"s{span}")

    def test_accepts_nested_spans(self):
        events = [
            self._begin(1, 0.0),
            self._begin(2, 0.1, parent=1),
            self._end(2, 0.2),
            self._end(1, 0.3),
        ]
        assert validate_trace(events) == 4

    def test_rejects_non_lifo_span_closing(self):
        events = [
            self._begin(1, 0.0),
            self._begin(2, 0.1, parent=1),
            self._end(1, 0.2),
        ]
        with pytest.raises(TraceValidationError, match="innermost"):
            validate_trace(events)

    def test_rejects_unknown_parent(self):
        with pytest.raises(TraceValidationError, match="parent"):
            validate_trace([self._begin(2, 0.0, parent=99)])

    def test_rejects_non_monotonic_timestamps_within_a_thread(self):
        events = [self._begin(1, 1.0), self._end(1, 0.5)]
        with pytest.raises(TraceValidationError, match="backwards"):
            validate_trace(events)

    def test_allows_cross_thread_parenting_after_parent_ended(self):
        """A job span may parent under a submit span that already closed."""
        events = [
            self._begin(1, 0.0, tid=1),
            self._end(1, 0.1, tid=1),
            self._begin(2, 0.2, parent=1, tid=2),
            self._end(2, 0.3, tid=2),
        ]
        assert validate_trace(events) == 4


@pytest.fixture(scope="module")
def traced_compile(tmp_path_factory):
    """One real traced compilation shared by the reader tests."""
    path = str(tmp_path_factory.mktemp("trace") / "compile.jsonl")
    circuit = ghz_circuit(3)
    target = spin_qubit_target(3, "D0")
    result = repro.compile(circuit, target, "sat_p", use_cache=False,
                           trace=path)
    return path, result


class TestSummarize:
    def test_summary_covers_api_pipeline_and_solver_layers(self, traced_compile):
        path, _ = traced_compile
        summary = summarize(load_events(path))
        assert {"api", "pipeline", "solver"} <= set(summary["layers"])
        assert summary["unclosed_spans"] == 0

    def test_pass_totals_agree_with_the_compilation_report(self, traced_compile):
        """Acceptance: reader per-pass totals within 10% of stage_seconds."""
        path, result = traced_compile
        totals = pass_totals(summarize(load_events(path)))
        stage_seconds = result.report.stage_seconds()
        assert set(totals) == set(stage_seconds)
        for stage, reported in stage_seconds.items():
            traced = totals[stage]
            tolerance = 0.10 * max(reported, traced) + 2e-3
            assert abs(traced - reported) <= tolerance, (
                f"{stage}: trace {traced:.6f}s vs report {reported:.6f}s"
            )

    def test_solver_rollup_accumulates_sampled_deltas(self, tmp_path, monkeypatch):
        from repro.core import exact

        # The OMT emits the omt.round events; a zero limit routes SAT_P to it.
        monkeypatch.setattr(exact, "MAX_COMBINATIONS", 0)
        path = str(tmp_path / "omt.jsonl")
        repro.compile(ghz_circuit(3), spin_qubit_target(3, "D0"), "sat_p",
                      use_cache=False, trace=path)
        solver = summarize(load_events(path))["solver"]
        rounds = solver.get("omt.round", {})
        assert rounds.get("count", 0) >= 1
        assert rounds.get("d_rounds", 0) >= rounds["count"]

    def test_techniques_block_groups_passes_by_technique(self, traced_compile):
        path, _ = traced_compile
        techniques = summarize(load_events(path))["techniques"]
        assert "sat_p" in techniques
        assert "solve" in techniques["sat_p"]


class TestCli:
    def test_text_summary_mentions_every_layer(self, traced_compile, capsys):
        path, _ = traced_compile
        assert trace_main([path]) == 0
        out = capsys.readouterr().out
        for token in ("api", "pipeline", "solver", "pass", "slowest"):
            assert token in out

    def test_json_output_round_trips(self, traced_compile, capsys):
        path, _ = traced_compile
        assert trace_main([path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] > 0

    def test_validate_flag_passes_on_a_real_trace(self, traced_compile, capsys):
        path, _ = traced_compile
        assert trace_main([path, "--validate"]) == 0
        assert "per-stage latency" in capsys.readouterr().out

    def test_validate_flag_fails_on_a_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(_event(kind="begin", span=1, parent=99))
                       + "\n")
        assert trace_main([str(bad), "--validate"]) == 1

    def test_diff_mode_reports_per_stage_deltas(self, traced_compile, capsys):
        path, _ = traced_compile
        assert trace_main(["--diff", path, path]) == 0
        out = capsys.readouterr().out
        assert "pipeline:pass:solve" in out

    def test_diff_summaries_of_identical_traces_is_zero(self, traced_compile):
        path, _ = traced_compile
        summary = summarize(load_events(path))
        diff = diff_summaries(summary, summary)
        assert diff["stages"]
        for row in diff["stages"]:
            if "delta_ms" in row:
                assert row["delta_ms"] == pytest.approx(0.0)

    def test_torn_final_line_is_tolerated(self, traced_compile):
        path, _ = traced_compile
        events = load_events(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "point", "ts"')  # interrupted writer
        assert len(load_events(path)) == len(events)
