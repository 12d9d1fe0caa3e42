"""Budgets: deadlines, work limits, cancellation and the ambient scope."""

import threading
import time

import pytest

import repro
from repro.api import clear_compilation_cache, compilation_cache_info
from repro.hardware import spin_qubit_target
from repro.resilience import (
    Budget,
    CompileCancelled,
    CompileDeadlineExceeded,
    CompileInterrupted,
)
from repro.resilience.budget import budget_scope, check_budget, current_budget
from repro.resilience.degrade import DEFAULT_LADDERS
from repro.workloads import ghz_circuit, qft_circuit


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compilation_cache()
    yield
    clear_compilation_cache()


class TestBudgetUnit:
    def test_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            Budget(timeout=-1.0)
        with pytest.raises(ValueError, match="on_deadline"):
            Budget(on_deadline="panic")

    def test_unbounded_budget_never_fires(self):
        budget = Budget()
        assert budget.remaining() is None
        assert not budget.expired
        for _ in range(100):
            budget.check("loop")
        assert budget.checks == 100

    def test_zero_timeout_fires_at_first_checkpoint(self):
        budget = Budget(timeout=0.0)
        assert budget.expired
        with pytest.raises(CompileDeadlineExceeded) as excinfo:
            budget.check("pass:route")
        assert excinfo.value.checkpoint == "pass:route"
        assert excinfo.value.reason == "deadline"
        assert excinfo.value.elapsed is not None

    def test_unarmed_budget_starts_ticking_only_at_arm(self):
        budget = Budget(timeout=0.0, arm=False)
        budget.check("queued")  # no deadline while unarmed
        budget.arm()
        with pytest.raises(CompileDeadlineExceeded):
            budget.check("running")

    def test_cancel_interrupts_even_an_unarmed_budget(self):
        budget = Budget(timeout=100.0, arm=False)
        budget.cancel("caller gave up")
        with pytest.raises(CompileCancelled, match="caller gave up"):
            budget.check("queued")

    def test_cancel_from_another_thread(self):
        budget = Budget()
        threading.Thread(target=budget.cancel, args=("bye",)).start()
        deadline = time.monotonic() + 5.0
        with pytest.raises(CompileCancelled):
            while time.monotonic() < deadline:
                budget.check("spin")
        assert budget.cancel_reason() == "bye"

    def test_parent_cancellation_propagates_not_its_deadline(self):
        parent = Budget(timeout=0.0)
        child = Budget(timeout=100.0, parent=parent)
        child.check("rung")  # the parent's expired deadline is ignored
        parent.cancel()
        assert child.cancelled
        with pytest.raises(CompileCancelled):
            child.check("rung")

    @pytest.mark.parametrize(
        "kwargs, charge",
        [
            ({"max_conflicts": 5}, {"conflicts": 5}),
            ({"max_pivots": 3}, {"pivots": 3}),
            ({"max_rounds": 2}, {"rounds": 2}),
        ],
    )
    def test_work_limits(self, kwargs, charge):
        budget = Budget(**kwargs)
        with pytest.raises(CompileDeadlineExceeded, match="budget"):
            budget.charge("solver", **charge)

    def test_event_payload_is_json_shaped(self):
        budget = Budget(timeout=0.0, max_conflicts=10)
        try:
            budget.check("pass:route")
        except CompileInterrupted as error:
            event = error.event()
        assert event["reason"] == "deadline"
        assert event["checkpoint"] == "pass:route"
        assert event["elapsed_seconds"] >= 0
        assert event["budget"]["timeout"] == 0.0
        assert event["budget"]["max_conflicts"] == 10


class TestAmbientScope:
    def test_no_scope_is_a_cheap_no_op(self):
        assert current_budget() is None
        check_budget("anywhere")  # must not raise

    def test_scope_installs_and_restores(self):
        budget = Budget(timeout=100.0)
        with budget_scope(budget):
            assert current_budget() is budget
            check_budget("inside")
        assert current_budget() is None
        assert budget.checks == 1

    def test_scope_none_is_a_no_op(self):
        with budget_scope(None):
            assert current_budget() is None

    def test_inner_scope_replaces_outer(self):
        outer, inner = Budget(timeout=0.0), Budget(timeout=100.0)
        with budget_scope(outer):
            with budget_scope(inner):
                check_budget("inner")  # the expired outer is shadowed
            with pytest.raises(CompileDeadlineExceeded):
                check_budget("outer")

    def test_ambient_budget_raises_through_check_budget(self):
        with budget_scope(Budget(timeout=0.0)):
            with pytest.raises(CompileDeadlineExceeded):
                check_budget("hot-loop")


class TestCompileDeadlines:
    @pytest.mark.parametrize("technique", sorted(DEFAULT_LADDERS))
    def test_zero_deadline_fires_for_every_technique(self, technique):
        """Every registered technique honors the budget checkpoints."""
        circuit = ghz_circuit(3)
        target = spin_qubit_target(3, "D0")
        with pytest.raises(CompileDeadlineExceeded) as excinfo:
            repro.compile(circuit, target, technique, timeout=0.0,
                          use_cache=False)
        assert excinfo.value.checkpoint

    def test_generous_deadline_compiles_normally(self):
        result = repro.compile(ghz_circuit(3), spin_qubit_target(3, "D0"),
                               "direct", timeout=300.0, use_cache=False)
        assert result.technique == "direct"
        assert result.report.degraded_from is None

    def test_deadline_parameters_stay_out_of_the_cache_key(self):
        circuit, target = ghz_circuit(3), spin_qubit_target(3, "D0")
        repro.compile(circuit, target, "direct")
        hits_before = compilation_cache_info().hits
        result = repro.compile(circuit, target, "direct", timeout=300.0,
                               on_deadline="degrade", fallback="direct")
        assert compilation_cache_info().hits == hits_before + 1
        assert result.report.degraded_from is None

    def test_cancel_interrupts_a_running_solve(self):
        """A long SAT solve unwinds within moments of a cross-thread cancel."""
        from repro.core import ExactSolver, evaluate_rules, preprocess, standard_rules
        from repro.core.exact import MAX_COMBINATIONS
        from repro.pipeline.passes import route_if_needed

        # The input must stay too large for exact enumeration, or the
        # solve is over before the cancel arrives.
        target = spin_qubit_target(4, "D0")
        preprocessed = preprocess(route_if_needed(qft_circuit(4), target), target)
        search = ExactSolver(preprocessed, evaluate_rules(preprocessed, standard_rules()),
                             "combined")
        assert search.solve() is None
        assert search.combinations > MAX_COMBINATIONS
        budget = Budget()
        caught = []

        def solve():
            try:
                with budget_scope(budget):
                    repro.compile(qft_circuit(4), spin_qubit_target(4, "D0"),
                                  "sat_p", use_cache=False)
            except CompileCancelled as error:
                caught.append(error)

        thread = threading.Thread(target=solve)
        thread.start()
        time.sleep(0.5)  # let it get deep into the solver
        budget.cancel("test teardown")
        thread.join(timeout=30)
        assert not thread.is_alive(), "cancel did not interrupt the solve"
        assert caught and caught[0].reason == "cancelled"
