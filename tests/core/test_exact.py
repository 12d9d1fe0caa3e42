"""Exact substitution selection against the OMT reference (Eqs. 1-10).

Differential tests compare :class:`ExactSolver` with the converged OMT of
:class:`AdaptationModel` on seeded circuits outside the benchmark grid;
metamorphic tests check that the choice does not depend on the order of
the substitution list.
"""

import random

import pytest

import repro
from repro.core import (
    AdaptationModel,
    ExactSolver,
    OBJECTIVE_COMBINED,
    OBJECTIVE_FIDELITY,
    OBJECTIVE_IDLE,
    evaluate_rules,
    preprocess,
    standard_rules,
)
from repro.core import exact
from repro.hardware import spin_qubit_target
from repro.interop import suite_circuit
from repro.pipeline.passes import route_if_needed
from repro.resilience import Budget, CompileCancelled
from repro.resilience.budget import budget_scope
from repro.workloads import qft_circuit, quantum_volume_circuit, random_template_circuit

OBJECTIVES = (OBJECTIVE_FIDELITY, OBJECTIVE_IDLE, OBJECTIVE_COMBINED)

#: Seeds outside the benchmark grid (which uses 0-2).
RANDOM_SEEDS = range(100, 120)
QV_SEEDS = range(100, 108)


def _instance(circuit):
    target = spin_qubit_target(circuit.num_qubits, "D0")
    preprocessed = preprocess(route_if_needed(circuit, target), target)
    return preprocessed, evaluate_rules(preprocessed, standard_rules())


def _ids(solution):
    return sorted(s.identifier for s in solution.chosen_substitutions)


def _circuits():
    circuits = [random_template_circuit(2 + seed % 2, 6, seed=seed)
                for seed in RANDOM_SEEDS]
    circuits += [quantum_volume_circuit(2 + seed % 2, seed=seed) for seed in QV_SEEDS]
    return circuits


@pytest.fixture(scope="module", params=_circuits(), ids=lambda c: c.name)
def instance(request):
    return _instance(request.param)


class TestAgainstTheOmt:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_objective_equals_the_proven_omt_optimum(self, instance, objective):
        preprocessed, substitutions = instance
        reference = AdaptationModel(preprocessed, substitutions, objective=objective).solve()
        assert reference.statistics["optimality"] == "proven"
        solution = ExactSolver(preprocessed, substitutions, objective).solve()
        assert solution is not None
        assert solution.objective_value == reference.objective_value
        assert solution.statistics["selection"] == "exact"
        assert solution.statistics["optimality"] == "proven"

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_chosen_set_respects_eq1(self, instance, objective):
        preprocessed, substitutions = instance
        chosen = ExactSolver(preprocessed, substitutions, objective).solve().chosen_substitutions
        for index, first in enumerate(chosen):
            for second in chosen[index + 1:]:
                assert not first.conflicts_with(second)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_shuffled_substitutions_give_the_same_choice(self, instance, objective):
        preprocessed, substitutions = instance
        expected = _ids(ExactSolver(preprocessed, substitutions, objective).solve())
        for seed in range(3):
            shuffled = list(substitutions)
            random.Random(seed).shuffle(shuffled)
            assert _ids(ExactSolver(preprocessed, shuffled, objective).solve()) == expected


class TestNegativeBlockDurations:
    """Modelled durations go negative on these cells, so ``e_b >= 0`` binds.

    The pinned values are the OMT's converged optimum (400 rounds, proven),
    which takes 30-80 s per cell and so is not recomputed here.
    """

    @pytest.mark.parametrize("name, objective, value, ids", [
        ("qv_n4", OBJECTIVE_IDLE, -0.8655172413793103, [0, 5, 13, 16]),
        ("qv_n5", OBJECTIVE_COMBINED, -0.8742359837524188, [0, 5, 10, 13, 16]),
    ])
    def test_matches_the_converged_omt(self, name, objective, value, ids):
        preprocessed, substitutions = _instance(suite_circuit(name))
        solution = ExactSolver(preprocessed, substitutions, objective).solve()
        assert min(solution.block_durations.values()) < 0
        assert solution.objective_value == value
        assert _ids(solution) == ids
        assert min(solution.block_start_times.values()) >= 0


class TestSizeLimitAndFallback:
    def test_schedule_objectives_decline_above_the_limit(self):
        preprocessed, substitutions = _instance(qft_circuit(4))
        for objective in (OBJECTIVE_IDLE, OBJECTIVE_COMBINED):
            search = ExactSolver(preprocessed, substitutions, objective)
            assert search.solve() is None
            assert search.combinations > exact.MAX_COMBINATIONS
            assert search.nodes == 0

    def test_fidelity_is_exact_at_any_size(self):
        preprocessed, substitutions = _instance(qft_circuit(4))
        search = ExactSolver(preprocessed, substitutions, OBJECTIVE_FIDELITY)
        solution = search.solve()
        assert search.combinations > exact.MAX_COMBINATIONS
        assert solution is not None and solution.statistics["optimality"] == "proven"

    def test_compile_falls_back_to_the_omt_above_the_limit(self, monkeypatch):
        circuit = random_template_circuit(2, 6, seed=100)
        target = spin_qubit_target(2, "D0")
        exact_result = repro.compile(circuit, target, "sat_p", use_cache=False)
        monkeypatch.setattr(exact, "MAX_COMBINATIONS", 0)
        omt_result = repro.compile(circuit, target, "sat_p", use_cache=False)
        assert exact_result.statistics["selection"] == "exact"
        assert omt_result.statistics["selection"] == "omt"
        assert omt_result.statistics["optimality"] == "proven"
        assert omt_result.objective_value == exact_result.objective_value

    def test_cancelled_budget_stops_the_search(self):
        preprocessed, substitutions = _instance(random_template_circuit(2, 6, seed=100))
        budget = Budget()
        budget.cancel("test")
        with budget_scope(budget), pytest.raises(CompileCancelled) as caught:
            ExactSolver(preprocessed, substitutions, OBJECTIVE_COMBINED).solve()
        assert caught.value.checkpoint == "exact.search"


class TestOmtOptimalityLabel:
    def test_round_cap_is_labelled(self):
        # The converged search on this cell takes several rounds.
        preprocessed, substitutions = _instance(random_template_circuit(2, 10, seed=1))
        converged = AdaptationModel(preprocessed, substitutions, objective=OBJECTIVE_IDLE).solve()
        assert converged.statistics["optimality"] == "proven"
        assert converged.statistics["improvement_rounds"] > 1
        capped = AdaptationModel(preprocessed, substitutions, objective=OBJECTIVE_IDLE,
                                 max_improvement_rounds=1).solve()
        assert capped.statistics["optimality"] == "round_cap"
        assert capped.statistics["improvement_rounds"] == 1
