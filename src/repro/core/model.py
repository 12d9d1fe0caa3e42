"""SMT model for quantum circuit adaptation (Section IV.C).

The model contains, for a circuit with blocks ``B``, substitutions ``S`` and
block dependency graph ``G = (V, A)``:

* Boolean selection variables ``c_s`` (set ``C``),
* block start times ``e_b`` (set ``E``), durations ``d_b`` (set ``D``) and
  log-fidelities ``f_b`` (set ``F``),
* the mutual-exclusion clauses of Eq. (1),
* the precedence constraints of Eq. (2),
* the duration and fidelity definitions of Eqs. (3)-(6), encoded with one
  auxiliary real per (substitution, quantity) switched by ``c_s``,
* one of the objectives SAT_F (Eq. 8), SAT_R (Eq. 9) or SAT_P (Eq. 10).

Solving is delegated to :class:`repro.smt.Optimize` (the pure-Python OMT
solver standing in for Z3).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.preprocessing import PreprocessedCircuit
from repro.core.rules import Substitution
from repro.smt import And, Bool, CheckResult, Implies, Not, Optimize, Or, Real, RealVal, Sum

#: Objective maximizing the (log) circuit fidelity, Eq. (8).
OBJECTIVE_FIDELITY = "fidelity"
#: Objective minimizing the qubit idle time, Eq. (9).
OBJECTIVE_IDLE = "idle"
#: Combined objective, Eq. (10).
OBJECTIVE_COMBINED = "combined"

_OBJECTIVES = (OBJECTIVE_FIDELITY, OBJECTIVE_IDLE, OBJECTIVE_COMBINED)

#: Default cap on OMT objective-strengthening rounds.  Resolved at model
#: *build* time, so test fixtures can lower it globally (see
#: ``tests/conftest.py``) without touching call sites.  Overridable via
#: the ``REPRO_MAX_IMPROVEMENT_ROUNDS`` environment variable for batch /
#: CI runs that trade optimality for wall time.
DEFAULT_MAX_IMPROVEMENT_ROUNDS = int(
    os.environ.get("REPRO_MAX_IMPROVEMENT_ROUNDS", "400")
)


@dataclass
class ModelSolution:
    """Assignment extracted from the solved SMT model."""

    chosen_substitutions: List[Substitution]
    objective_value: Optional[float]
    block_durations: Dict[int, float]
    block_log_fidelities: Dict[int, float]
    #: Block start times: solver-assigned when the objective schedules
    #: blocks (idle/combined), otherwise the ASAP critical-path schedule.
    block_start_times: Dict[int, float]
    #: Circuit makespan: the solved schedule's makespan when available,
    #: otherwise the critical path of the block dependency graph.
    total_duration: float
    statistics: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form that round-trips exactly.

        Integer block indices become string keys under ``json.dumps``;
        :meth:`from_dict` restores them, so
        ``ModelSolution.from_dict(json.loads(json.dumps(sol.to_dict())))``
        reproduces durations, fidelities and the schedule bit-identically.
        """
        return {
            "chosen_substitutions": [s.to_dict() for s in self.chosen_substitutions],
            "objective_value": self.objective_value,
            "block_durations": {str(k): v for k, v in self.block_durations.items()},
            "block_log_fidelities": {
                str(k): v for k, v in self.block_log_fidelities.items()
            },
            "block_start_times": {str(k): v for k, v in self.block_start_times.items()},
            "total_duration": self.total_duration,
            "statistics": dict(self.statistics),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "ModelSolution":
        """Inverse of :meth:`to_dict`."""
        objective = payload.get("objective_value")
        return ModelSolution(
            chosen_substitutions=[
                Substitution.from_dict(s)
                for s in payload.get("chosen_substitutions", [])
            ],
            objective_value=float(objective) if objective is not None else None,
            block_durations={
                int(k): float(v) for k, v in payload["block_durations"].items()
            },
            block_log_fidelities={
                int(k): float(v) for k, v in payload["block_log_fidelities"].items()
            },
            block_start_times={
                int(k): float(v) for k, v in payload["block_start_times"].items()
            },
            total_duration=float(payload["total_duration"]),
            statistics=dict(payload.get("statistics", {})),
        )


class AdaptationModel:
    """Builds and solves the SMT adaptation model for one circuit."""

    def __init__(
        self,
        preprocessed: PreprocessedCircuit,
        substitutions: Sequence[Substitution],
        objective: str = OBJECTIVE_COMBINED,
        max_improvement_rounds: Optional[int] = None,
    ) -> None:
        if objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}")
        self.preprocessed = preprocessed
        self.substitutions = list(substitutions)
        self.objective = objective
        self.max_improvement_rounds = max_improvement_rounds
        self._optimizer: Optional[Optimize] = None

    # ------------------------------------------------------------------
    def build(self) -> Optimize:
        """Construct the SMT model and return the underlying optimizer."""
        rounds = (
            self.max_improvement_rounds
            if self.max_improvement_rounds is not None
            else DEFAULT_MAX_IMPROVEMENT_ROUNDS
        )
        optimizer = Optimize(max_improvement_rounds=rounds)
        blocks = self.preprocessed.blocks
        coherence_time = self.preprocessed.target.t2

        choose = {s.identifier: Bool(f"c{s.identifier}") for s in self.substitutions}

        # Eq. (1): substitutions replacing a common gate are mutually exclusive.
        for first_index, first in enumerate(self.substitutions):
            for second in self.substitutions[first_index + 1 :]:
                if first.conflicts_with(second):
                    optimizer.add(
                        Or(Not(choose[first.identifier]), Not(choose[second.identifier]))
                    )

        # Eqs. (3)-(6): block duration and fidelity as affine functions of the
        # chosen substitutions, via one switched auxiliary real per delta.
        duration_vars = {}
        fidelity_vars = {}
        start_vars = {}
        needs_schedule = self.objective in (OBJECTIVE_IDLE, OBJECTIVE_COMBINED)
        needs_fidelity = self.objective in (OBJECTIVE_FIDELITY, OBJECTIVE_COMBINED)

        by_block: Dict[int, List[Substitution]] = {}
        for substitution in self.substitutions:
            by_block.setdefault(substitution.block_index, []).append(substitution)

        for preprocessed_block in blocks:
            index = preprocessed_block.index
            block_subs = by_block.get(index, [])
            duration_var = Real(f"d{index}")
            duration_vars[index] = duration_var
            duration_terms = [RealVal(preprocessed_block.reference_duration)]
            for substitution in block_subs:
                switch = Real(f"yd{substitution.identifier}")
                optimizer.add(
                    Implies(
                        choose[substitution.identifier],
                        switch.eq(RealVal(substitution.duration_delta)),
                    ),
                    Implies(Not(choose[substitution.identifier]), switch.eq(RealVal(0))),
                )
                duration_terms.append(switch)
            optimizer.add(duration_var.eq(Sum(duration_terms)))

            if needs_fidelity:
                fidelity_var = Real(f"f{index}")
                fidelity_vars[index] = fidelity_var
                fidelity_terms = [RealVal(preprocessed_block.reference_log_fidelity)]
                for substitution in block_subs:
                    switch = Real(f"yf{substitution.identifier}")
                    optimizer.add(
                        Implies(
                            choose[substitution.identifier],
                            switch.eq(RealVal(substitution.log_fidelity_delta)),
                        ),
                        Implies(Not(choose[substitution.identifier]), switch.eq(RealVal(0))),
                    )
                    fidelity_terms.append(switch)
                optimizer.add(fidelity_var.eq(Sum(fidelity_terms)))

        # Eq. (2): block precedence, plus the makespan definition.
        makespan = Real("makespan")
        if needs_schedule:
            for preprocessed_block in blocks:
                index = preprocessed_block.index
                start_var = Real(f"e{index}")
                start_vars[index] = start_var
                optimizer.add(start_var >= RealVal(0))
                optimizer.add(makespan >= start_var + duration_vars[index])
            for source, destination in self.preprocessed.dependency_graph.edges:
                optimizer.add(
                    start_vars[destination] >= start_vars[source] + duration_vars[source]
                )

        # Objective functions, Eqs. (8)-(10).
        active_qubits = max(1, len(self.preprocessed.circuit.qubits_used()))
        if self.objective == OBJECTIVE_FIDELITY:
            objective_expr = Sum(fidelity_vars.values())
        elif self.objective == OBJECTIVE_IDLE:
            objective_expr = (
                Sum(duration_vars.values()) - RealVal(active_qubits) * makespan
            ) / coherence_time
        else:
            objective_expr = Sum(fidelity_vars.values()) + (
                Sum(duration_vars.values()) - RealVal(active_qubits) * makespan
            ) / coherence_time
        self._objective_handle = optimizer.maximize(objective_expr)

        self._choose = choose
        self._duration_vars = duration_vars
        self._fidelity_vars = fidelity_vars
        self._start_vars = start_vars
        self._makespan = makespan
        self._optimizer = optimizer
        return optimizer

    # ------------------------------------------------------------------
    def solve(self) -> ModelSolution:
        """Build (if necessary) and solve the model, returning the assignment."""
        if self._optimizer is None:
            self.build()
        optimizer = self._optimizer
        assert optimizer is not None
        result = optimizer.check()
        if result != CheckResult.SAT:
            raise RuntimeError(f"adaptation model unexpectedly {result.value}")
        model = optimizer.model()

        chosen = [
            substitution
            for substitution in self.substitutions
            if model.eval_bool(f"c{substitution.identifier}")
        ]
        durations = {
            index: float(model.eval_linear(var)) for index, var in self._duration_vars.items()
        }
        fidelities = {
            index: float(model.eval_linear(var)) for index, var in self._fidelity_vars.items()
        }
        if self._start_vars:
            starts = {
                index: float(model.eval_linear(var))
                for index, var in self._start_vars.items()
            }
            total_duration = float(model.eval_linear(self._makespan))
        else:
            # The fidelity objective builds no schedule variables; derive
            # the makespan from the critical path of the dependency graph.
            starts, total_duration = critical_path_schedule(
                self.preprocessed.dependency_graph, durations)
        try:
            objective_value: Optional[float] = float(self._objective_handle.value())
        except RuntimeError:
            objective_value = None
        return ModelSolution(
            chosen_substitutions=chosen,
            objective_value=objective_value,
            block_durations=durations,
            block_log_fidelities=fidelities,
            block_start_times=starts,
            total_duration=total_duration,
            statistics={"selection": "omt", **optimizer.statistics()},
        )


def critical_path_schedule(
    graph: nx.DiGraph, durations: Dict[int, float]
) -> Tuple[Dict[int, float], float]:
    """ASAP schedule of the block dependency DAG for solved durations."""
    starts: Dict[int, float] = {}
    finish: Dict[int, float] = {}
    for node in nx.topological_sort(graph):
        start = max((finish[p] for p in graph.predecessors(node)), default=0.0)
        starts[node] = start
        finish[node] = start + durations.get(node, 0.0)
    # Blocks absent from the graph (none in practice) still count.
    for index, duration in durations.items():
        if index not in finish:
            starts[index] = 0.0
            finish[index] = duration
    return starts, max(finish.values(), default=0.0)
