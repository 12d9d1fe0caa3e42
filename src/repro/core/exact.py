"""Exact substitution selection for small adaptation models (Eqs. 1-10).

The SMT model of :mod:`repro.core.model` couples blocks only weakly:

* the Eq. (1) exclusions never cross a block, so each block's choices are
  the subsets of its substitutions that share no substituted gate;
* Eqs. (3)-(6) make a block's duration and log-fidelity depend only on
  the sum of its chosen deltas, so subsets with equal (duration, fidelity)
  deltas are interchangeable and collapse into one *option*;
* SAT_F (Eq. 8) is a sum over blocks, and SAT_R / SAT_P (Eqs. 9, 10) add
  only the makespan on top of per-block sums.

:class:`ExactSolver` exploits this.  SAT_F takes each block's best option,
which is exact at any size.  SAT_R and SAT_P run a depth-first search over
the option product in topological block order, with incremental finish
times and a separable upper bound, when the product is at most
:data:`MAX_COMBINATIONS`; larger instances return ``None`` and the caller
falls back to the OMT of :class:`repro.core.model.AdaptationModel`.

The schedule is the model's: start times ``e_b >= 0``, the Eq. (2)
precedences, and makespan ``max(e_b + d_b)``.  Block durations can be
negative (the deltas are serial gate-time sums while the reference is a
critical path), so ``e_b >= 0`` is binding.  Every constant goes through
:func:`repro.smt.rational.to_fraction`, as in the OMT, and the search
compares objective values scaled to a common integer denominator, which
orders them exactly as Fraction comparisons would.

Equal objective values are broken by the lower makespan, then fewer gates
in the adapted circuit, then the smaller sorted tuple of substitution ids,
so the choice does not depend on the order of the substitution list.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import networkx as nx

from repro.core.model import (
    OBJECTIVE_FIDELITY,
    OBJECTIVE_IDLE,
    ModelSolution,
    critical_path_schedule,
)
from repro.core.preprocessing import PreprocessedCircuit
from repro.core.rules import Substitution
from repro.probe import current_probe
from repro.smt.rational import to_fraction
from repro.transpiler.basis import translate_instruction_to_cz

#: Largest SAT_R / SAT_P option product searched exactly.  The search
#: visits at most about twice this many nodes, at 250k-660k nodes/s on a
#: 2-vCPU VM (Python 3.11), so under a second; the OMT takes seconds to
#: minutes on the suite models just above the limit.
MAX_COMBINATIONS = 100_000
#: Largest number of Eq. (1)-respecting subsets enumerated in one block.
MAX_BLOCK_SUBSETS = 4_096
#: Search nodes between two ``exact_nodes`` probe milestones.
NODE_BATCH = 512
#: ``combinations`` saturates here, so the counter stays a 64-bit integer.
COUNTER_CEILING = 2 ** 63 - 1


class _TooLarge(Exception):
    """A block has more non-conflicting subsets than MAX_BLOCK_SUBSETS."""


class _Option(NamedTuple):
    """One collapsed (duration, log-fidelity) choice of a block."""

    duration: Fraction
    log_fidelity: Fraction
    gates: int
    ids: Tuple[int, ...]


class _Constants:
    """Per-solve memo of float -> Fraction conversions and gate counts."""

    def __init__(self, target) -> None:
        self.target = target
        self._fractions: Dict[float, Fraction] = {}
        self._gates: Dict[str, int] = {}

    def fraction(self, value: float) -> Fraction:
        """``to_fraction(value)``, the conversion the OMT applies."""
        if value not in self._fractions:
            self._fractions[value] = to_fraction(value)
        return self._fractions[value]

    def gates(self, instruction) -> int:
        """Gates a block position contributes when no substitution covers it
        (the translation length depends on the gate name only)."""
        if len(instruction.qubits) == 1 or self.target.supports(instruction.name):
            return 1
        if instruction.name not in self._gates:
            self._gates[instruction.name] = len(translate_instruction_to_cz(instruction))
        return self._gates[instruction.name]


def _block_options(block, substitutions: Sequence[Substitution],
                   constants: _Constants) -> List[_Option]:
    """Collapse a block's non-conflicting subsets into distinct options.

    A merged option keeps the subset with the fewest substitutions, then
    the smallest sorted id tuple, as its representative.
    """
    subs = sorted(substitutions, key=lambda s: s.identifier)
    positions = [frozenset(s.substituted_positions) for s in subs]
    # Deltas as integers over one denominator per quantity, so subset sums
    # are exact without Fraction arithmetic.
    durations, duration_scale = _scaled([constants.fraction(s.duration_delta) for s in subs])
    fidelities, fidelity_scale = _scaled(
        [constants.fraction(s.log_fidelity_delta) for s in subs])
    gates = [
        len(s.replacement) - sum(constants.gates(block.instructions[p])
                                 for p in s.substituted_positions)
        for s in subs
    ]

    best: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...], int]] = {}
    visited = 0

    def extend(start, used, ids, duration, fidelity, gate_delta):
        nonlocal visited
        visited += 1
        # Every subset of ``ids`` is enumerated too, so a deep branch
        # alone proves the block too large (and bounds the recursion).
        if visited > MAX_BLOCK_SUBSETS or 2 ** len(ids) > MAX_BLOCK_SUBSETS:
            raise _TooLarge
        key = (duration, fidelity)
        rank = (len(ids), ids, gate_delta)
        if key not in best or rank < best[key]:
            best[key] = rank
        for index in range(start, len(subs)):
            if used.isdisjoint(positions[index]):
                extend(index + 1, used | positions[index], ids + (subs[index].identifier,),
                       duration + durations[index], fidelity + fidelities[index],
                       gate_delta + gates[index])

    extend(0, frozenset(), (), 0, 0, 0)
    return [_Option(Fraction(duration, duration_scale), Fraction(fidelity, fidelity_scale),
                    gate_delta, ids)
            for (duration, fidelity), (_, ids, gate_delta) in best.items()]


def _scaled(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """``values`` as integer numerators over their least common denominator."""
    scale = math.lcm(*(value.denominator for value in values))
    return [int(value * scale) for value in values], scale


class ExactSolver:
    """Exact optimum of the Eq. 8/9/10 model, or ``None`` when too large.

    ``options``, ``combinations`` and ``nodes`` count the collapsed
    options over all blocks, their product, and the search nodes visited;
    they are set even when :meth:`solve` declines.
    """

    def __init__(
        self,
        preprocessed: PreprocessedCircuit,
        substitutions: Sequence[Substitution],
        objective: str,
    ) -> None:
        self.preprocessed = preprocessed
        self.substitutions = list(substitutions)
        self.objective = objective
        self.options = 0
        self.combinations = 0
        self.nodes = 0

    def counters(self) -> Dict[str, int]:
        """The search-size counters as a plain dict."""
        return {"options": self.options, "combinations": self.combinations,
                "nodes": self.nodes}

    # ------------------------------------------------------------------
    def solve(self) -> Optional[ModelSolution]:
        """Solve exactly, or return ``None`` to defer to the OMT."""
        probe = current_probe()
        if probe is not None:
            probe.exact_nodes(0)
        blocks = self.preprocessed.blocks
        schedules = self.objective != OBJECTIVE_FIDELITY
        if schedules and not blocks:
            return None  # No block bounds the makespan: leave it to the OMT.
        by_block: Dict[int, List[Substitution]] = {}
        for substitution in self.substitutions:
            by_block.setdefault(substitution.block_index, []).append(substitution)
        constants = _Constants(self.preprocessed.target)
        try:
            options = {
                block.index: _block_options(block.block, by_block.get(block.index, []),
                                            constants)
                for block in blocks
            }
        except _TooLarge:
            return None
        self.options = sum(len(choices) for choices in options.values())
        self.combinations = min(COUNTER_CEILING,
                                math.prod(len(choices) for choices in options.values()))
        if schedules:
            if self.combinations > MAX_COMBINATIONS:
                return None
            picks = self._search(options, probe)
        else:
            picks = {index: min(choices, key=lambda o: (-o.log_fidelity, o.duration,
                                                        o.gates, o.ids))
                     for index, choices in options.items()}
            self.nodes = self.options
        return self._solution(picks)

    # ------------------------------------------------------------------
    def _order(self) -> List[int]:
        graph = self.preprocessed.dependency_graph
        ordered = list(nx.lexicographical_topological_sort(graph))
        seen = set(ordered)
        ordered.extend(b.index for b in self.preprocessed.blocks if b.index not in seen)
        return ordered

    def _search(self, options: Dict[int, List[_Option]], probe) -> Dict[int, _Option]:
        """Branch and bound over the option product (SAT_R / SAT_P).

        With ``T`` the coherence time, ``T * objective`` is the sum of
        per-block weights ``w = T * f_b + d_b`` (``d_b`` alone for SAT_R)
        minus ``q * makespan``.  All weights and durations are scaled by
        the common denominator ``scale`` to integers.
        """
        preprocessed = self.preprocessed
        coherence = to_fraction(preprocessed.target.t2)
        with_fidelity = self.objective != OBJECTIVE_IDLE
        reference = {b.index: b for b in preprocessed.blocks}
        order = self._order()
        position = {index: slot for slot, index in enumerate(order)}

        exact_weights = {}
        exact_durations = {}
        for index in order:
            block = reference[index]
            base_duration = to_fraction(block.reference_duration)
            base_fidelity = to_fraction(block.reference_log_fidelity)
            exact_durations[index] = [base_duration + o.duration for o in options[index]]
            exact_weights[index] = [
                d + (coherence * (base_fidelity + o.log_fidelity) if with_fidelity else 0)
                for d, o in zip(exact_durations[index], options[index])
            ]
        scale = math.lcm(*(value.denominator for index in order
                           for value in exact_weights[index] + exact_durations[index]))

        # Per slot: (weight, duration, option) sorted best weight first.
        levels = []
        for index in order:
            levels.append(sorted(
                ((int(w * scale), int(d * scale), o)
                 for w, d, o in zip(exact_weights[index], exact_durations[index],
                                    options[index])),
                key=lambda item: -item[0]))
        graph = preprocessed.dependency_graph
        predecessors = [
            [position[p] for p in graph.predecessors(index)] if index in graph else []
            for index in order
        ]
        remaining = [0] * (len(order) + 1)
        for slot in range(len(order) - 1, -1, -1):
            remaining[slot] = remaining[slot + 1] + levels[slot][0][0]
        qubits = max(1, len(preprocessed.circuit.qubits_used()))

        finish = [0] * len(order)
        chosen: List[Optional[_Option]] = [None] * len(order)
        depth = len(order)
        # The incumbent's (-score, makespan, gates, sorted ids): smaller wins.
        best_key: Optional[tuple] = None
        best_picks: List[_Option] = []

        def leaf(weight, makespan):
            nonlocal best_key, best_picks
            loss = qubits * makespan - weight
            # Gates and ids only break exact ties, so build them lazily.
            if best_key is not None and (loss, makespan) > best_key[:2]:
                return
            key = (loss, makespan, sum(o.gates for o in chosen),
                   tuple(sorted(i for o in chosen for i in o.ids)))
            if best_key is None or key < best_key:
                best_key, best_picks = key, list(chosen)

        def visit(slot, weight, makespan):
            # Single-option blocks are assigned in this loop rather than
            # by recursion, so the recursion depth is the number of
            # branching blocks (at most log2(MAX_COMBINATIONS)).
            while True:
                self.nodes += 1
                if probe is not None and self.nodes % NODE_BATCH == 0:
                    probe.exact_nodes(self.nodes)
                if slot == depth:
                    leaf(weight, makespan)
                    return
                if (best_key is not None
                        and qubits * makespan - weight - remaining[slot] > best_key[0]):
                    return
                start = max(0, max((finish[p] for p in predecessors[slot]), default=0))
                level = levels[slot]
                if len(level) > 1:
                    break
                option_weight, duration, chosen[slot] = level[0]
                finish[slot] = start + duration
                weight += option_weight
                makespan = max(makespan, finish[slot])
                slot += 1
            for option_weight, duration, option in level:
                finish[slot] = start + duration
                chosen[slot] = option
                visit(slot + 1, weight + option_weight, max(makespan, finish[slot]))

        # The makespan starts below every finish time: max(e_b + d_b)
        # over the blocks may be negative.
        floor = min(min(item[1] for item in level) for level in levels)
        visit(0, 0, floor)
        return dict(zip(order, best_picks))

    # ------------------------------------------------------------------
    def _solution(self, picks: Dict[int, _Option]) -> ModelSolution:
        """The :class:`ModelSolution` the OMT would report for ``picks``."""
        preprocessed = self.preprocessed
        chosen_ids = {i for option in picks.values() for i in option.ids}
        chosen = [s for s in self.substitutions if s.identifier in chosen_ids]
        durations = {}
        fidelities = {}
        for block in preprocessed.blocks:
            option = picks[block.index]
            durations[block.index] = to_fraction(block.reference_duration) + option.duration
            fidelities[block.index] = (to_fraction(block.reference_log_fidelity)
                                       + option.log_fidelity)
        fidelity_total = sum(fidelities.values(), Fraction(0))
        if self.objective == OBJECTIVE_FIDELITY:
            starts, total_duration = critical_path_schedule(
                preprocessed.dependency_graph,
                {index: float(value) for index, value in durations.items()})
            objective = fidelity_total
        else:
            exact_starts, makespan = _asap(preprocessed.dependency_graph, durations)
            starts = {index: float(value) for index, value in exact_starts.items()}
            total_duration = float(makespan)
            qubits = max(1, len(preprocessed.circuit.qubits_used()))
            objective = ((sum(durations.values(), Fraction(0)) - qubits * makespan)
                         / to_fraction(preprocessed.target.t2))
            if self.objective != OBJECTIVE_IDLE:
                objective += fidelity_total
        return ModelSolution(
            chosen_substitutions=chosen,
            objective_value=float(objective),
            block_durations={index: float(value) for index, value in durations.items()},
            block_log_fidelities=(
                {} if self.objective == OBJECTIVE_IDLE
                else {index: float(value) for index, value in fidelities.items()}),
            block_start_times=starts,
            total_duration=total_duration,
            statistics={
                "selection": "exact",
                "optimality": "proven",
                "blocks": len(preprocessed.blocks),
                "candidates": len(self.substitutions),
                **self.counters(),
            },
        )


def _asap(graph: nx.DiGraph, durations: Dict[int, Fraction]) -> Tuple[Dict[int, Fraction], Fraction]:
    """Earliest start times with ``e_b >= 0`` and the resulting makespan."""
    starts: Dict[int, Fraction] = {}
    finish: Dict[int, Fraction] = {}
    for node in nx.topological_sort(graph):
        start = max((finish[p] for p in graph.predecessors(node)), default=Fraction(0))
        starts[node] = max(start, Fraction(0))
        finish[node] = starts[node] + durations[node]
    for index, duration in durations.items():
        if index not in finish:
            starts[index] = Fraction(0)
            finish[index] = duration
    return starts, max(finish.values())
