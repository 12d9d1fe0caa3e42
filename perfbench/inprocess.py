"""The two in-process workloads: ``paper_sweep`` and ``suite_translate``.

Both compile a fixed set of cells (circuit x technique) in whole passes,
each pass in an order drawn from the run seed, until the run's seconds
are used up.  The L1 result cache is cleared before every compile and no
L2 store is installed, so every operation is a full compile.  A cell's
cost must repeat bit for bit in every pass.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List, NamedTuple, Optional

import harness
import layers
import spans

#: Paper Section V techniques (Eqs. 8, 9, 10).
SWEEP_TECHNIQUES = ("sat_f", "sat_r", "sat_p")
#: Circuit seeds of the sweep grid (see README: the grid is fixed, the run
#: seed orders it).
SWEEP_CIRCUIT_SEEDS = (0, 1, 2)
SWEEP_DEPTH = 10
SWEEP_WIDTHS = (2, 3)
#: Translation techniques that never call the solver.
TRANSLATE_TECHNIQUES = ("direct", "kak_cz", "kak_dcz", "template_f", "template_r")
#: An untraced run keeps going, in whole passes, past ``--seconds`` until
#: it has this many compiles, so that ``latency_ms_p90`` has ten samples
#: beyond it.
MIN_COMPILES = 100
#: ... and at least this many passes.  The process's peak RSS still grows
#: during the second pass of ``suite_translate`` (76 -> 80 MiB on the
#: tuning host) and is flat from then on, so a run that stopped after
#: one pass or after two would report two different levels.
MIN_PASSES = 2


class Cell(NamedTuple):
    key: str
    technique: str
    compile: Callable[[], object]


#: Pipeline stages whose share of wall time the property report gives.
SHARE_STAGES = ("solve", "evaluate_rules")


class Phase(NamedTuple):
    tally: harness.Tally
    #: Every result, in order; empty unless the phase was asked to keep them.
    results: List[object]
    first: Dict[str, object]
    pass_walls: List[float]
    #: Seconds spent in each of :data:`SHARE_STAGES`, over every compile.
    stage_totals: Dict[str, float]


def sweep_circuits():
    """The paper_sweep grid: random-template and quantum-volume circuits."""
    from repro.workloads import quantum_volume_circuit, random_template_circuit

    circuits = []
    for seed in SWEEP_CIRCUIT_SEEDS:
        for width in SWEEP_WIDTHS:
            circuits.append(random_template_circuit(width, SWEEP_DEPTH, seed=seed))
            circuits.append(quantum_volume_circuit(width, seed=seed))
    return circuits


def paper_sweep_cells() -> List[Cell]:
    import repro
    from repro.hardware import spin_qubit_target

    targets = {width: spin_qubit_target(width, "D0") for width in SWEEP_WIDTHS}
    cells = []
    for circuit in sweep_circuits():
        target = targets[circuit.num_qubits]
        for technique in SWEEP_TECHNIQUES:
            cells.append(Cell(
                f"{circuit.name}/{technique}", technique,
                lambda c=circuit, t=target, k=technique: repro.compile(c, t, k, verify=True),
            ))
    return cells


def suite_translate_cells() -> List[Cell]:
    import repro
    import repro.interop
    from repro.hardware import spin_qubit_target

    entries = repro.interop.load_suite()
    targets = {}
    cells = []
    for entry in entries:
        width = entry.metadata()["qubits"]
        if width not in targets:
            targets[width] = spin_qubit_target(width, "D0")
        for technique in TRANSLATE_TECHNIQUES:
            def compile_cell(e=entry, t=targets[width], k=technique):
                circuit = repro.interop.qasm_to_circuit(e.qasm, name=e.name)
                return repro.compile(circuit, t, k, **harness.TRANSLATE_OPTIONS)

            cells.append(Cell(f"{entry.name}/{technique}", technique, compile_cell))
    return cells


def warm_up(techniques) -> None:
    """Compile a tiny circuit once per technique, untimed, then forget it.

    Lazy imports and first-call set-up inside the pipeline are paid once
    per process, not per compile, so they stay out of the timed passes.
    """
    import repro
    from repro.hardware import spin_qubit_target

    for technique in techniques:
        repro.compile(harness.WARM_UP_QASM, spin_qubit_target(2, "D0"), technique,
                      **harness.TRANSLATE_OPTIONS)
    repro.clear_compilation_cache()


def run_passes(cells: List[Cell], rng: random.Random, seconds: float,
               recorder: Optional[spans.SpanRecorder] = None,
               min_compiles: int = 0, min_passes: int = 1,
               keep_results: bool = False) -> Phase:
    """Compile every cell once per pass, in seeded order, until ``seconds``
    have elapsed, ``min_compiles`` compiles were attempted and
    ``min_passes`` passes were made.

    Only the first result of each cell is held unless ``keep_results``:
    holding every result would make the process's peak memory grow with
    the number of passes a run happens to fit, not with the program.
    """
    from repro.api import clear_compilation_cache

    tally = harness.Tally()
    results: List[object] = []
    stage_totals = {stage: 0.0 for stage in SHARE_STAGES}
    first: Dict[str, object] = {}
    signatures: Dict[str, tuple] = {}
    pass_walls: List[float] = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        order = list(cells)
        rng.shuffle(order)
        for cell in order:
            clear_compilation_cache()
            tally.attempted += 1
            began = time.perf_counter()
            try:
                if recorder is None:
                    result = cell.compile()
                else:
                    with recorder.span(spans.OPERATION):
                        result = cell.compile()
            except Exception as error:  # noqa: BLE001 - counted, run goes on
                tally.fail(f"{cell.key}: {type(error).__name__}: {error}")
                continue
            tally.latencies.append(time.perf_counter() - began)
            problem = harness.check_result(result, cell.technique, cell.key, signatures)
            if problem is not None:
                tally.fail(f"{cell.key}: {problem}")
                continue
            first.setdefault(cell.key, result)
            for stage in SHARE_STAGES:
                stage_totals[stage] += harness.stage_seconds(result, stage)
            if keep_results:
                results.append(result)
        pass_walls.append(time.perf_counter() - pass_started)
        if (time.perf_counter() - started >= seconds
                and tally.attempted >= min_compiles
                and len(pass_walls) >= min_passes):
            break
    tally.wall = time.perf_counter() - started
    return Phase(tally, results, first, pass_walls, stage_totals)


def properties(phase: Phase) -> Dict[str, float]:
    """Workload-property report: where the wall time of the phase went."""
    wall = phase.tally.wall
    return {
        "bench.solve_share": phase.stage_totals["solve"] / wall,
        "bench.evaluate_rules_share": phase.stage_totals["evaluate_rules"] / wall,
        "bench.distinct_keys": float(len(phase.first)),
    }


def run(workload: str, seed: int, seconds: int, trace: bool, record: Dict) -> Dict:
    """Run one in-process workload; returns attempted/failed/metrics."""
    from repro.api.cache import uninstall_persistent_store

    uninstall_persistent_store()
    build = paper_sweep_cells if workload == "paper_sweep" else suite_translate_cells
    cells = build()
    warm_up(SWEEP_TECHNIQUES if workload == "paper_sweep" else TRANSLATE_TECHNIQUES)
    if not trace:
        setup = harness.time_setup_children(workload)
        phase = run_passes(cells, random.Random(seed), seconds,
                           min_compiles=MIN_COMPILES, min_passes=MIN_PASSES)
        tally = phase.tally
        record["properties"] = properties(phase)
        record["setup_samples_s"] = setup
        record["pass_walls_s"] = phase.pass_walls
        fidelity, idle = harness.quality_means(
            [phase.first[key] for key in sorted(phase.first)])
        metrics = {
            "setup_s": statistics.median(setup),
            "compiles_per_s": tally.rate,
            "latency_ms_p50": 1000 * harness.percentile(tally.latencies, 50),
            "latency_ms_p90": 1000 * harness.percentile(tally.latencies, 90),
            "fidelity_change_mean": fidelity,
            "idle_time_decrease_mean": idle,
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        record["compiles"] = len(tally.latencies)
        return harness.outcome(tally.attempted, tally.failed, tally.errors,
                               metrics, "end_to_end")

    # Traced run: an untraced half for the overhead baseline and the
    # workload properties, then a traced half on the same seeded order.
    half = seconds / 2
    plain = run_passes(cells, random.Random(seed), half)
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        traced = run_passes(cells, random.Random(seed), half, recorder,
                            keep_results=True)
    operations = len(traced.tally.latencies)
    metrics = {
        **layers.span_metrics(recorder.self_times_ms(), operations),
        **layers.result_metrics(traced.results),
        **properties(plain),
        "bench.trace_overhead_pct": layers.overhead_pct(plain.tally.rate, traced.tally.rate),
    }
    record["properties"] = properties(plain)
    record["compiles"] = operations
    record["spans"] = len(recorder.spans)
    recorder.dump(harness.OUT_DIR / f"spans-{workload}-s{seed}.jsonl")
    errors = plain.tally.errors + traced.tally.errors
    return harness.outcome(plain.tally.attempted + traced.tally.attempted,
                           plain.tally.failed + traced.tally.failed, errors,
                           metrics, "per_layer")
