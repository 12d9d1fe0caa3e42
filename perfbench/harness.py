"""Shared plumbing of the benchmark: environment, statistics, set-up timing.

Nothing here measures a layer of the program; it locates the checkout's
``src/`` tree, scrubs the environment variables that change results or
timing, records the run's provenance, and times set-up in fresh
interpreters.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes (run records, span dumps, server stores).
OUT_DIR = ROOT / ".perfbench_out"

#: Variables that silently change results or timing; a run unsets them.
#: ``REPRO_FAULTS`` injects failures, ``REPRO_API_KEY`` would make the
#: client authenticate against an anonymous server.
SCRUBBED_ENV = (
    "REPRO_MAX_IMPROVEMENT_ROUNDS",
    "REPRO_TRACE",
    "REPRO_API_KEYS",
    "REPRO_FULL_SWEEP",
    "REPRO_FAULTS",
    "REPRO_API_KEY",
)

#: The options every in-process and HTTP compile of the translation
#: workloads uses: the adapted circuit is checked for unitary equivalence
#: (circuits of up to six qubits) inside the pipeline's verify pass.
TRANSLATE_OPTIONS = {"merge_single_qubit_gates": True, "verify": True}

#: A circuit outside every workload's inputs, compiled once per technique
#: before timing starts.
WARM_UP_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
rz(0.25) q[1];
"""


class BenchSetupError(RuntimeError):
    """The checkout cannot be benchmarked (no ``src/repro`` to import)."""


def scrub_environment() -> List[str]:
    """Unset :data:`SCRUBBED_ENV` in this process; return the names removed."""
    removed = [name for name in SCRUBBED_ENV if name in os.environ]
    for name in removed:
        del os.environ[name]
    return removed


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: scrubbed, importing ``src/``."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchSetupError(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchSetupError(f"repro imported from {origin}, not from {SRC}")
    return repro


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit_id() -> Optional[str]:
    """The git commit of the checkout, when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def run_info(workload: str, seed: int, seconds: int, trace: bool,
             scrubbed: Sequence[str]) -> Dict[str, object]:
    """Provenance recorded with every run."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit_id(),
        "source_digest": source_digest(),
        "scrubbed_env": list(scrubbed),
        "started_at": time.time(),
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def time_setup_children(workload: str, samples: int = 5) -> List[float]:
    """Wall time of ``samples`` fresh interpreters doing the workload's set-up.

    Each child imports the layers the workload drives, builds its targets
    and loads its inputs (``setup_probe.py``); interpreter start-up is
    included because every user of the command pays it.
    """
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            cwd=ROOT, env=child_env(), check=True, timeout=120,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return times


# ---------------------------------------------------------------------------
# Operation accounting
# ---------------------------------------------------------------------------
@dataclass
class Tally:
    """Attempted/failed operations and their latencies for one phase."""

    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    wall: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    @property
    def rate(self) -> float:
        """Completed operations per wall-clock second."""
        return len(self.latencies) / self.wall if self.wall > 0 else 0.0


def cost_signature(result) -> Tuple[float, float, float, float]:
    """Bit-exact cost fields that must repeat for a repeated compile."""
    return (
        result.cost.gate_fidelity_product,
        result.cost.total_idle_time,
        result.baseline_cost.gate_fidelity_product,
        result.baseline_cost.total_idle_time,
    )


def check_result(result, technique: str, key: str,
                 signatures: Dict[str, tuple]) -> Optional[str]:
    """The output checks every compile passes; a message when one fails.

    ``signatures`` maps each key to the costs of its first result; a later
    result for the same key must repeat them bit for bit.
    """
    if result.technique != technique:
        return f"asked for {technique}, got {result.technique}"
    if result.baseline_cost is None:
        return f"{technique}: no baseline cost"
    if technique == "direct" and result.fidelity_change != 0:
        return f"direct reports fidelity_change {result.fidelity_change!r}"
    signature = cost_signature(result)
    if signatures.setdefault(key, signature) != signature:
        return "cost differs from the first result for this key"
    return None


def quality_means(results: Sequence) -> Tuple[float, float]:
    """(1 + mean Eq. 8 fidelity change, mean Eq. 9 idle-time decrease).

    The fidelity mean is reported as a ratio to the direct translation so
    it stays positive on every workload (``kak_dcz`` alone makes the raw
    mean change negative on ``suite_translate``).  No results read 0.
    """
    if not results:
        return 0.0, 0.0
    return (
        1.0 + statistics.fmean(r.fidelity_change for r in results),
        statistics.fmean(r.idle_time_decrease for r in results),
    )


def stage_seconds(result, stage: str) -> float:
    """Seconds the pipeline spent in ``stage`` for this compile (0 on hits)."""
    report = result.report
    if report is None or report.cache_hit:
        return 0.0
    return sum(s.seconds for s in report.stages if s.name == stage)


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in the
    order ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)[kind]
    return {metric["name"]: metric["unit"] for metric in declared}


def outcome(attempted: int, failed: int, errors: List[str],
            metrics: Dict[str, float], kind: str) -> Dict:
    """A workload's result: counts plus every declared metric of ``kind``.

    A per-layer metric the workload has no sample for (a layer it never
    enters) reads 0.  A computed metric that ``BENCHMARK.json`` does not
    declare, or a missing end-to-end one, is a bug in the benchmark.
    """
    units = metric_units(kind)
    undeclared = set(metrics) - set(units)
    missing = set(units) - set(metrics) if kind == "end_to_end" else set()
    if undeclared or missing:
        raise ValueError(f"metrics not in BENCHMARK.json: {sorted(undeclared)}; "
                         f"end-to-end metrics not computed: {sorted(missing)}")
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
