"""The repository benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric (``setup_s``,
``compiles_per_s``, ``latency_ms_p50``, ``latency_ms_p90``,
``fidelity_change_mean``, ``idle_time_decrease_mean``, ``peak_rss_mb``);
``--trace 1`` wraps each layer's entry points and prints every per-layer
metric instead.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 108, "failed": 0, "metrics": {...}}

A run record (seed, ``cpu_count``, Python version, commit or source digest,
workload properties) is printed on the line before it and appended to
``.perfbench_out/runs.jsonl``.  See ``perfbench/README.md`` for why each
workload exists and which layer metric should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

import harness

WORKLOADS = ("paper_sweep", "suite_translate", "serve_mixed")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="how long the run measures (whole passes for the "
                             "in-process workloads)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame):  # noqa: ARG001 - signal API
    # Unwind through the workloads' ``finally`` blocks so that server
    # children are stopped and reaped.
    sys.exit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    scrubbed = harness.scrub_environment()
    try:
        harness.import_repro()
    except (harness.BenchSetupError, ImportError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    harness.OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    record = harness.run_info(args.workload, args.seed, args.seconds, trace, scrubbed)
    if args.workload == "serve_mixed":
        import serve

        outcome = serve.run(args.seed, args.seconds, trace, record)
    else:
        import inprocess

        outcome = inprocess.run(args.workload, args.seed, args.seconds, trace, record)

    record.update(attempted=outcome["attempted"], failed=outcome["failed"],
                  errors=outcome["errors"], metrics=outcome["metrics"])
    line = json.dumps(record, sort_keys=True)
    with open(harness.OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as runs:
        runs.write(line + "\n")
    for error in outcome["errors"]:
        print(f"failed operation: {error}", file=sys.stderr)
    print("run record: " + line)
    print(json.dumps({
        "correct": outcome["failed"] == 0 and outcome["attempted"] > 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
