"""One workload's set-up in a fresh interpreter, timed by its parent.

``python3 perfbench/setup_probe.py <workload>`` with ``PYTHONPATH=src``
imports the layers the workload drives, builds its targets and loads its
inputs, then exits.  ``harness.time_setup_children`` runs it several times
and reports the median wall time as ``setup_s``; for ``serve_mixed`` the
server's boot to ready is added by the workload itself.
"""

from __future__ import annotations

import sys


def main(workload: str) -> None:
    import inprocess

    if workload == "paper_sweep":
        inprocess.paper_sweep_cells()
    elif workload == "suite_translate":
        inprocess.suite_translate_cells()
    elif workload == "serve_mixed":
        import serve

        serve.request_keys()
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1])
