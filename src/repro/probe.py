"""The one instrumentation seam between the solvers and their observers.

The SAT core, the DPLL(T) check, the OMT loop, the exact search, the
selection pass and the pass manager each call :func:`current_probe`
once per call and report their milestones to the :class:`Probe` it
returns.  They keep plain counters and never name their observers:
deadlines and cancellation (:class:`repro.resilience.Budget`), fault
injection (:class:`repro.resilience.FaultPlan`), tracing and telemetry
subscribe here instead, and do their own sampling and delta bookkeeping.
This module imports nothing from :mod:`repro`.

A subscriber *attaches* a source while it is active (a budget scope is
open, a fault plan installed, a tracer live, telemetry on) and detaches
it afterwards; :func:`attached` tells it whether it is active anywhere,
so it keeps no activity flag of its own.  A source is a zero-argument
callable returning the :class:`Probe` for the calling context, a fresh
one when it keeps per-call state, or ``None`` when it has nothing to
observe there.  With nothing attached, :func:`current_probe` is one
module-global read.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

#: SAT conflicts between two sampled progress reports of a subscriber.
CONFLICT_MILESTONE = 512


class Probe:
    """The milestones a solver or pass reports; every hook is a no-op here.

    Subscribers override the hooks they need.  ``solver`` is a
    :class:`repro.sat.Solver` (read its ``statistics`` and
    ``num_learned``); ``counters`` is the DPLL(T) counter dict of
    :class:`repro.smt.SmtSolver` (``theory_checks``, ``theory_pivots``,
    ``theory_conflicts``).  Hooks that end a call run in a ``finally``
    block and must not raise; the others may raise to interrupt it.
    """

    __slots__ = ()

    def sat_begin(self, solver) -> None:
        """A SAT solve starts."""

    def sat_conflict(self, solver) -> None:
        """The SAT search learned from one more conflict."""

    def sat_restart(self, solver, next_limit: int) -> None:
        """The SAT search restarted; ``next_limit`` conflicts until the next."""

    def sat_reduce_db(self, solver, deleted: int, next_limit: int) -> None:
        """``deleted`` learned clauses were dropped from the database."""

    def sat_exit(self, solver) -> None:
        """The SAT solve returns or unwinds."""

    def check_begin(self, counters) -> None:
        """An SMT check starts."""

    def theory_check(self, counters, consistent: bool, pivots: int) -> None:
        """One Boolean model went through the simplex in ``pivots`` pivots."""

    def check_exit(self, counters) -> None:
        """The SMT check returns or unwinds."""

    def omt_begin(self, sense: str) -> None:
        """An objective search starts."""

    def omt_round(self, rounds: int, best) -> None:
        """Improvement round ``rounds`` ended with incumbent ``best``."""

    def omt_end(self, rounds: int, best) -> None:
        """The objective search returns or unwinds."""

    def exact_nodes(self, nodes: int) -> None:
        """The exact search starts (0) or has visited another node batch."""

    def select_begin(self, objective: str) -> None:
        """The substitution selection starts."""

    def select_end(self, fields: Dict[str, object]) -> None:
        """The selection returns or unwinds; ``fields`` describe its path."""

    def pipeline_begin(self, technique: str, circuit) -> None:
        """A pipeline run starts on ``circuit``."""

    def pass_begin(self, name: str) -> None:
        """Pass ``name`` is about to run."""

    def pass_end(self, name: str, seconds: float, counters: Dict[str, object]) -> None:
        """Pass ``name`` finished in ``seconds`` with its size counters."""

    def pipeline_end(self, report, adapted) -> None:
        """The pipeline run returns or unwinds (``adapted`` may be ``None``)."""


class _Fanout(Probe):
    """Several active probes behind one: each hook calls them in turn."""

    __slots__ = ("probes",)

    def __init__(self, probes) -> None:
        self.probes = probes


def _broadcast(name: str):
    def hook(self, *args):
        for probe in self.probes:
            getattr(probe, name)(*args)

    hook.__name__ = name
    return hook


for _name in [name for name in vars(Probe) if not name.startswith("_")]:
    setattr(_Fanout, _name, _broadcast(_name))

Source = Callable[[], Optional[Probe]]

#: Attached sources in attach order; ``None`` (the fastest test, which
#: subscribers' own hot paths make too) while nothing observes.
_LIVE: Optional[Tuple[Source, ...]] = None
_COUNTS: Dict[Source, int] = {}
_LOCK = threading.Lock()


def attach(source: Source) -> None:
    """Count one activation of ``source`` (attaching it on the first)."""
    global _LIVE
    with _LOCK:
        _COUNTS[source] = _COUNTS.get(source, 0) + 1
        _LIVE = tuple(_COUNTS)


def detach(source: Source) -> None:
    """Undo one :func:`attach` (detaching ``source`` on the last)."""
    global _LIVE
    with _LOCK:
        count = _COUNTS.get(source, 0)
        if count > 1:
            _COUNTS[source] = count - 1
        else:
            _COUNTS.pop(source, None)
        _LIVE = tuple(_COUNTS) or None


def attached(source: Source) -> bool:
    """True while ``source`` has a live activation anywhere in the process.

    Hot paths test ``_LIVE is None`` first: with nothing attached at all,
    that one module read is the whole cost, as for a plain flag.
    """
    return source in _COUNTS


def current_probe() -> Optional[Probe]:
    """The probe observing the calling context, or ``None``."""
    if _LIVE is None:
        return None
    # Re-read: a concurrent detach may have emptied the seam meanwhile.
    probes = [probe for probe in (source() for source in _LIVE or ()) if probe is not None]
    if len(probes) > 1:
        return _Fanout(probes)
    return probes[0] if probes else None


__all__ = ["CONFLICT_MILESTONE", "Probe", "attach", "attached", "current_probe", "detach"]
