"""Cooperative compile budgets: deadlines, work limits and cancellation.

A :class:`Budget` bounds one compilation by wall-clock time and/or by
solver work (SAT conflicts, simplex pivots, OMT improvement rounds).  It
is carried through the stack by a context variable — installed with
:func:`budget_scope` around a compile — and subscribes to the
:mod:`repro.probe` milestones of the solvers: every SAT conflict, every
SMT theory check, every OMT improvement round, every exact-search node
batch, and every pipeline pass boundary.  When the budget is exhausted
the checkpoint raises a typed :class:`CompileDeadlineExceeded` that
unwinds cleanly through the pipeline (every span and lock in the stack
releases via ``finally``), so callers get a catchable exception instead
of a runaway solve.

Cancellation rides the same flag: :meth:`Budget.cancel` can be called
from *any* thread (the scheduler does, when every waiter of a running
job has given up) and the next checkpoint in the compiling thread raises
:class:`CompileCancelled`.

With no budget in scope the solvers see no probe at all; for other
callers the probe's attach count guards the context-variable lookup, so
:func:`check_budget` costs a few tens of nanoseconds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from repro import probe as _probe
from repro.probe import Probe, attach, attached, detach


class CompileInterrupted(RuntimeError):
    """Base class for budget interruptions (deadline or cancellation)."""

    reason = "interrupted"

    def __init__(self, message: str, *, checkpoint: Optional[str] = None,
                 elapsed: Optional[float] = None,
                 budget: Optional["Budget"] = None) -> None:
        super().__init__(message)
        self.checkpoint = checkpoint
        self.elapsed = elapsed
        self.budget = budget

    def event(self) -> Dict[str, object]:
        """A JSON-serializable record of the interruption.

        These dicts accumulate in ``CompilationReport.deadline_events``
        when a deadline triggers the degradation ladder.
        """
        payload: Dict[str, object] = {
            "reason": self.reason,
            "message": str(self),
        }
        if self.checkpoint is not None:
            payload["checkpoint"] = self.checkpoint
        if self.elapsed is not None:
            payload["elapsed_seconds"] = round(self.elapsed, 6)
        if self.budget is not None:
            payload["budget"] = self.budget.as_dict()
        return payload


class CompileDeadlineExceeded(CompileInterrupted):
    """The wall-clock deadline or a work limit of the budget ran out."""

    reason = "deadline"


class CompileCancelled(CompileInterrupted):
    """The budget was cancelled from outside the compiling thread."""

    reason = "cancelled"


#: Degradation policies a budget can carry (see repro.resilience.degrade).
ON_DEADLINE_MODES: Tuple[str, ...] = ("raise", "degrade")

FallbackSpec = Union[None, bool, str, Sequence[str]]


class Budget(Probe):
    """A cooperative bound on one compilation.

    Parameters
    ----------
    timeout:
        Wall-clock seconds from :meth:`arm` (called by ``__init__``
        unless ``arm=False``) to the deadline.  ``None`` means no time
        bound — the budget then only enforces work limits and
        cancellation.
    max_conflicts, max_pivots, max_rounds:
        Optional work limits: total SAT conflicts, simplex pivots and
        OMT improvement rounds charged against this budget.
    on_deadline:
        What :func:`repro.compile` does when this budget fires:
        ``"raise"`` propagates :class:`CompileDeadlineExceeded`,
        ``"degrade"`` walks the fallback ladder (see
        :mod:`repro.resilience.degrade`).
    fallback:
        Explicit degradation ladder (a technique key or sequence of
        keys), ``None`` for the per-technique default ladder, ``False``
        to disable fallback even under ``on_deadline="degrade"``.
    parent:
        An enclosing budget whose *cancellation* (not its deadline)
        propagates to this one — used when a degraded retry runs under
        a fresh grace deadline but must still honor the original
        caller's cancel.
    arm:
        When ``False`` the deadline clock starts only at an explicit
        :meth:`arm` call — the scheduler creates budgets at submit time
        but arms them when the job actually starts running, so queue
        wait does not count against the compile deadline.
    """

    __slots__ = (
        "timeout", "max_conflicts", "max_pivots", "max_rounds",
        "on_deadline", "fallback", "parent",
        "conflicts", "pivots", "rounds", "checks",
        "_started", "_deadline", "_cancelled", "_cancel_reason",
    )

    def __init__(
        self,
        timeout: Optional[float] = None,
        *,
        max_conflicts: Optional[int] = None,
        max_pivots: Optional[int] = None,
        max_rounds: Optional[int] = None,
        on_deadline: str = "raise",
        fallback: FallbackSpec = None,
        parent: Optional["Budget"] = None,
        arm: bool = True,
    ) -> None:
        if timeout is not None:
            timeout = float(timeout)
            if timeout < 0:
                raise ValueError(f"timeout must be >= 0, got {timeout}")
        if on_deadline not in ON_DEADLINE_MODES:
            raise ValueError(
                f"on_deadline must be one of {ON_DEADLINE_MODES}, "
                f"got {on_deadline!r}"
            )
        if not (fallback is None or isinstance(fallback, (bool, str)) or (
                isinstance(fallback, (list, tuple))
                and all(isinstance(key, str) for key in fallback))):
            raise TypeError("fallback must be a bool, a technique key or a "
                            f"list of technique keys, got {fallback!r}")
        self.timeout = timeout
        self.max_conflicts = max_conflicts
        self.max_pivots = max_pivots
        self.max_rounds = max_rounds
        self.on_deadline = on_deadline
        self.fallback = fallback
        self.parent = parent
        self.conflicts = 0
        self.pivots = 0
        self.rounds = 0
        self.checks = 0
        self._started = time.monotonic()
        self._deadline: Optional[float] = None
        self._cancelled = False
        self._cancel_reason: Optional[str] = None
        if arm:
            self.arm()

    def arm(self) -> "Budget":
        """(Re)start the deadline clock from now; returns self."""
        self._started = time.monotonic()
        if self.timeout is not None:
            self._deadline = self._started + self.timeout
        return self

    # -- cancellation (thread-safe: a single boolean write) -------------
    def cancel(self, reason: str = "cancelled") -> None:
        """Request interruption; the next checkpoint raises.

        Safe to call from any thread — the compiling thread observes the
        flag at its next checkpoint (typically within one SAT conflict
        or one pipeline pass).
        """
        self._cancel_reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """True when this budget or any ancestor was cancelled."""
        budget: Optional[Budget] = self
        while budget is not None:
            if budget._cancelled:
                return True
            budget = budget.parent
        return False

    def cancel_reason(self) -> Optional[str]:
        budget: Optional[Budget] = self
        while budget is not None:
            if budget._cancelled:
                return budget._cancel_reason
            budget = budget.parent
        return None

    # -- time accounting ------------------------------------------------
    def elapsed(self) -> float:
        """Seconds since the budget was (last) armed."""
        return time.monotonic() - self._started

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when unbounded)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())

    @property
    def expired(self) -> bool:
        return self._deadline is not None and time.monotonic() >= self._deadline

    # -- checkpoints ----------------------------------------------------
    def charge(self, checkpoint: str, conflicts: int = 0, pivots: int = 0,
               rounds: int = 0) -> None:
        """Account solver work and enforce every limit.

        Raises :class:`CompileCancelled` or
        :class:`CompileDeadlineExceeded` the moment the budget is out.
        """
        if conflicts:
            self.conflicts += conflicts
        if pivots:
            self.pivots += pivots
        if rounds:
            self.rounds += rounds
        self.checks += 1
        if self.cancelled:
            raise CompileCancelled(
                self.cancel_reason() or "compilation cancelled",
                checkpoint=checkpoint, elapsed=self.elapsed(), budget=self,
            )
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise CompileDeadlineExceeded(
                f"compile deadline of {self.timeout:g}s exceeded "
                f"at {checkpoint}",
                checkpoint=checkpoint, elapsed=self.elapsed(), budget=self,
            )
        if self.max_conflicts is not None and self.conflicts >= self.max_conflicts:
            raise CompileDeadlineExceeded(
                f"conflict budget of {self.max_conflicts} exhausted "
                f"at {checkpoint}",
                checkpoint=checkpoint, elapsed=self.elapsed(), budget=self,
            )
        if self.max_pivots is not None and self.pivots >= self.max_pivots:
            raise CompileDeadlineExceeded(
                f"pivot budget of {self.max_pivots} exhausted "
                f"at {checkpoint}",
                checkpoint=checkpoint, elapsed=self.elapsed(), budget=self,
            )
        if self.max_rounds is not None and self.rounds >= self.max_rounds:
            raise CompileDeadlineExceeded(
                f"round budget of {self.max_rounds} exhausted "
                f"at {checkpoint}",
                checkpoint=checkpoint, elapsed=self.elapsed(), budget=self,
            )

    def check(self, checkpoint: str = "checkpoint") -> None:
        """Enforce the budget without charging any work."""
        self.charge(checkpoint)

    # -- probe milestones (checkpoint names are part of the API) ---------
    def sat_conflict(self, solver) -> None:
        self.charge("sat.conflict", conflicts=1)

    def theory_check(self, counters, consistent: bool, pivots: int) -> None:
        self.charge("smt.check", pivots=pivots)

    def omt_round(self, rounds: int, best) -> None:
        self.charge("omt.round", rounds=1)

    def exact_nodes(self, nodes: int) -> None:
        self.charge("exact.search")

    def pass_begin(self, name: str) -> None:
        self.charge(f"pass:{name}")

    def as_dict(self) -> Dict[str, object]:
        """A compact JSON-serializable summary (for events and status)."""
        payload: Dict[str, object] = {}
        if self.timeout is not None:
            payload["timeout"] = self.timeout
        for name in ("max_conflicts", "max_pivots", "max_rounds"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        for name in ("conflicts", "pivots", "rounds"):
            value = getattr(self, name)
            if value:
                payload[name] = value
        if self.cancelled:
            payload["cancelled"] = True
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = [f"timeout={self.timeout!r}"]
        if self.cancelled:
            bits.append("cancelled")
        return f"Budget({', '.join(bits)})"


# ---------------------------------------------------------------------------
# The ambient budget scope
# ---------------------------------------------------------------------------
# Mirrors repro.trace.tracer: a context variable holds the budget in
# scope; the probe source's attach count (non-zero while ANY scope
# anywhere is open) lets the common no-budget case skip the lookup.
_SCOPE: "ContextVar[Optional[Budget]]" = ContextVar(
    "repro_budget_scope", default=None
)

#: The probe source: the budget in scope is the probe of its context.
_scoped_budget = _SCOPE.get


def current_budget() -> Optional[Budget]:
    """The budget in scope for this context, or ``None``."""
    if _probe._LIVE is None or not attached(_scoped_budget):
        return None
    return _SCOPE.get()


def check_budget(checkpoint: str = "checkpoint", conflicts: int = 0,
                 pivots: int = 0, rounds: int = 0) -> None:
    """Enforce the ambient budget, if any.

    ~40 ns when no budget is in scope anywhere in the process (one
    read of the probe's attach state).
    """
    if _probe._LIVE is None or not attached(_scoped_budget):
        return
    budget = _SCOPE.get()
    if budget is not None:
        budget.charge(checkpoint, conflicts=conflicts, pivots=pivots,
                      rounds=rounds)


@contextmanager
def budget_scope(budget: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Install ``budget`` as the ambient budget for this context.

    ``budget_scope(None)`` is a no-op, so call sites can pass an
    optional budget through unconditionally.  Scopes nest: the inner
    budget *replaces* the outer for the duration (link them explicitly
    via ``Budget(parent=...)`` when the outer cancel must propagate).
    """
    if budget is None:
        yield None
        return
    token = _SCOPE.set(budget)
    attach(_scoped_budget)
    try:
        yield budget
    finally:
        detach(_scoped_budget)
        _SCOPE.reset(token)
