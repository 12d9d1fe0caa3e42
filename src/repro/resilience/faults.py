"""Deterministic fault injection for resilience testing.

A *fault plan* is a list of :class:`FaultSpec` entries, each naming an
instrumented **site** in the stack and an **action** to take when that
site is hit for the ``nth`` time (or on every hit ``after`` the first N).
Plans activate either programmatically (:func:`install_fault_plan`) or
through the ``REPRO_FAULTS`` environment variable — inline JSON or a
path to a JSON file — which spawned shard/worker processes inherit, the
same way ``REPRO_TRACE`` propagates tracing.

Instrumented sites and the actions they honor:

=================== ======================= ===============================
site                actions                 effect
=================== ======================= ===============================
``worker.compile``  ``die``                 process worker exits hard
                                            (``os._exit``) before compiling
``store.read``      ``corrupt``             the store entry's file on disk
                                            is overwritten with garbage
                                            just before the read
``http.response``   ``abort``, ``delay``    the gateway drops the
                                            connection without replying /
                                            sleeps ``seconds`` first
``sat.conflict``    ``slow``                the SAT solver sleeps
                                            ``seconds`` per conflict
                                            (forced solver slowdown)
=================== ======================= ===============================

Counting is per-process and thread-safe, so a plan like *"kill the
worker on its 3rd compile"* or *"abort the 5th HTTP response"* is
exactly reproducible.  When no plan is installed every hook is a single
``None`` test.  The solver site is reached through :mod:`repro.probe`:
an installed plan is the probe of every context.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.probe import Probe, attach, detach

#: Environment variable holding a fault plan: inline JSON (a list of
#: spec objects) or a path to a JSON file.  Inherited by spawned shard
#: and pool-worker processes.
FAULTS_ENV_VAR = "REPRO_FAULTS"

_KNOWN_FIELDS = ("site", "action", "nth", "after", "times", "seconds")


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: where, what, and on which hit(s).

    ``nth`` fires on exactly the nth hit of the site (1-based, once
    unless ``times`` raises the cap); ``after`` fires on every hit
    strictly after the first N (``after=0`` means every hit).  Exactly
    one of the two must be given.  ``seconds`` parameterizes the delay
    actions.
    """

    site: str
    action: str
    nth: Optional[int] = None
    after: Optional[int] = None
    times: Optional[int] = None
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.site or not self.action:
            raise ValueError("a fault spec needs both 'site' and 'action'")
        if (self.nth is None) == (self.after is None):
            raise ValueError(
                f"fault spec for {self.site!r} must set exactly one of "
                "'nth' (fire on that hit) or 'after' (fire on every "
                "later hit)"
            )
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"'nth' is 1-based, got {self.nth}")
        if self.after is not None and self.after < 0:
            raise ValueError(f"'after' must be >= 0, got {self.after}")
        if self.seconds < 0:
            raise ValueError(f"'seconds' must be >= 0, got {self.seconds}")

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        unknown = set(payload) - set(_KNOWN_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown fault spec field(s) {sorted(unknown)}; "
                f"known fields: {list(_KNOWN_FIELDS)}"
            )
        return cls(
            site=str(payload.get("site", "")),
            action=str(payload.get("action", "")),
            nth=None if payload.get("nth") is None else int(payload["nth"]),
            after=None if payload.get("after") is None else int(payload["after"]),
            times=None if payload.get("times") is None else int(payload["times"]),
            seconds=float(payload.get("seconds", 0.0)),
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"site": self.site, "action": self.action}
        for field in ("nth", "after", "times"):
            value = getattr(self, field)
            if value is not None:
                payload[field] = value
        if self.seconds:
            payload["seconds"] = self.seconds
        return payload


PlanLike = Union["FaultPlan", str, Sequence[Union[FaultSpec, Dict[str, object]]]]


class FaultPlan(Probe):
    """An ordered set of fault specs with per-site hit counting."""

    def __init__(self, specs: Sequence[Union[FaultSpec, Dict[str, object]]]) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
            for spec in specs
        )
        self._hits: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        if isinstance(payload, dict):
            payload = payload.get("faults", [payload])
        if not isinstance(payload, list):
            raise ValueError(
                "a fault plan is a JSON list of spec objects "
                f"(or {{'faults': [...]}}), got {type(payload).__name__}"
            )
        return cls(payload)

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` value: inline JSON or a file path."""
        stripped = value.strip()
        if stripped.startswith(("[", "{")):
            return cls.from_json(stripped)
        with open(value, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def fire(self, site: str) -> List[FaultSpec]:
        """Record one hit of ``site``; return the specs that trigger."""
        with self._lock:
            count = self._hits.get(site, 0) + 1
            self._hits[site] = count
            fired: List[FaultSpec] = []
            for index, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                if spec.nth is not None and count != spec.nth:
                    continue
                if spec.after is not None and count <= spec.after:
                    continue
                done = self._fired.get(index, 0)
                # An `nth` spec fires once by default; an `after` spec
                # fires on every later hit unless `times` caps it.
                limit = spec.times
                if limit is None and spec.nth is not None:
                    limit = 1
                if limit is not None and done >= limit:
                    continue
                self._fired[index] = done + 1
                fired.append(spec)
            return fired

    def delay(self, site: str) -> List[FaultSpec]:
        """Fire ``site``, sleeping for delay-type actions in place.

        Returns the non-delay specs that fired, for the caller to act on.
        """
        remaining: List[FaultSpec] = []
        for spec in self.fire(site):
            if spec.action in ("delay", "slow"):
                time.sleep(spec.seconds)
            else:
                remaining.append(spec)
        return remaining

    def sat_conflict(self, solver) -> None:
        self.delay("sat.conflict")

    def hits(self) -> Dict[str, int]:
        """Per-site hit counts so far (a snapshot)."""
        with self._lock:
            return dict(self._hits)

    def reset(self) -> None:
        """Zero the hit/fire counters (e.g. in a forked child)."""
        with self._lock:
            self._hits.clear()
            self._fired.clear()

    def to_list(self) -> List[Dict[str, object]]:
        return [spec.to_dict() for spec in self.specs]


# ---------------------------------------------------------------------------
# The process-wide plan
# ---------------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None


def install_fault_plan(plan: PlanLike) -> FaultPlan:
    """Activate a fault plan process-wide; returns it."""
    global _PLAN
    if isinstance(plan, FaultPlan):
        resolved = plan
    elif isinstance(plan, str):
        resolved = FaultPlan.from_json(plan)
    else:
        resolved = FaultPlan(plan)
    if _PLAN is None:
        attach(active_fault_plan)
    _PLAN = resolved
    return resolved


def clear_fault_plan() -> None:
    """Deactivate fault injection."""
    global _PLAN
    if _PLAN is not None:
        detach(active_fault_plan)
    _PLAN = None


def active_fault_plan() -> Optional[FaultPlan]:
    """The installed plan, or ``None`` (the common fast path)."""
    return _PLAN


def maybe_fault(site: str) -> Sequence[FaultSpec]:
    """Hit ``site`` against the installed plan; () when none installed."""
    plan = _PLAN
    if plan is None:
        return ()
    return plan.fire(site)


def fault_hook(site: str) -> Sequence[FaultSpec]:
    """Like :func:`maybe_fault` but services delay actions in place."""
    plan = _PLAN
    if plan is None:
        return ()
    return plan.delay(site)


def _load_env_plan() -> Optional[FaultPlan]:
    raw = os.environ.get(FAULTS_ENV_VAR)
    if not raw:
        return None
    return FaultPlan.from_env(raw)


_PLAN = _load_env_plan()
if _PLAN is not None:
    attach(active_fault_plan)

# A forked child starts its own hit counting: "kill the worker on its
# 3rd compile" means the 3rd compile in *that* process.
if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(
        after_in_child=lambda: _PLAN.reset() if _PLAN is not None else None
    )
