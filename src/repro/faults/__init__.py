"""``repro.faults`` — deterministic fault injection and resilience policies.

The paper's hardest lesson is that parallel programs fail in ways that
are "difficult to reproduce and debug".  PR 1 gave the repo eyes
(:mod:`repro.telemetry`); this package gives it a *hand on the chaos
dial*: seeded, replayable failures, and the policies that survive them.

Layers:

- :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultRule`:
  which fault, at which site, on which invocation index;
- :mod:`repro.faults.injector` — :class:`FaultInjector` evaluates a plan
  and keeps the canonical injected-event log (the replay artifact);
- :mod:`repro.faults.hooks` — the single-branch hooks runtimes call
  (disabled cost: one ``is None`` test, same budget as telemetry);
- :mod:`repro.faults.policies` — retry with decorrelated-jitter backoff,
  deadline propagation, circuit breaker — all on an injectable clock;
- :mod:`repro.faults.clock` — the clocks (system / fake / scaled);
- :mod:`repro.faults.chaos` — named plan + workload pairs behind
  ``python -m repro chaos``.  It drives the runtimes, so it is not
  loaded here: import :mod:`repro.faults.chaos` itself.

Usage::

    from repro import faults

    plan = faults.FaultPlan(rules=(
        faults.FaultRule("mr.task", faults.FaultKind.CRASH,
                         where={"phase": "map", "task": 0}, at=(0,)),
    ), seed=7)
    with faults.inject(plan) as injector:
        run_job()
    injector.log_lines()        # canonical, replayable fault log

Like telemetry sessions, fault sessions are process-global and do not
nest — the runtimes report to one injector, as they would to one chaos
controller in production.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.faults import hooks, policies
from repro.faults.clock import FakeClock, ScaledClock, SystemClock
from repro.faults.hooks import _install, _uninstall
from repro.faults.injector import (
    FaultInjector,
    InjectedCrash,
    InjectedFault,
    TransientFault,
)
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.faults.policies import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    RetryError,
    RetryPolicy,
)

__all__ = [
    "FaultKind",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCrash",
    "TransientFault",
    "RetryPolicy",
    "RetryError",
    "Deadline",
    "DeadlineExceeded",
    "CircuitBreaker",
    "CircuitOpenError",
    "SystemClock",
    "FakeClock",
    "ScaledClock",
    "enable",
    "disable",
    "is_enabled",
    "inject",
    "hooks",
    "policies",
]

_session_lock = threading.Lock()


def enable(injector: FaultInjector) -> FaultInjector:
    """Activate an injector process-wide; raises if one is already active."""
    with _session_lock:
        if hooks.enabled():
            raise RuntimeError("fault injection is already enabled; sessions do not nest")
        _install(injector)
    return injector


def disable() -> FaultInjector | None:
    """Deactivate; returns the injector that was active, if any."""
    with _session_lock:
        active = hooks.active_injector()
        _uninstall()
    return active


def is_enabled() -> bool:
    return hooks.enabled()


@contextmanager
def inject(plan: FaultPlan, clock=None) -> Iterator[FaultInjector]:
    """``with faults.inject(plan) as injector:`` — chaos for the block."""
    injector = FaultInjector(plan, clock=clock)
    enable(injector)
    try:
        yield injector
    finally:
        disable()
