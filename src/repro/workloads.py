"""The unified workload registry: one name table for every front-end.

Before this module existed, ``trace``, ``chaos``, and ``sched`` each
kept a private ``dict`` of workload names, so "mapreduce" meant three
separately-registered things and a new workload had to be wired into
every CLI by hand.  Now a workload is registered **once** — under one
name, with a runner per *mode* it supports — and every front-end
(``repro trace``/``chaos``/``sched``/``bench`` and the ``repro.serve``
job service) resolves names through this table.  The service layer in
particular may only reach workloads through here (the DESIGN rule):
whatever a client can POST is exactly what the CLIs can run.

Modes and their runner shapes:

- ``trace``  — ``fn(threads) -> summary_str`` run under whatever
  telemetry session is active (see :mod:`repro.telemetry.workloads`);
- ``chaos``  — ``fn(injector, seed, threads) -> (recovered, detail, ok)``
  paired with a ``plan(seed) -> FaultPlan`` builder (see
  :mod:`repro.faults.chaos`);
- ``sched``  — ``fn(executor, workers, seed) -> (summary, lines)`` run
  through a fresh deterministic :class:`WorkStealingExecutor` (see
  :mod:`repro.sched.workloads`);
- ``pipeline`` — ``fn(store, workers=, seed=, resume=, kill_after=,
  params=) -> PipelineRun`` over a durable
  :class:`~repro.pipeline.store.JobStore` (see
  :mod:`repro.pipeline.workloads`).

Provider modules call :func:`register` at import time; the registry
imports them lazily on first lookup, so ``import repro.workloads`` stays
cheap and there is no import cycle.  :func:`run_job` is the uniform
entry point the job service and benchmarks use: ``(mode, name, params)``
in, a JSON-safe payload dict out — with chaos runs serialized behind a
lock because fault-injection sessions do not nest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

__all__ = [
    "MODES",
    "Workload",
    "WorkloadModeError",
    "register",
    "get",
    "names",
    "entries",
    "render_listing",
    "runner_for",
    "validate_params",
    "run_job",
]

#: Execution modes, in the order listings display them.
MODES: tuple[str, ...] = ("trace", "chaos", "sched", "pipeline")

#: Parameters each mode accepts in :func:`run_job` (integers, except the
#: enumerated string parameters in :data:`STRING_PARAMS`).
MODE_PARAMS: dict[str, tuple[str, ...]] = {
    "trace": ("threads",),
    "chaos": ("seed", "threads"),
    "sched": ("workers", "seed", "mode", "speculate"),
    "pipeline": ("workers", "seed"),
}

#: Integer parameters that accept 0 (``seed`` is a value, ``speculate``
#: a 0/1 flag — every other integer parameter is a count >= 1).
_ZERO_OK_PARAMS: frozenset[str] = frozenset({"seed", "speculate"})

#: String-valued parameters and their allowed values.  ``mode`` here is
#: the *executor* mode of a sched job (threaded workers vs a process
#: pool), orthogonal to the workload mode that names the front-end.
STRING_PARAMS: dict[str, tuple[str, ...]] = {
    "mode": ("threaded", "mp"),
}


class WorkloadModeError(ValueError):
    """The workload exists but does not support the requested mode."""


@dataclass(frozen=True)
class Workload:
    """One registered workload: a name plus a runner per supported mode."""

    name: str
    description: str = ""
    trace: Callable[[int], str] | None = None
    chaos: Callable[..., tuple[int, list, bool]] | None = None
    chaos_plan: Callable[[int], Any] | None = None
    sched: Callable[..., tuple[str, list]] | None = None
    pipeline: Callable[..., Any] | None = None

    @property
    def modes(self) -> tuple[str, ...]:
        return tuple(
            mode for mode in MODES if getattr(self, mode) is not None
        )


_lock = threading.Lock()
_REGISTRY: dict[str, Workload] = {}
#: Held while the providers import, so a concurrent first lookup waits
#: for every registration instead of reading a half-filled table.
_providers_lock = threading.RLock()
_providers_loaded = False

#: Fault-injection sessions do not nest (module-global injector state),
#: so concurrent chaos jobs — e.g. from the serve worker pool — take
#: this lock and run one at a time.
_chaos_run_lock = threading.Lock()


def normalize(name: str) -> str:
    return name.replace("-", "_").lower()


def register(
    name: str,
    *,
    description: str = "",
    trace: Callable[[int], str] | None = None,
    chaos: Callable[..., tuple[int, list, bool]] | None = None,
    chaos_plan: Callable[[int], Any] | None = None,
    sched: Callable[..., tuple[str, list]] | None = None,
    pipeline: Callable[..., Any] | None = None,
) -> Workload:
    """Register (or extend) a workload.

    A name may be registered from several provider modules, each adding
    the mode it implements; re-registering a runner a different callable
    already provides raises — silently shadowing a mode is always a bug.
    Returns the merged entry.
    """
    if chaos is not None and chaos_plan is None:
        raise ValueError(f"workload {name!r}: chaos runner needs a chaos_plan")
    key = normalize(name)
    with _lock:
        entry = _REGISTRY.get(key, Workload(name=key))
        updates: dict[str, Any] = {}
        for mode_attr, fn in (
            ("trace", trace), ("chaos", chaos),
            ("chaos_plan", chaos_plan), ("sched", sched),
            ("pipeline", pipeline),
        ):
            if fn is None:
                continue
            existing = getattr(entry, mode_attr)
            if existing is not None and existing is not fn:
                raise ValueError(
                    f"workload {key!r} already has a {mode_attr!r} runner"
                )
            updates[mode_attr] = fn
        if description and not entry.description:
            updates["description"] = description
        entry = replace(entry, **updates)
        _REGISTRY[key] = entry
        return entry


def unregister(name: str) -> None:
    """Remove a workload (test hygiene for dynamically registered ones)."""
    with _lock:
        _REGISTRY.pop(normalize(name), None)


def _ensure_providers_loaded() -> None:
    """Import every provider module once so its registrations land."""
    global _providers_loaded
    if _providers_loaded:
        return
    # Not under ``_lock``: the providers call register(), which takes it.
    with _providers_lock:
        if _providers_loaded:
            return
        import repro.faults.chaos       # noqa: F401  (registers chaos runners)
        import repro.megacohort.workloads  # noqa: F401  (registers megacohort modes)
        import repro.mpi.stencil_sched  # noqa: F401  (registers stencil_sched modes)
        import repro.pipeline.workloads  # noqa: F401  (registers pipeline runners)
        import repro.sched.workloads    # noqa: F401  (registers sched runners)
        import repro.telemetry.workloads  # noqa: F401  (registers trace runners)
        # The runners import their runtimes on call, and the job service
        # calls them from several threads at once.  A thread importing
        # ``pkg.sub`` while another runs ``pkg/__init__`` can deadlock on
        # the per-module import locks, so the packages that several
        # runners enter by different submodules load here, on one thread.
        import repro.drugdesign, repro.mpi, repro.openmp  # noqa: F401
        _providers_loaded = True


def get(name: str) -> Workload:
    """Resolve a workload; raises ``KeyError`` for unknown names."""
    _ensure_providers_loaded()
    key = normalize(name)
    with _lock:
        if key not in _REGISTRY:
            raise KeyError(name)
        return _REGISTRY[key]


def names(mode: str | None = None) -> list[str]:
    """Sorted workload names, optionally only those supporting ``mode``."""
    _ensure_providers_loaded()
    with _lock:
        entries_now = list(_REGISTRY.values())
    if mode is None:
        return sorted(e.name for e in entries_now)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return sorted(e.name for e in entries_now if getattr(e, mode) is not None)


def entries() -> list[Workload]:
    _ensure_providers_loaded()
    with _lock:
        return sorted(_REGISTRY.values(), key=lambda e: e.name)


def render_listing() -> str:
    """The one listing every ``--list`` flag prints, byte-identical
    across the ``trace``/``chaos``/``sched``/``serve`` subcommands."""
    rows = entries()
    width = max((len(row.name) for row in rows), default=0)
    lines = [f"workloads ({len(rows)} registered, modes: {','.join(MODES)}):"]
    for row in rows:
        lines.append(f"  {row.name:<{width}}  {','.join(row.modes)}")
    return "\n".join(lines)


def runner_for(workload: Workload, mode: str) -> Callable:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    fn = getattr(workload, mode)
    if fn is None:
        raise WorkloadModeError(
            f"workload {workload.name!r} does not support mode {mode!r} "
            f"(supports: {', '.join(workload.modes)})"
        )
    return fn


def validate_params(mode: str, params: Mapping[str, Any] | None) -> dict[str, Any]:
    """Check/coerce a job request's parameters for ``mode``.

    Unknown keys and ill-typed values raise ``ValueError`` — the job
    service turns that into a 400 before anything is admitted.  Most
    parameters are integers; the ones named in :data:`STRING_PARAMS`
    must be one of their enumerated strings.
    """
    if mode not in MODE_PARAMS:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    allowed = MODE_PARAMS[mode]
    out: dict[str, Any] = {}
    for key, value in dict(params or {}).items():
        if key not in allowed:
            raise ValueError(
                f"unknown parameter {key!r} for mode {mode!r} "
                f"(allowed: {', '.join(allowed)})"
            )
        if key in STRING_PARAMS:
            choices = STRING_PARAMS[key]
            if not isinstance(value, str) or value not in choices:
                raise ValueError(
                    f"parameter {key!r} must be one of "
                    f"{', '.join(choices)}, got {value!r}"
                )
            out[key] = value
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"parameter {key!r} must be an integer, "
                             f"got {value!r}")
        if value < (0 if key in _ZERO_OK_PARAMS else 1):
            raise ValueError(f"parameter {key!r} out of range: {value}")
        out[key] = value
    return out


def _run_chaos_serialized(name: str, seed: int, threads: int):
    """Run one chaos workload under ``_chaos_run_lock``, asserting the
    serialization invariant instead of trusting it.

    Fault-injection sessions are process-global and do not nest; if two
    chaos jobs ever overlapped, the second ``faults.enable`` would raise
    deep inside a runtime with a half-installed hook.  This chokepoint
    fails fast and loud instead: the lock must be held by *this* call
    (not merely locked by someone), and no injector may already be
    active when the session starts.
    """
    from repro.faults import chaos as chaos_mod
    from repro.faults import hooks as fault_hooks

    acquired = _chaos_run_lock.acquire()
    try:
        if not acquired or not _chaos_run_lock.locked():
            raise RuntimeError(
                "chaos serialization broken: _chaos_run_lock not held"
            )
        if fault_hooks.enabled():
            raise RuntimeError(
                "chaos serialization broken: a fault-injection session is "
                "already active; chaos runs must not nest"
            )
        return chaos_mod.run_chaos(name, seed=seed, threads=threads)
    finally:
        _chaos_run_lock.release()


def run_job(
    mode: str, name: str, params: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Run one workload in one mode and return a JSON-safe payload.

    The uniform execution entry point behind the job service and the
    serve benchmark: the payload is a pure function of (mode, name,
    params), which is what makes it content-addressable in the
    :class:`~repro.sched.cache.ResultCache`.
    """
    workload = get(name)
    fn = runner_for(workload, mode)
    clean = validate_params(mode, params)
    if mode == "trace":
        summary = fn(clean.get("threads", 4))
        return {"mode": mode, "workload": workload.name, "summary": summary}
    if mode == "chaos":
        report = _run_chaos_serialized(workload.name,
                                       seed=clean.get("seed", 7),
                                       threads=clean.get("threads", 4))
        return {
            "mode": mode,
            "workload": workload.name,
            "summary": (
                f"chaos {workload.name}: {report.injected_total} injected, "
                f"{report.recovered} recovered, "
                f"{'OK' if report.ok else 'FAILED'}"
            ),
            "ok": report.ok,
            "injected": dict(report.injected_by_kind),
            "recovered": report.recovered,
            "detail": list(report.detail),
            "log": list(report.log_lines),
        }
    if mode == "pipeline":
        from repro.pipeline import resolve_db
        from repro.pipeline.store import JobStore
        from repro.pipeline.workloads import run_pipeline_workload

        with JobStore(resolve_db()) as store:
            run = run_pipeline_workload(
                workload.name, store,
                workers=clean.get("workers", 4),
                seed=clean.get("seed", 7),
                resume=True,
            )
        return {
            "mode": mode,
            "workload": workload.name,
            "summary": run.summary,
            "output": list(run.output_lines),
            "stages": [
                {"stage": name, "status": status}
                for name, status in run.stage_status
            ],
            "stats": dict(run.stats),
            "run_id": run.run_id,
        }
    from repro.sched.workloads import run_sched_workload

    report = run_sched_workload(workload.name,
                                workers=clean.get("workers", 4),
                                seed=clean.get("seed", 7),
                                mode=clean.get("mode", "threaded"),
                                speculate=bool(clean.get("speculate", 0)))
    return {
        "mode": mode,
        "workload": workload.name,
        "summary": report.summary,
        "output": list(report.output_lines),
        "stats": dict(report.stats),
        "log": list(report.log_lines),
    }
