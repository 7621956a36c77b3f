"""Process-wide runtime knobs resolved from the environment.

One rule for every blocking runtime (OpenMP joins, MPI deadlock
detection): an explicit constructor argument wins, else the
``REPRO_TIMEOUT_S`` environment variable, else the runtime's
compiled-in default.  Slow CI machines raise the ceiling with one
exported variable instead of editing source.

The same rule selects the numeric-kernel backend: an explicit argument
wins, else ``REPRO_KERNELS`` (``numpy`` or ``python``), else the
compiled-in default (``numpy``).  ``python`` keeps every hot loop on
the scalar reference implementations — the correctness oracle the
:mod:`repro.kernels` property tests compare against.

The multiprocess layer has two knobs of its own: ``REPRO_MP_WORKERS``
(pool size; default ``min(4, cpu_count)``, but never below 2 so the
transport is exercised even on one core) and ``REPRO_MP_START``
(``fork``/``spawn``/``forkserver``; default prefers ``fork``).
"""

from __future__ import annotations

import multiprocessing
import os

__all__ = [
    "REPRO_TIMEOUT_ENV",
    "resolve_timeout_s",
    "REPRO_KERNELS_ENV",
    "KERNEL_BACKENDS",
    "resolve_kernels_backend",
    "REPRO_MP_WORKERS_ENV",
    "REPRO_MP_START_ENV",
    "SCHED_MODES",
    "resolve_sched_mode",
    "resolve_mp_workers",
    "resolve_mp_start_method",
]

#: Environment override for every runtime's deadlock/join ceiling.
REPRO_TIMEOUT_ENV = "REPRO_TIMEOUT_S"

#: Environment override for the numeric-kernel backend.
REPRO_KERNELS_ENV = "REPRO_KERNELS"

#: Valid kernel backends: vectorized NumPy fast path, scalar oracle.
KERNEL_BACKENDS = ("numpy", "python")

#: Environment override for the multiprocess pool size.
REPRO_MP_WORKERS_ENV = "REPRO_MP_WORKERS"

#: Environment override for the multiprocessing start method.
REPRO_MP_START_ENV = "REPRO_MP_START"

#: Valid executor modes: in-process threads, or a process pool.
SCHED_MODES = ("threaded", "mp")


def resolve_sched_mode(explicit: str | None = None,
                       default: str = "threaded") -> str:
    """Validate an executor mode (scheduling is identical in both)."""
    value = default if explicit is None else explicit
    if value not in SCHED_MODES:
        raise ValueError(
            f"unknown executor mode {value!r}; expected one of {SCHED_MODES}"
        )
    return value


def resolve_mp_workers(explicit: int | None = None) -> int:
    """Pool size: ``explicit`` > ``$REPRO_MP_WORKERS`` > ``min(4, cores)``.

    The default never drops below 2: on a single-core box a 2-process
    pool still exercises the cross-process transport (correctness is
    core-count independent; only the speedup is).
    """
    value = explicit
    if value is None:
        raw = os.environ.get(REPRO_MP_WORKERS_ENV)
        if raw is not None and raw.strip():
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(
                    f"{REPRO_MP_WORKERS_ENV}={raw!r} is not an integer"
                ) from None
        else:
            value = max(2, min(4, os.cpu_count() or 1))
    if value < 1:
        raise ValueError(f"mp worker count must be >= 1, got {value}")
    return int(value)


def resolve_mp_start_method(explicit: str | None = None) -> str:
    """Start method: ``explicit`` > ``$REPRO_MP_START`` > prefer ``fork``.

    ``fork`` is the cheap default where available (pools are created
    before any drain thread starts, so forking is safe); platforms
    without it fall back to whatever the interpreter defaults to.
    """
    value = explicit
    if value is None:
        raw = os.environ.get(REPRO_MP_START_ENV)
        value = raw.strip().lower() if raw is not None and raw.strip() else None
    available = multiprocessing.get_all_start_methods()
    if value is None:
        value = "fork" if "fork" in available else available[0]
    if value not in available:
        raise ValueError(
            f"unknown start method {value!r}; expected one of {available}"
        )
    return value


def resolve_kernels_backend(
    explicit: str | None = None, default: str = "numpy"
) -> str:
    """Resolve the kernel backend: ``explicit`` > ``$REPRO_KERNELS`` > default."""
    value = explicit
    if value is None:
        raw = os.environ.get(REPRO_KERNELS_ENV)
        value = raw.strip().lower() if raw is not None and raw.strip() else default
    if value not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {value!r}; expected one of {KERNEL_BACKENDS}"
        )
    return value


def resolve_timeout_s(explicit: float | None, default: float) -> float:
    """Resolve a timeout: ``explicit`` > ``$REPRO_TIMEOUT_S`` > ``default``."""
    if explicit is not None:
        if explicit <= 0:
            raise ValueError(f"timeout must be > 0, got {explicit}")
        return float(explicit)
    raw = os.environ.get(REPRO_TIMEOUT_ENV)
    if raw is not None and raw.strip():
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"{REPRO_TIMEOUT_ENV}={raw!r} is not a number"
            ) from None
        if value <= 0:
            raise ValueError(f"{REPRO_TIMEOUT_ENV} must be > 0, got {value}")
        return value
    return float(default)
