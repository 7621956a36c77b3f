"""An OpenMP-style shared-memory parallel runtime on Python threads.

The paper's Assignments 2–5 have students write OpenMP/C programs on a
Raspberry Pi.  This package is the Python substrate those programs run on
here: a faithful model of OpenMP's *programming constructs* — fork-join
parallel regions, work-sharing loops with static/dynamic/guided schedules,
reductions, barriers, critical sections, atomics, single/master — executed
on real :mod:`threading` threads.

Because of the GIL this runtime is about *semantics*, not speedup; the
performance-shaped experiments (speedup curves, schedule comparisons) run
the same constructs against the simulated Raspberry Pi's timing model
(:mod:`repro.rpi`), the way the paper's own numbers come from its Pi.

Public API
----------
- :class:`OpenMP` — the runtime facade (``omp = OpenMP(num_threads=4)``).
- :class:`ParallelContext` — per-thread view inside a region
  (``ctx.thread_num``, ``ctx.num_threads``, ``ctx.barrier()``,
  ``ctx.critical()``, ``ctx.single()``, ``ctx.master()``).
- :class:`Schedule` — loop schedules (``Schedule.static(chunk=2)``,
  ``Schedule.dynamic(chunk=1)``, ``Schedule.guided()``).
- :class:`Reduction` — reduction operators with identities.
- :class:`SharedArray`, :class:`AtomicCounter` — shared state helpers.
- :class:`Shared` + :class:`RaceDetector` — an instrumented shared
  variable that detects data races (Assignment 2's "shared memory
  concerns" patternlet).
"""

from repro.openmp.loops import (
    LoopTrace,
    OrderedRegion,
    Schedule,
    ScheduleKind,
    chunk_iterations,
)
from repro.openmp.race import RaceDetector, RaceError, Shared
from repro.openmp.reduction import Reduction
from repro.openmp.runtime import (
    OpenMP,
    ParallelContext,
    ParallelError,
    TeamWorker,
)
from repro.openmp.sync import AtomicCounter, SharedArray
from repro.openmp.tasks import TaskGroup, TaskHandle

__all__ = [
    "AtomicCounter",
    "LoopTrace",
    "OrderedRegion",
    "OpenMP",
    "ParallelContext",
    "ParallelError",
    "RaceDetector",
    "RaceError",
    "Reduction",
    "Schedule",
    "ScheduleKind",
    "Shared",
    "SharedArray",
    "TaskGroup",
    "TaskHandle",
    "TeamWorker",
    "chunk_iterations",
]
