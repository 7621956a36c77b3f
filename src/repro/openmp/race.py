"""Data-race detection for shared variables.

Assignment 2's third patternlet teaches "shared memory concerns": with one
bank of memory, variable scope matters, and an unsynchronised shared
update is a data race that is "difficult to reproduce and debug"
(Assignment 4's first question).

:class:`Shared` is an instrumented shared variable.  Every access records
(thread id, epoch, locks held, kind).  Two accesses **conflict** when they
come from different threads in the same epoch, at least one is a write,
and the threads held no common lock.  Epochs advance at barriers, which
model OpenMP's implied synchronisation points — accesses separated by a
barrier are ordered, not racing.  This is a simplified happens-before
detector: it is *sound for the patternlet programs* (every reported race
is real because within an epoch the runtime provides no other ordering)
and precise enough to show the classic private-vs-shared fix.

Typical use::

    detector = RaceDetector()
    x = Shared(0, "x", detector)
    def body(ctx):
        x.write(x.read(ctx) + 1, ctx)         # racy read-modify-write
    OpenMP(4).parallel(body)
    detector.races()                          # -> non-empty

    def fixed(ctx):
        with ctx.critical():
            with detector.holding(ctx, "crit"):
                x.write(x.read(ctx) + 1, ctx)  # serialized: no race
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import threading
from dataclasses import dataclass
from typing import Iterator

from repro.openmp.runtime import ParallelContext
from repro.telemetry import instrument as telemetry

__all__ = ["AccessKind", "Access", "Race", "RaceError", "RaceDetector", "Shared"]


@dataclass(frozen=True)
class Access:
    """One recorded access to a shared variable."""

    variable: str
    thread_num: int
    epoch: int
    is_write: bool
    locks: frozenset[str]


@dataclass(frozen=True)
class Race:
    """A pair of conflicting accesses."""

    first: Access
    second: Access

    def __str__(self) -> str:
        kind = "write/write" if self.first.is_write and self.second.is_write else "read/write"
        return (
            f"data race on {self.first.variable!r}: {kind} by threads "
            f"{self.first.thread_num} and {self.second.thread_num} in epoch "
            f"{self.first.epoch} with no common lock"
        )


class RaceError(RuntimeError):
    """Raised by :meth:`RaceDetector.check` when races were observed."""

    def __init__(self, races: list[Race]) -> None:
        self.races = races
        super().__init__(
            f"{len(races)} data race(s) detected: " + "; ".join(map(str, races[:3]))
        )


class RaceDetector:
    """Collects accesses and finds conflicting pairs."""

    def __init__(self) -> None:
        self._accesses: list[Access] = []
        self._guard = threading.Lock()
        self._epoch = 0
        self._held: dict[int, set[str]] = {}

    # -- epoch / lock bookkeeping -----------------------------------------

    def advance_epoch(self) -> None:
        """Call at synchronisation points (barriers, region boundaries)."""
        with self._guard:
            self._epoch += 1

    @contextlib.contextmanager
    def holding(self, ctx: ParallelContext, lock_name: str) -> Iterator[None]:
        """Declare that the current thread holds a named lock."""
        with self._guard:
            self._held.setdefault(ctx.thread_num, set()).add(lock_name)
        try:
            yield
        finally:
            with self._guard:
                self._held[ctx.thread_num].discard(lock_name)

    def record(self, variable: str, ctx: ParallelContext, is_write: bool) -> None:
        with self._guard:
            self._accesses.append(
                Access(
                    variable=variable,
                    thread_num=ctx.thread_num,
                    epoch=self._epoch,
                    is_write=is_write,
                    locks=frozenset(self._held.get(ctx.thread_num, ())),
                )
            )
        telemetry.inc("omp.race.accesses")
        if is_write:
            telemetry.inc("omp.race.writes")

    # -- analysis ----------------------------------------------------------

    def races(self, limit: int | None = None) -> list[Race]:
        """Conflicting access pairs observed so far, in (first, second) order.

        Accesses with the same thread, kind and lock set conflict with the
        same partners, so each (variable, epoch) group is bucketed by that
        class and every access only visits the later accesses of classes
        that conflict with its own.  The work grows with the accesses
        times the number of classes, plus the races reported, so a log
        whose accesses all share a lock costs one pass.  Pass ``limit`` to
        stop after that many races — enough for "is this program racy?"
        checks on long racy loops.
        """
        with self._guard:
            accesses = list(self._accesses)
        with telemetry.span("omp.race.analysis", category="race",
                            accesses=len(accesses)):
            found = self._find_conflicts(accesses, limit)
        if found:
            telemetry.inc("omp.race.conflicts", len(found))
            telemetry.instant("omp.race.detected", variable=found[0].first.variable,
                              conflicts=len(found))
        return found

    @staticmethod
    def _find_conflicts(accesses: list[Access], limit: int | None) -> list[Race]:
        found: list[Race] = []
        by_key: dict[tuple[str, int], list[Access]] = {}
        for access in accesses:
            by_key.setdefault((access.variable, access.epoch), []).append(access)
        for group in by_key.values():
            # Ascending indices of each (thread, kind, locks) class, and for
            # each class the index lists of the classes it conflicts with.
            keys = [(a.thread_num, a.is_write, a.locks) for a in group]
            classes: dict[tuple[int, bool, frozenset[str]], list[int]] = {}
            for index, key in enumerate(keys):
                classes.setdefault(key, []).append(index)
            partners = {
                key: [
                    indices
                    for other, indices in classes.items()
                    if key[0] != other[0] and (key[1] or other[1]) and not key[2] & other[2]
                ]
                for key in classes
            }
            for i, key in enumerate(keys):
                # Later partners in ascending order, as the pairwise scan
                # met them, so ``limit`` cuts the list at the same place.
                tails = [
                    map(indices.__getitem__, range(bisect.bisect_right(indices, i), len(indices)))
                    for indices in partners[key]
                ]
                for j in heapq.merge(*tails):
                    found.append(Race(group[i], group[j]))
                    if limit is not None and len(found) >= limit:
                        return found
        return found

    def has_race(self) -> bool:
        """Fast boolean check (stops at the first conflicting pair)."""
        return bool(self.races(limit=1))

    def check(self) -> None:
        """Raise :class:`RaceError` if any race was observed."""
        races = self.races()
        if races:
            raise RaceError(races)

    def reset(self) -> None:
        with self._guard:
            self._accesses.clear()
            self._epoch = 0
            self._held.clear()


class Shared:
    """An instrumented shared variable.

    Reads and writes go through the detector.  The value itself is stored
    unsynchronised on purpose — this class *observes* races, it does not
    prevent them.
    """

    def __init__(self, value: object, name: str, detector: RaceDetector) -> None:
        self._value = value
        self.name = name
        self._detector = detector

    def read(self, ctx: ParallelContext) -> object:
        self._detector.record(self.name, ctx, is_write=False)
        return self._value

    def write(self, value: object, ctx: ParallelContext) -> None:
        self._detector.record(self.name, ctx, is_write=True)
        self._value = value

    @property
    def value(self) -> object:
        """Unsynchronised peek (for assertions after the join)."""
        return self._value
