"""Content-addressed result cache: hash(workload + spec + seed) → result.

The memoisation layer of the serving path: a job whose inputs are
byte-identical to a previous run returns the stored result instead of
re-executing (the warm-run speedup ``python -m repro sched --cache``
demonstrates).  Keys are SHA-256 over a *canonical* rendering of the
key parts — dicts and sets are sorted, so the fingerprint is stable
across processes and ``PYTHONHASHSEED`` values, the same discipline as
:func:`repro.mapreduce.engine.stable_partition`.

Two tiers: an in-memory dict (always), and an optional directory of
pickle files so hits survive across processes — that is what makes the
second CLI invocation warm.  Hit/miss counters feed both the CLI report
and ``repro.telemetry`` (``sched.cache.hits`` / ``sched.cache.misses``).

The disk tier is **LRU-capped**: ``max_disk_entries`` / ``max_disk_bytes``
bound it, recency is the entry file's mtime (refreshed on every disk
hit), and :meth:`ResultCache.evict` removes oldest-first until the caps
hold — automatically after each ``put``, or on demand via the
``python -m repro sched --cache-evict`` maintenance path.  Without caps
the tier grows without bound, exactly the failure mode the ROADMAP
called out.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from typing import Any, Mapping, Sequence

from repro.telemetry import instrument as telemetry

__all__ = ["canonical_repr", "fingerprint", "ResultCache"]

_MISSING = object()

#: Exact types whose repr is already canonical.  Checked by identity
#: first, so the common key part skips the ``Mapping`` ABC check.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def canonical_repr(obj: Any) -> str:
    """A repr that is independent of dict/set iteration order."""
    if type(obj) in _SCALARS:
        return repr(obj)
    if isinstance(obj, Mapping):
        items = sorted(
            (canonical_repr(k), canonical_repr(v)) for k, v in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(canonical_repr(x) for x in obj)) + "}"
    if isinstance(obj, (list, tuple)):
        inner = ",".join(canonical_repr(x) for x in obj)
        return ("[%s]" if isinstance(obj, list) else "(%s)") % inner
    return repr(obj)


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical rendering of ``parts``."""
    blob = canonical_repr(parts).encode("utf-8", "backslashreplace")
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """Keyed result store with hit/miss accounting.

    ``directory=None`` keeps results in memory only; with a directory,
    every entry is also written as ``<key>.pkl`` (atomic rename) and
    read back on a memory miss — the cross-process tier.
    """

    def __init__(
        self,
        directory: str | None = None,
        max_disk_entries: int | None = None,
        max_disk_bytes: int | None = None,
    ) -> None:
        if max_disk_entries is not None and max_disk_entries < 1:
            raise ValueError(
                f"max_disk_entries must be >= 1, got {max_disk_entries}"
            )
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError(
                f"max_disk_bytes must be >= 1, got {max_disk_bytes}"
            )
        self.directory = directory
        self.max_disk_entries = max_disk_entries
        self.max_disk_bytes = max_disk_bytes
        self._lock = threading.Lock()
        self._memory: dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{key}.pkl")

    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key``; counts a hit or a miss either way."""
        value = _MISSING
        with self._lock:
            if key in self._memory:
                value = self._memory[key]
        if value is _MISSING and self.directory is not None:
            try:
                with open(self._path(key), "rb") as fh:
                    value = pickle.load(fh)
            except (OSError, pickle.UnpicklingError, EOFError):
                value = _MISSING
            else:
                with self._lock:
                    self._memory[key] = value
                try:
                    # Refresh mtime so the disk tier's LRU order tracks use.
                    os.utime(self._path(key))
                except OSError:
                    pass
        with self._lock:
            if value is _MISSING:
                self.misses += 1
            else:
                self.hits += 1
        if value is _MISSING:
            telemetry.inc("sched.cache.misses")
            return default
        telemetry.instant("sched.cache.hit", key=key[:16])
        telemetry.inc("sched.cache.hits")
        return value

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._memory[key] = value
        if self.directory is not None:
            # Write-then-rename so a concurrent reader never sees a torn file.
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh)
                os.replace(tmp, self._path(key))
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            if self.max_disk_entries is not None or self.max_disk_bytes is not None:
                self.evict()

    # -- disk-tier maintenance (LRU) -----------------------------------------

    def _disk_entries(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) for every disk entry; skips vanished files."""
        assert self.directory is not None
        entries = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def disk_stats(self) -> dict[str, int]:
        """Size of the on-disk tier: ``{"entries": n, "bytes": total}``."""
        if self.directory is None:
            return {"entries": 0, "bytes": 0}
        entries = self._disk_entries()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
        }

    def evict(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> list[str]:
        """Remove least-recently-used disk entries until the caps hold.

        Explicit arguments override the instance caps (the CLI
        maintenance path passes them); with neither, the instance caps
        apply.  Returns the removed keys, oldest first.  Evicted entries
        are also dropped from the memory tier so a stale value cannot
        outlive its disk eviction within this process.
        """
        if self.directory is None:
            return []
        cap_entries = max_entries if max_entries is not None else self.max_disk_entries
        cap_bytes = max_bytes if max_bytes is not None else self.max_disk_bytes
        if cap_entries is None and cap_bytes is None:
            return []
        entries = sorted(self._disk_entries())          # oldest mtime first
        total_bytes = sum(size for _, size, _ in entries)
        removed: list[str] = []
        index = 0
        while index < len(entries) and (
            (cap_entries is not None and len(entries) - index > cap_entries)
            or (cap_bytes is not None and total_bytes > cap_bytes)
        ):
            _mtime, size, path = entries[index]
            index += 1
            try:
                os.unlink(path)
            except OSError:
                continue
            total_bytes -= size
            key = os.path.splitext(os.path.basename(path))[0]
            removed.append(key)
            with self._lock:
                self._memory.pop(key, None)
                self.evictions += 1
        if removed:
            telemetry.inc("sched.cache.evictions", len(removed))
        return removed

    def get_or_compute(self, key_parts: Sequence[Any], compute) -> tuple[Any, bool]:
        """``(value, was_hit)`` for ``fingerprint(*key_parts)``."""
        key = fingerprint(*key_parts)
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value, True
        value = compute()
        self.put(key, value)
        return value, False

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._memory),
                "evictions": self.evictions,
            }

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
