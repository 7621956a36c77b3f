"""A deterministic process pool: the GIL escape hatch.

The threaded :class:`~repro.sched.executor.WorkStealingExecutor` gives
wall-clock concurrency for I/O and NumPy-released sections, but
pure-Python task bodies still serialise behind the GIL — the one paper
claim (real multicore speedup) a thread pool cannot demonstrate.  This
module supplies the execution vehicle for ``mode="mp"``: one child
process per scheduler worker, connected by a ``multiprocessing.Pipe``
pair, executing :class:`~repro.sched.core.Call` payloads.

Design rules:

- **Scheduling stays in the parent.**  Children never pick work; the
  executor decides (worker, task) exactly as in threaded mode and then
  ships the body to *that* worker's child.  The canonical event log is
  therefore byte-identical between modes — mp changes where a task body
  runs, never which worker runs it or when.
- **Shared memory for arrays, pickle for the rest.**  A NumPy array
  argument of at least :data:`SHM_MIN_BYTES` is copied once into a
  ``multiprocessing.shared_memory`` segment and shipped as a name +
  shape + dtype triple; the child maps it zero-copy.  Smaller or
  non-array payloads ride the pipe as pickles — the copy is cheaper
  than the segment bookkeeping.  The parent owns every segment and
  unlinks it as soon as the reply arrives.
- **Fail loudly.**  A child that dies mid-task surfaces as
  :class:`ProcPoolError` in the parent; exceptions raised by the task
  body are pickled back and re-raised so retry/fault handling in the
  executor behaves exactly as threaded mode.

Pools are created before any drain thread starts, so the default
``fork`` start method is safe; ``REPRO_MP_START`` selects ``spawn`` or
``forkserver`` where fork is unavailable or unwanted.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Sequence

from repro.config import resolve_mp_start_method, resolve_mp_workers
from repro.sched.core import Call

__all__ = [
    "SHM_MIN_BYTES",
    "ProcPoolError",
    "ProcessPool",
    "export_call",
    "release_segments",
]

#: Arrays below this size ride the pipe as pickles; at or above it they
#: go through a shared-memory segment (one copy in the parent, zero in
#: the child).  64 KiB is where segment setup stops dominating.
SHM_MIN_BYTES = 64 * 1024


class ProcPoolError(RuntimeError):
    """A pool worker died, timed out, or the transport failed."""


@dataclass(frozen=True)
class _ShmRef:
    """A shared-memory-resident ndarray: name + shape + dtype, no bytes."""

    name: str
    shape: tuple[int, ...]
    dtype: str


def _export_value(value: Any, segments: list[shared_memory.SharedMemory]) -> Any:
    """Replace a large ndarray (or a list/tuple of them) with shm refs."""
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a baked-in dep
        return value
    if isinstance(value, np.ndarray) and value.nbytes >= SHM_MIN_BYTES:
        array = np.ascontiguousarray(value)
        segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
        segments.append(segment)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        return _ShmRef(segment.name, array.shape, array.dtype.str)
    if isinstance(value, (list, tuple)):
        out = [_export_value(item, segments) for item in value]
        return type(value)(out) if isinstance(value, tuple) else out
    return value


def export_call(call: Call) -> tuple[Call, list[shared_memory.SharedMemory]]:
    """Rewrite a :class:`Call` so its big arrays travel via shared memory.

    Returns the rewritten call and the parent-owned segments backing it;
    the caller must :func:`release_segments` once the reply is in.
    """
    segments: list[shared_memory.SharedMemory] = []
    args = tuple(_export_value(arg, segments) for arg in call.args)
    kwargs = {key: _export_value(val, segments)
              for key, val in call.kwargs.items()}
    if not segments:
        return call, segments
    return Call(call.fn, *args, **kwargs), segments


def release_segments(segments: Sequence[shared_memory.SharedMemory]) -> None:
    """Close and unlink parent-owned segments (idempotent, best-effort)."""
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):  # already reaped
            pass


def _resolve_value(value: Any, opened: list[shared_memory.SharedMemory]) -> Any:
    """Child side: map shm refs back into (copied) ndarrays."""
    if isinstance(value, _ShmRef):
        import numpy as np

        segment = shared_memory.SharedMemory(name=value.name)
        opened.append(segment)
        view = np.ndarray(value.shape, dtype=np.dtype(value.dtype),
                          buffer=segment.buf)
        # Copy out: the parent unlinks the segment right after the reply,
        # so the task result must never alias the mapping.
        return view.copy()
    if isinstance(value, (list, tuple)):
        out = [_resolve_value(item, opened) for item in value]
        return type(value)(out) if isinstance(value, tuple) else out
    return value


def _worker_main(conn, worker_index: int) -> None:
    """Pool child: receive ``(seq, Call)``, reply ``(seq, ok, payload)``.

    A ``None`` message is the shutdown sentinel.  Forked children may
    inherit an active telemetry or fault-injection session; both are
    reset so a shipped task body runs plain (hooks fire parent-side).
    """
    try:
        from repro import faults, telemetry

        if telemetry.is_enabled():
            telemetry.disable()
        if faults.is_enabled():
            faults.disable()
    except Exception:  # pragma: no cover - never fail startup on cleanup
        pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        seq, call = message
        opened: list[shared_memory.SharedMemory] = []
        try:
            args = tuple(_resolve_value(arg, opened) for arg in call.args)
            kwargs = {key: _resolve_value(val, opened)
                      for key, val in call.kwargs.items()}
            value = call.fn(*args, **kwargs)
            reply = (seq, True, value)
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            reply = (seq, False, exc)
        finally:
            for segment in opened:
                segment.close()
        try:
            conn.send(reply)
        except Exception:
            try:  # the value (or exception) itself failed to pickle
                conn.send((seq, False,
                           ProcPoolError(f"unpicklable reply: {reply[2]!r}")))
            except (BrokenPipeError, OSError):
                break
    conn.close()


class _PoolWorker:
    """One child and its pipe.  ``seq`` numbers the calls sent on this
    slot (by :meth:`ProcessPool.run` and :meth:`ProcessPool.scatter`
    alike); it only grows, so a reply whose seq is below the one awaited
    belongs to a call that already timed out."""

    __slots__ = ("process", "conn", "lock", "seq")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.seq = 0

    def send(self, call: Call) -> int:
        """Ship ``call`` under the next seq (caller holds the lock)."""
        self.seq += 1
        self.conn.send((self.seq, call))
        return self.seq

    def receive(self, seq: int, budget: float, index: int) -> tuple[bool, Any]:
        """``(ok, payload)`` of the reply to ``seq``, waiting at most
        ``budget`` seconds; late replies to earlier calls are dropped."""
        deadline = time.monotonic() + budget
        while True:
            if not self.conn.poll(max(0.0, deadline - time.monotonic())):
                raise ProcPoolError(
                    f"pool worker {index} timed out after {budget:.1f}s"
                )
            got, ok, payload = self.conn.recv()
            if got == seq:
                return ok, payload


class ProcessPool:
    """A fixed set of worker processes addressed by worker index.

    The executor maps scheduler worker ``w`` to pool child ``w % size``
    — a fixed assignment, so the task→process mapping is as deterministic
    as the task→worker mapping itself.
    """

    def __init__(self, n_workers: int | None = None, *,
                 start_method: str | None = None,
                 timeout_s: float = 60.0) -> None:
        self.n_workers = resolve_mp_workers(n_workers)
        self.start_method = resolve_mp_start_method(start_method)
        self.timeout_s = float(timeout_s)
        self._closed = False
        context = multiprocessing.get_context(self.start_method)
        self._workers: list[_PoolWorker] = []
        for index in range(self.n_workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main, args=(child_conn, index),
                name=f"repro-pool-{index}", daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(_PoolWorker(process, parent_conn))

    # -- execution -----------------------------------------------------------

    def run(self, worker: int, call: Call,
            timeout: float | None = None) -> Any:
        """Execute one :class:`Call` on worker ``worker % size``, blocking."""
        if self._closed:
            raise ProcPoolError("pool is closed")
        slot = self._workers[worker % self.n_workers]
        shipped, segments = export_call(call)
        budget = self.timeout_s if timeout is None else float(timeout)
        try:
            with slot.lock:
                try:
                    ok, payload = slot.receive(slot.send(shipped), budget,
                                               worker % self.n_workers)
                except ProcPoolError as exc:
                    raise ProcPoolError(f"{exc} on {call!r}") from None
                except (EOFError, BrokenPipeError, OSError) as exc:
                    raise ProcPoolError(
                        f"pool worker {worker % self.n_workers} died "
                        f"running {call!r}"
                    ) from exc
        finally:
            release_segments(segments)
        if ok:
            return payload
        if isinstance(payload, BaseException):
            raise payload
        raise ProcPoolError(str(payload))

    def scatter(self, calls: Sequence[Call],
                timeout: float | None = None) -> list[Any]:
        """Run ``calls[i]`` on worker ``i % size`` concurrently; ordered results.

        All sends go out before any receive, so every child computes in
        parallel; replies pair up with their calls by seq.  The first
        failure is re-raised after all replies (and segments) are
        accounted for.
        """
        if self._closed:
            raise ProcPoolError("pool is closed")
        budget = self.timeout_s if timeout is None else float(timeout)
        all_segments: list[shared_memory.SharedMemory] = []
        results: list[Any] = [None] * len(calls)
        failure: BaseException | None = None
        for slot in self._workers:
            slot.lock.acquire()
        try:
            sent: list[list[tuple[int, int]]] = [[] for _ in self._workers]
            for w, slot in enumerate(self._workers):
                for i in range(w, len(calls), self.n_workers):
                    shipped, segments = export_call(calls[i])
                    all_segments.extend(segments)
                    sent[w].append((i, slot.send(shipped)))
            for w, slot in enumerate(self._workers):
                for i, seq in sent[w]:
                    ok, payload = slot.receive(seq, budget, w)
                    if ok:
                        results[i] = payload
                    elif failure is None:
                        failure = (payload if isinstance(payload, BaseException)
                                   else ProcPoolError(str(payload)))
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise ProcPoolError("pool worker died mid-scatter") from exc
        finally:
            for slot in self._workers:
                slot.lock.release()
            release_segments(all_segments)
        if failure is not None:
            raise failure
        return results

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the children down (idempotent); stragglers are terminated."""
        if self._closed:
            return
        self._closed = True
        for slot in self._workers:
            with slot.lock:
                try:
                    slot.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                try:
                    slot.conn.close()
                except OSError:
                    pass
        for slot in self._workers:
            slot.process.join(timeout=5.0)
            if slot.process.is_alive():  # pragma: no cover - hung child
                slot.process.terminate()
                slot.process.join(timeout=1.0)

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
