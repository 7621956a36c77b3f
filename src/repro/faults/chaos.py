"""Named chaos scenarios for ``python -m repro chaos``.

Each workload pairs a deterministic :class:`FaultPlan` with a program
that *survives* it, and reports injected-vs-recovered counts — one
command demonstrating fault → detection → recovery end to end:

- ``mapreduce`` — map-worker deaths (planned and seeded-random) plus a
  shuffle corruption caught by checksum; the engine's re-execution
  recovers, and the output is byte-equal to a fault-free sequential run.
- ``openmp`` — a thread crash in the first parallel region and a barrier
  stall; a retry policy re-runs the region.
- ``mpi`` — a dropped, a duplicated, and a reordered (delayed) message
  on a ring exchange; an ack/retransmit protocol with sequence-number
  dedup recovers all three.
- ``drugdesign`` — seeded per-ligand transient failures absorbed by a
  retry policy with decorrelated-jitter backoff on a fake clock.
- ``stencil`` — a dropped halo message in the heat-diffusion exchange;
  a short deadlock timeout detects it and a whole-run retry converges
  to the fault-free sequential answer (float-for-float).
- ``collectives`` — messages dropped inside ``bcast`` and ``gather``;
  detection by recv timeout, recovery by re-running the collective
  phase (the dropped channels' invocation indices have advanced, so the
  retry goes clean).
- ``partition`` — :func:`partition_rank` cuts one rank off entirely; a
  master with a :class:`~repro.faults.policies.Deadline` budget detects
  the silent worker and reassigns its items, finishing with the full
  answer despite the dead rank.

Every scenario is replayable: the same ``--seed`` produces byte-identical
injected-event logs (see :meth:`FaultInjector.log_lines`).

Runtime imports live inside the workload functions (the CLI pattern of
:mod:`repro.telemetry.workloads`) so importing :mod:`repro.faults` does
not drag every runtime in.

Scenarios register as the ``chaos`` mode (runner + plan builder) of the
unified :mod:`repro.workloads` registry — the only name table they
appear in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import workloads as registry
from repro.faults.clock import FakeClock
from repro.faults.injector import FaultInjector, TransientFault
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.faults.policies import Deadline, RetryError, RetryPolicy

__all__ = [
    "ChaosReport",
    "chaos_workload_names",
    "named_plan",
    "partition_rank",
    "run_chaos",
]


@dataclass
class ChaosReport:
    """Outcome of one chaos scenario."""

    workload: str
    seed: int
    plan: FaultPlan
    injected_by_kind: dict[str, int]
    recovered: int
    detail: list[str] = field(default_factory=list)
    log_lines: list[str] = field(default_factory=list)
    ok: bool = False

    @property
    def injected_total(self) -> int:
        return sum(self.injected_by_kind.values())

    def render(self) -> str:
        lines = [
            f"chaos {self.workload!r} seed={self.seed}: "
            f"{self.injected_total} fault(s) injected, "
            f"{self.recovered} recovery action(s), "
            f"{'OK' if self.ok else 'FAILED'}",
        ]
        if self.injected_by_kind:
            by_kind = ", ".join(f"{k}={v}" for k, v in self.injected_by_kind.items())
            lines.append(f"  injected: {by_kind}")
        lines.extend(f"  {line}" for line in self.detail)
        lines.append("  injected-event log:")
        lines.extend(f"    {line}" for line in self.log_lines)
        return "\n".join(lines)


def partition_rank(rank: int) -> tuple[FaultRule, FaultRule]:
    """Rules that partition one MPI rank from the network: every message
    to or from it is dropped (pair with a deadline/timeout to observe)."""
    return (
        FaultRule("mpi.send", FaultKind.DROP, every=1, where={"dest": rank},
                  note=f"partition: to rank {rank}"),
        FaultRule("mpi.send", FaultKind.DROP, every=1, where={"source": rank},
                  note=f"partition: from rank {rank}"),
    )


# -- plans -------------------------------------------------------------------


def _mapreduce_plan(seed: int) -> FaultPlan:
    return FaultPlan(name="mapreduce", seed=seed, rules=(
        # A guaranteed worker death: attempt 0 of map task 0 dies.
        FaultRule("mr.task", FaultKind.CRASH, at=(0,),
                  where={"phase": "map", "task": 0}, note="planned map death"),
        # Seeded extra deaths: ~20% of map attempts, at most 2 in total.
        FaultRule("mr.task", FaultKind.CRASH, probability=0.2,
                  where={"phase": "map"}, max_fires=2, note="random map death"),
        # One shuffle corruption, caught by checksum and re-executed.
        FaultRule("mr.shuffle", FaultKind.CORRUPT, at=(0,),
                  where={"task": 1}, note="shuffle corruption"),
    ))


def _openmp_plan(seed: int) -> FaultPlan:
    return FaultPlan(name="openmp", seed=seed, rules=(
        FaultRule("omp.thread", FaultKind.CRASH, at=(0,),
                  where={"thread": 1}, note="thread 1 dies in region 0"),
        FaultRule("omp.barrier", FaultKind.STALL, at=(0,),
                  where={"thread": 0}, delay_s=0.01, note="barrier stall"),
    ))


def _mpi_plan(seed: int) -> FaultPlan:
    return FaultPlan(name="mpi", seed=seed, rules=(
        FaultRule("mpi.send", FaultKind.DROP, at=(0,),
                  where={"dest": 1, "tag": _DATA_TAG}, note="drop 0->1"),
        FaultRule("mpi.send", FaultKind.DUPLICATE, at=(0,),
                  where={"source": 1, "tag": _DATA_TAG}, note="duplicate 1->2"),
        FaultRule("mpi.send", FaultKind.DELAY, at=(0,), delay_slots=4,
                  where={"source": 2, "tag": _DATA_TAG}, note="reorder 2->next"),
    ))


def _drugdesign_plan(seed: int) -> FaultPlan:
    return FaultPlan(name="drugdesign", seed=seed, rules=(
        FaultRule("dd.score", FaultKind.EXCEPTION, probability=0.25,
                  note="transient scoring failure"),
    ))


def _stencil_plan(seed: int) -> FaultPlan:
    return FaultPlan(name="stencil", seed=seed, rules=(
        # The leftmost rank's very first halo send (rightward shift,
        # channel 0->1): its neighbour's sendrecv starves and times out.
        FaultRule("mpi.send", FaultKind.DROP, at=(0,),
                  where={"source": 0, "dest": 1, "tag": 1},
                  note="drop first halo 0->1"),
    ))


def _collectives_plan(seed: int) -> FaultPlan:
    return FaultPlan(name="collectives", seed=seed, rules=(
        # Inside bcast: root's copy to rank 1 vanishes (tag base 1_000_000).
        FaultRule("mpi.send", FaultKind.DROP, at=(0,),
                  where={"dest": 1, "tag": 1_000_000},
                  note="drop bcast to rank 1"),
        # Inside gather: rank 2's contribution to root vanishes
        # (tag base 1_000_002).
        FaultRule("mpi.send", FaultKind.DROP, at=(0,),
                  where={"source": 2, "tag": 1_000_002},
                  note="drop gather from rank 2"),
    ))


def _partition_plan(seed: int) -> FaultPlan:
    return FaultPlan(name="partition", seed=seed, rules=partition_rank(2))


def named_plan(workload: str, seed: int) -> FaultPlan:
    """The default plan the CLI runs for ``workload``."""
    entry = registry.get(workload)
    if entry.chaos_plan is None:
        raise KeyError(workload)
    return entry.chaos_plan(seed)


# -- workloads ---------------------------------------------------------------


def _run_mapreduce(injector: FaultInjector, seed: int, threads: int) -> tuple[int, list[str], bool]:
    from repro.mapreduce.engine import MapReduceEngine
    from repro.mapreduce.jobs import word_count_job
    from repro.telemetry.workloads import DOCUMENTS

    spec = word_count_job(n_reduce_tasks=4)
    records = list(DOCUMENTS)
    engine = MapReduceEngine(n_workers=threads, max_attempts=4)
    result = engine.run(spec, records)
    reference = MapReduceEngine(n_workers=1).run_sequential(spec, records)
    ok = result.output == reference.output
    recovered = result.retries
    detail = [
        f"word count over {len(records)} documents: {len(result.output)} "
        f"distinct words, {result.retries} task re-execution(s)",
        f"output matches fault-free sequential run: {ok}",
    ]
    return recovered, detail, ok


def _run_openmp(injector: FaultInjector, seed: int, threads: int) -> tuple[int, list[str], bool]:
    from repro.openmp.runtime import OpenMP, ParallelError

    omp = OpenMP(num_threads=threads)

    def region() -> int:
        partials = [0] * threads

        def body(ctx) -> None:
            partials[ctx.thread_num] = sum(
                i for i in range(100) if i % ctx.num_threads == ctx.thread_num
            )
            ctx.barrier()

        omp.parallel(body)
        return sum(partials)

    policy = RetryPolicy(max_attempts=3, base_s=0.0, cap_s=0.0,
                         seed=seed, retry_on=(ParallelError,))
    total = policy.call(region, what="omp.region")
    ok = total == sum(range(100))
    # Crashes that fired are exactly the region re-runs the policy absorbed.
    recovered = sum(1 for f in injector.log if f.kind is FaultKind.CRASH)
    detail = [
        f"fork-join region on {threads} threads survived "
        f"{recovered} thread crash(es) via region retry (sum={total})",
    ]
    return recovered, detail, ok


_DATA_TAG = 5
_ACK_TAG = 6


def _run_mpi(injector: FaultInjector, seed: int, threads: int) -> tuple[int, list[str], bool]:
    from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Communicator, MPIError, mpi_run

    n_ranks = max(3, threads)
    messages_per_rank = 2
    ack_timeout_s = 0.25

    def program(comm: Communicator) -> dict[str, int]:
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        stats = {"retransmits": 0, "duplicates_dropped": 0, "reordered": 0}

        # Pipeline both numbered messages to the right (no ack wait in
        # between — that is what lets the DELAY fault reorder them), then
        # interleave: collect data from the left (acking and deduping)
        # and acks from the right, retransmitting unacked messages on
        # timeout.  A strict send-then-receive phase order would deadlock
        # the ring — every rank would wait for acks its neighbour only
        # sends after *its* acks arrive.
        payloads = {
            seq: {"seq": seq, "value": comm.rank * 10 + seq}
            for seq in range(messages_per_rank)
        }
        for seq in range(messages_per_rank):
            comm.send(payloads[seq], dest=right, tag=_DATA_TAG)

        acked: set[int] = set()
        got: dict[int, int] = {}
        arrival: list[int] = []
        while len(acked) < messages_per_rank or len(got) < messages_per_rank:
            try:
                message = comm.recv(source=ANY_SOURCE, tag=ANY_TAG,
                                    timeout=ack_timeout_s)
            except MPIError:
                # Ack overdue: the data message (or its ack) was lost.
                for seq in range(messages_per_rank):
                    if seq not in acked:
                        comm.send(payloads[seq], dest=right, tag=_DATA_TAG)
                        stats["retransmits"] += 1
                continue
            if "value" in message:               # data from the left
                comm.send({"ack": message["seq"]}, dest=left, tag=_ACK_TAG)
                if message["seq"] in got:
                    stats["duplicates_dropped"] += 1
                    continue
                got[message["seq"]] = message["value"]
                arrival.append(message["seq"])
            else:                                # ack from the right
                acked.add(message["ack"])
        if arrival != sorted(arrival):
            stats["reordered"] += 1
        values = [got[s] for s in sorted(got)]
        expected = [left * 10 + s for s in range(messages_per_rank)]
        if values != expected:
            raise AssertionError(
                f"rank {comm.rank}: got {values}, expected {expected}"
            )
        return stats

    all_stats = mpi_run(n_ranks, program)
    recovered = sum(sum(s.values()) for s in all_stats)
    detail = [
        f"ring exchange on {n_ranks} ranks: "
        + ", ".join(
            f"{key}={sum(s[key] for s in all_stats)}"
            for key in ("retransmits", "duplicates_dropped", "reordered")
        ),
        "every rank reassembled its neighbour's stream in seq order",
    ]
    return recovered, detail, True


def _run_drugdesign(injector: FaultInjector, seed: int, threads: int) -> tuple[int, list[str], bool]:
    from repro.drugdesign.ligands import DEFAULT_PROTEIN, generate_ligands
    from repro.drugdesign.solvers import score_ligand

    ligands = generate_ligands(24, max_ligand=5, seed=500)
    policy = RetryPolicy(max_attempts=5, base_s=0.01, cap_s=0.1, seed=seed,
                         clock=FakeClock(), retry_on=(TransientFault,))
    scored: list[tuple[int, str]] = []
    failures_absorbed = 0
    for ligand in ligands:
        before = len([f for f in injector.log if f.site == "dd.score"])
        score = policy.call(
            lambda lig=ligand: score_ligand(lig, DEFAULT_PROTEIN),
            what=f"dd.score:{ligand}",
        )
        failures_absorbed += len(
            [f for f in injector.log if f.site == "dd.score"]
        ) - before
        scored.append((score, ligand))

    max_score = max(score for score, _ in scored)
    best = sorted({lig for score, lig in scored if score == max_score})
    from repro.drugdesign.scoring import lcs_score
    expected_max = max(lcs_score(lig, DEFAULT_PROTEIN) for lig in ligands)
    ok = max_score == expected_max
    detail = [
        f"scored {len(ligands)} ligands; {failures_absorbed} transient "
        f"failure(s) absorbed by retry (max score {max_score}, "
        f"{len(best)} best ligand(s))",
    ]
    return failures_absorbed, detail, ok


def _run_stencil(injector: FaultInjector, seed: int, threads: int) -> tuple[int, list[str], bool]:
    from repro.mpi.comm import MPIError
    from repro.mpi.stencil import heat_mpi, heat_sequential

    n_ranks = max(2, min(4, threads))
    u0 = [100.0] + [0.0] * 22 + [50.0]
    alpha, steps = 0.25, 12
    expected = heat_sequential(u0, alpha=alpha, steps=steps)

    attempts = {"n": 0}

    def run() -> list[float]:
        attempts["n"] += 1
        # A tight deadlock budget: the dropped halo turns into an
        # MPIError in well under a second instead of a long hang.
        return heat_mpi(u0, alpha=alpha, steps=steps, n_ranks=n_ranks,
                        timeout_s=0.6)

    policy = RetryPolicy(max_attempts=3, base_s=0.0, cap_s=0.0, seed=seed,
                         retry_on=(MPIError,))
    result = policy.call(run, what="stencil.heat")
    ok = result == expected
    recovered = attempts["n"] - 1
    detail = [
        f"heat diffusion on {n_ranks} ranks survived a dropped halo "
        f"message: {recovered} whole-run retry(ies)",
        f"result matches heat_sequential float-for-float: {ok}",
    ]
    return recovered, detail, ok


def _run_collectives(injector: FaultInjector, seed: int, threads: int) -> tuple[int, list[str], bool]:
    from repro.mpi.comm import Communicator, MPIError, mpi_run

    n_ranks = max(3, min(4, threads))
    lo, hi = 0, 40
    expected = sum(range(lo, hi))

    def program(comm: Communicator) -> int | None:
        config = comm.bcast({"lo": lo, "hi": hi} if comm.rank == 0 else None,
                            root=0)
        partial = sum(range(config["lo"] + comm.rank, config["hi"], comm.size))
        totals = comm.gather(partial, root=0)
        if comm.rank == 0:
            return sum(totals)
        return None

    attempts = {"n": 0}

    def run() -> int:
        attempts["n"] += 1
        return mpi_run(n_ranks, program, timeout=0.6)[0]

    policy = RetryPolicy(max_attempts=4, base_s=0.0, cap_s=0.0, seed=seed,
                         retry_on=(MPIError,))
    total = policy.call(run, what="mpi.collectives")
    ok = total == expected
    recovered = attempts["n"] - 1
    detail = [
        f"bcast+gather sum on {n_ranks} ranks survived drops inside both "
        f"collectives: {recovered} whole-run retry(ies)",
        f"total={total} (expected {expected})",
    ]
    return recovered, detail, ok


_WORK_TAG, _RESULT_TAG, _STOP_TAG = 11, 12, 13


def _run_partition(injector: FaultInjector, seed: int, threads: int) -> tuple[int, list[str], bool]:
    from repro.mpi.comm import Communicator, MPIError, mpi_run

    n_ranks = 4                       # the plan partitions rank 2
    items = list(range(12))
    expected = sum(x * x for x in items)

    def program(comm: Communicator) -> dict | None:
        if comm.rank == 0:
            workers = list(range(1, comm.size))
            assigned = {
                w: [x for i, x in enumerate(items) if i % len(workers) == j]
                for j, w in enumerate(workers)
            }
            for w in workers:
                comm.send(assigned[w], dest=w, tag=_WORK_TAG)
            # Detection: a deadline budget for the whole collection phase;
            # a worker whose results never arrive within it is declared
            # partitioned and its items are reassigned to the master.
            deadline = Deadline.after(3.0)
            results: dict[int, int] = {}
            dead: list[int] = []
            for w in workers:
                try:
                    deadline.check(what=f"collect from rank {w}")
                    results.update(comm.recv(
                        source=w, tag=_RESULT_TAG,
                        timeout=min(0.4, deadline.remaining()),
                    ))
                except MPIError:
                    dead.append(w)
            reassigned = [x for w in dead for x in assigned[w]]
            results.update({x: x * x for x in reassigned})
            for w in workers:
                comm.send(None, dest=w, tag=_STOP_TAG)
            return {
                "total": sum(results.values()),
                "dead": dead,
                "reassigned": len(reassigned),
            }
        try:
            batch = comm.recv(source=0, tag=_WORK_TAG, timeout=0.8)
        except MPIError:
            return None               # partitioned from the master: stand down
        comm.send({x: x * x for x in batch}, dest=0, tag=_RESULT_TAG)
        try:
            comm.recv(source=0, tag=_STOP_TAG, timeout=2.0)
        except MPIError:
            pass
        return None

    master = mpi_run(n_ranks, program, timeout=6.0)[0]
    ok = master["total"] == expected and master["dead"] == [2]
    detail = [
        f"rank 2 partitioned: master detected {len(master['dead'])} dead "
        f"worker(s) by deadline and reassigned {master['reassigned']} "
        f"item(s)",
        f"total={master['total']} (expected {expected})",
    ]
    return master["reassigned"], detail, ok


for _name, _run, _plan in (
    ("mapreduce", _run_mapreduce, _mapreduce_plan),
    ("openmp", _run_openmp, _openmp_plan),
    ("mpi", _run_mpi, _mpi_plan),
    ("drugdesign", _run_drugdesign, _drugdesign_plan),
    ("stencil", _run_stencil, _stencil_plan),
    ("collectives", _run_collectives, _collectives_plan),
    ("partition", _run_partition, _partition_plan),
):
    registry.register(_name, chaos=_run, chaos_plan=_plan)


def chaos_workload_names() -> list[str]:
    return registry.names("chaos")


def run_chaos(
    workload: str,
    seed: int = 0,
    threads: int = 4,
    plan: FaultPlan | None = None,
) -> ChaosReport:
    """Run one scenario under its (or a custom) fault plan.

    Raises KeyError for unknown workloads.  Activates the fault session
    itself; the caller may independently wrap it in a telemetry session.
    """
    from repro import faults

    entry = registry.get(workload)
    if entry.chaos is None:
        raise KeyError(workload)
    normalized = entry.name
    active_plan = plan if plan is not None else named_plan(normalized, seed)
    with faults.inject(active_plan) as injector:
        recovered, detail, ok = entry.chaos(injector, seed, threads)
    return ChaosReport(
        workload=normalized,
        seed=seed,
        plan=active_plan,
        injected_by_kind=injector.counts_by_kind(),
        recovered=recovered,
        detail=detail,
        log_lines=injector.log_lines(),
        ok=ok,
    )
