"""Resumable pipelines and the ranking scheduler over the store.

Pins the two tentpole guarantees: a resumed run replays checkpoints to
a byte-identical artifact, and the dispatch order is a deterministic
function of (expected score, staleness, seeded exploration).
"""

from __future__ import annotations

import pytest

from repro.pipeline.rank import (
    RankingPolicy,
    RankWeights,
    StoreScheduler,
    exploration_bonus,
)
from repro.pipeline.stages import Pipeline, PipelineError, Stage
from repro.pipeline.store import JobStore
from repro.sched.executor import WorkStealingExecutor


@pytest.fixture()
def store(tmp_path):
    with JobStore(str(tmp_path / "jobs.db")) as js:
        yield js


def _executor(workers=2, seed=0):
    return WorkStealingExecutor(n_workers=workers, seed=seed,
                                deterministic=True)


# -- the ranking policy -------------------------------------------------------


def test_exploration_bonus_is_seeded_and_bounded():
    draws = [exploration_bonus(7, f"key-{i}") for i in range(50)]
    assert all(0.0 <= draw < 1.0 for draw in draws)
    assert len(set(draws)) > 40                       # actually spreads
    assert draws == [exploration_bonus(7, f"key-{i}") for i in range(50)]
    assert exploration_bonus(8, "key-0") != exploration_bonus(7, "key-0")


def test_rank_orders_by_expected_score(store):
    records = store.enqueue_batch([
        {"run_id": "r", "stage": "s", "payload": {"index": i},
         "expected_score": float(score)}
        for i, score in enumerate([1, 9, 4])
    ])
    jobs = [record for record, _created in records]
    policy = RankingPolicy(seed=0, weights=RankWeights(
        expected_score=1.0, staleness_per_s=0.0, exploration=0.0))
    ranked = policy.rank(jobs)
    assert [job.expected_score for job in ranked] == [9.0, 4.0, 1.0]


def test_staleness_aging_overtakes_a_higher_prior(tmp_path):
    now = [1000.0]
    with JobStore(str(tmp_path / "aged.db"), clock=lambda: now[0]) as aged:
        old, _ = aged.enqueue("r", "s", {"index": 0}, expected_score=1.0)
        now[0] += 500.0
        fresh, _ = aged.enqueue("r", "s", {"index": 1}, expected_score=5.0)
        policy = RankingPolicy(seed=0, weights=RankWeights(
            expected_score=1.0, staleness_per_s=0.02, exploration=0.0))
        ranked = policy.rank([fresh, old])
        # 1.0 + 0.02*500 = 11 beats 5.0: the old job cannot starve.
        assert ranked[0].job_id == old.job_id


def test_rank_is_a_total_order_under_ties(store):
    records = store.enqueue_batch([
        {"run_id": "r", "stage": "s", "payload": {"index": i},
         "expected_score": 1.0}
        for i in range(6)
    ])
    jobs = [record for record, _created in records]
    policy = RankingPolicy(seed=3, weights=RankWeights(
        expected_score=1.0, staleness_per_s=0.0, exploration=0.0))
    once = [job.job_id for job in policy.rank(jobs)]
    again = [job.job_id for job in policy.rank(list(reversed(jobs)))]
    assert once == again                              # key breaks the tie


# -- the store scheduler ------------------------------------------------------


def test_drain_completes_every_job(store):
    store.enqueue_batch([
        {"run_id": "r", "stage": "s", "payload": {"index": i, "item": i}}
        for i in range(10)
    ])
    scheduler = StoreScheduler(store, owner="w1")
    stats = scheduler.drain(_executor(), lambda job: job.payload["item"] * 2,
                            run_id="r", stage="s")
    assert stats["completed"] == 10
    assert stats["failed"] == 0
    assert store.counts(run_id="r") == {"done": 10}
    assert store.get_by_key(
        store.jobs(run_id="r")[3].key).result == 6


def test_drain_retries_then_fails_permanently(store):
    store.enqueue("r", "s", {"index": 0, "item": 0})
    attempts = []

    def always_broken(job):
        attempts.append(job.attempts)
        raise RuntimeError("no luck")

    scheduler = StoreScheduler(store, owner="w1", max_attempts=3)
    stats = scheduler.drain(_executor(), always_broken, run_id="r", stage="s")
    assert stats["retried"] == 2
    assert stats["failed"] == 1
    assert len(attempts) == 3
    (job,) = store.jobs(run_id="r")
    assert job.state == "failed"
    assert "no luck" in job.error


def test_drain_releases_its_own_stale_leases_on_entry(store):
    job, _ = store.enqueue("r", "s", {"index": 0, "item": 5})
    store.lease("w1", [job.job_id])                   # dead incarnation's lease
    scheduler = StoreScheduler(store, owner="w1")
    stats = scheduler.drain(_executor(), lambda job: job.payload["item"],
                            run_id="r", stage="s")
    assert stats["reclaimed"] >= 1                    # fenced, not waited out
    assert stats["completed"] == 1


# -- pipelines ----------------------------------------------------------------


def _counting_pipeline(calls):
    def generate(ctx, data):
        calls.append("generate")
        return {"values": list(range(6)), "seed": ctx.seed}

    def total(ctx, data):
        calls.append("total")
        return {"total": sum(data["values"]) + data["seed"]}

    return Pipeline("counting", [Stage("generate", generate),
                                 Stage("total", total)])


def test_resume_skips_completed_stages_with_identical_output(store):
    calls: list[str] = []
    pipeline = _counting_pipeline(calls)
    first = pipeline.run(store, seed=7, resume=False)
    assert calls == ["generate", "total"]
    assert [status for _name, status in first.stage_status] == ["ran", "ran"]
    second = pipeline.run(store, seed=7, resume=True)
    assert calls == ["generate", "total"]             # nothing re-ran
    assert [status for _n, status in second.stage_status] == \
        ["resumed", "resumed"]
    assert second.output == first.output == {"total": 22}
    fresh = pipeline.run(store, seed=7, resume=False) # clears and re-runs
    assert calls == ["generate", "total"] * 2
    assert fresh.output == first.output


def test_stage_outputs_are_canonicalised_through_json(store):
    def emit_tuple(ctx, data):
        return {"pair": (1, 2)}                       # tuple in, list out

    def check(ctx, data):
        assert data["pair"] == [1, 2]
        return data

    Pipeline("canon", [Stage("emit", emit_tuple),
                       Stage("check", check)]).run(store, resume=False)


def test_non_json_stage_output_is_a_pipeline_error(store):
    bad = Pipeline("bad", [Stage("emit", lambda ctx, data: {"obj": object()})])
    with pytest.raises(PipelineError, match="not JSON-safe"):
        bad.run(store, resume=False)


def test_kill_after_must_name_a_real_stage(store):
    pipeline = _counting_pipeline([])
    with pytest.raises(ValueError, match="unknown stage"):
        pipeline.run(store, kill_after="nope")


def test_duplicate_stage_names_rejected():
    with pytest.raises(ValueError, match="duplicate stage"):
        Pipeline("dup", [Stage("a", lambda c, d: d),
                         Stage("a", lambda c, d: d)])


def test_fan_out_resumes_partial_progress(store):
    ran: list[int] = []

    def fan(ctx, data):
        return {"doubled": ctx.fan_out(
            "fan",
            [1, 2, 3, 4],
            lambda item: (ran.append(item), item * 2)[1],
        )}

    pipeline = Pipeline("fanout", [Stage("fan", fan)])
    run_id = pipeline.default_run_id(7, {})
    # Pre-complete two of the four jobs, as a crashed worker would have.
    from repro.pipeline.stages import StageContext

    ctx = StageContext(store=store, run_id=run_id, seed=7, workers=2,
                       params={})
    specs = [{"run_id": run_id, "stage": "fan",
              "payload": {"index": index, "item": item}}
             for index, item in enumerate([1, 2, 3, 4])]
    records = store.enqueue_batch(specs)
    for record, _created in records[:2]:
        store.lease("dead", [record.job_id])
        store.complete(record.job_id, record.payload["item"] * 2)
    del ctx  # the pipeline run builds its own context

    result = pipeline.run(store, seed=7, resume=True)
    assert result.output == {"doubled": [2, 4, 6, 8]}
    assert sorted(ran) == [3, 4]                      # only the remainder ran
    assert result.stats["resumed_done"] == 2


def test_default_run_id_is_deterministic_and_param_sensitive():
    pipeline = Pipeline("p", [Stage("s", lambda c, d: d)])
    assert pipeline.default_run_id(7, {"a": 1}) == \
        pipeline.default_run_id(7, {"a": 1})
    assert pipeline.default_run_id(7, {"a": 1}) != \
        pipeline.default_run_id(8, {"a": 1})
    assert pipeline.default_run_id(7, {"a": 1}) != \
        pipeline.default_run_id(7, {"a": 2})
