"""Stragglers and backup tasks.

The speculation tests run the engine on a :class:`ScaledClock`: the
injected 0.4–0.5 s straggler delays and the speculation trigger really
block for a quarter of their nominal length, while ``wall_seconds``
still reads in nominal units — so the ratio assertions are unchanged
and the suite stops sleeping through full-length stragglers.
"""

import pytest

from repro.faults.clock import ScaledClock
from repro.mapreduce import MapReduceEngine, word_count_job
from repro.mapreduce.stragglers import SlowTask, SpeculativeEngine

DOCS = [(f"d{i}", "alpha beta gamma delta " * 4) for i in range(16)]
REFERENCE = MapReduceEngine(4).run(word_count_job(), DOCS, n_map_tasks=8)


def _clock() -> ScaledClock:
    return ScaledClock(0.25)


class TestSpeculation:
    def test_backups_recover_stragglers(self):
        engine = SpeculativeEngine(
            n_workers=4, straggler_wait_s=0.05,
            slow_tasks=[SlowTask(0, 0.5), SlowTask(3, 0.5)],
            clock=_clock(),
        )
        result = engine.run(word_count_job(), DOCS, n_map_tasks=8)
        assert result.result.output == REFERENCE.output
        assert result.backups_launched == 2
        assert result.backups_won == 2

    def test_speculation_faster_than_waiting(self):
        engine = SpeculativeEngine(
            n_workers=4, straggler_wait_s=0.05,
            slow_tasks=[SlowTask(1, 0.4)],
            clock=_clock(),
        )
        with_spec = engine.run(word_count_job(), DOCS, n_map_tasks=8)
        without = engine.run(word_count_job(), DOCS, n_map_tasks=8, speculate=False)
        assert with_spec.result.output == without.result.output
        assert with_spec.wall_seconds < without.wall_seconds / 2

    def test_no_stragglers_no_backups(self):
        engine = SpeculativeEngine(n_workers=4, straggler_wait_s=0.5,
                                   clock=_clock())
        result = engine.run(word_count_job(), DOCS, n_map_tasks=8)
        assert result.backups_launched == 0
        assert result.result.output == REFERENCE.output

    def test_accounting(self):
        engine = SpeculativeEngine(
            n_workers=4, straggler_wait_s=0.05, slow_tasks=[SlowTask(2, 0.4)],
            clock=_clock(),
        )
        result = engine.run(word_count_job(), DOCS, n_map_tasks=8)
        assert result.result.map_attempts == 8 + result.backups_launched
        assert result.backups_won <= result.backups_launched

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowTask(-1, 0.1)
        with pytest.raises(ValueError):
            SlowTask(0, -0.1)
        with pytest.raises(ValueError):
            SpeculativeEngine(n_workers=0)
