"""The simulated Raspberry Pi: board, timing model, setup procedure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openmp import Schedule
from repro.rpi import (
    BCM2837B0,
    BootError,
    PiSetup,
    RaspberryPi3BPlus,
    SetupStep,
    SimulatedPi,
    TimingModel,
)
from repro.rpi.soc import soc_advantages


class TestBoard:
    def test_four_cores(self):
        assert RaspberryPi3BPlus().n_cores == 4
        assert BCM2837B0().n_cores == 4

    def test_is_soc(self):
        assert BCM2837B0().is_soc

    def test_component_inventory(self):
        board = RaspberryPi3BPlus()
        names = board.component_names()
        for expected in ("CPU cluster", "GPU", "RAM", "microSD slot", "GPIO"):
            assert expected in names
        on_soc = [c for c in board.components() if c.on_soc]
        off_soc = [c for c in board.components() if not c.on_soc]
        assert on_soc and off_soc   # the SoC/board distinction exists

    def test_shared_l2(self):
        soc = BCM2837B0()
        assert soc.l2_cache_kib == 512
        assert "shared" in [c for c in soc.components() if c.name == "L2 cache"][0].description

    def test_soc_advantages_mention_power_and_tradeoff(self):
        text = " ".join(soc_advantages())
        assert "power" in text and "trade-off" in text


class TestTimingModel:
    def test_balanced_loop_near_linear_speedup(self):
        pi = SimulatedPi()
        costs = [10.0] * 1000
        costed = pi.cost_loop(costs, Schedule.static())
        assert 3.0 < costed.speedup <= 4.0
        assert costed.load_imbalance < 0.01

    def test_speedup_curve_monotone(self):
        pi = SimulatedPi()
        curve = pi.speedup_curve([10.0] * 400)
        speedups = [c.speedup for c in curve]
        assert speedups == sorted(speedups)
        assert curve[0].speedup == pytest.approx(1.0, abs=0.02)

    def test_static_suffers_on_imbalanced_loop(self):
        pi = SimulatedPi()
        triangular = [float(i) for i in range(500)]
        block = pi.cost_loop(triangular, Schedule.static())
        cyclic = pi.cost_loop(triangular, Schedule.static(chunk=1))
        dynamic = pi.cost_loop(triangular, Schedule.dynamic(4))
        assert block.load_imbalance > 0.5          # last block dominates
        assert cyclic.elapsed_us < block.elapsed_us
        assert dynamic.elapsed_us < block.elapsed_us

    def test_every_alternative_schedule_fixes_block_static_imbalance(self):
        pi = SimulatedPi()
        imbalanced = [float(i) / 10 for i in range(2000)]
        worst = pi.cost_loop(imbalanced, Schedule.static()).elapsed_us
        for schedule in (Schedule.static(chunk=1), Schedule.dynamic(1),
                         Schedule.dynamic(8), Schedule.guided()):
            assert pi.cost_loop(imbalanced, schedule).elapsed_us < worst * 0.75

    def test_dynamic_pays_chunk_overhead_on_balanced_loop(self):
        pi = SimulatedPi()
        costs = [10.0] * 1000
        static = pi.cost_loop(costs, Schedule.static())
        dynamic1 = pi.cost_loop(costs, Schedule.dynamic(1))
        assert dynamic1.elapsed_us > static.elapsed_us

    def test_bigger_dynamic_chunks_amortise_overhead(self):
        pi = SimulatedPi()
        costs = [10.0] * 1000
        d1 = pi.cost_loop(costs, Schedule.dynamic(1))
        d8 = pi.cost_loop(costs, Schedule.dynamic(8))
        assert d8.elapsed_us < d1.elapsed_us

    def test_guided_chunks_decay(self):
        pi = SimulatedPi()
        costed = pi.cost_loop([5.0] * 256, Schedule.guided())
        # guided uses far fewer chunks than dynamic,1
        dynamic = pi.cost_loop([5.0] * 256, Schedule.dynamic(1))
        assert costed.n_chunks < dynamic.n_chunks

    def test_contention_slows_parallel_work(self):
        fast = SimulatedPi(timing=TimingModel(contention_beta=0.0))
        slow = SimulatedPi(timing=TimingModel(contention_beta=0.3))
        costs = [10.0] * 400
        assert (
            slow.cost_loop(costs).elapsed_us > fast.cost_loop(costs).elapsed_us
        )

    def test_empty_loop(self):
        pi = SimulatedPi()
        costed = pi.cost_loop([])
        assert costed.n_chunks == 0
        assert costed.elapsed_us == pytest.approx(
            pi.timing.fork_us + pi.timing.join_us
        )

    def test_single_thread_matches_sequential_plus_overhead(self):
        pi = SimulatedPi(timing=TimingModel(contention_beta=0.0))
        costs = [7.0] * 100
        costed = pi.cost_loop(costs, Schedule.static(), num_threads=1)
        assert costed.elapsed_us == pytest.approx(
            pi.timing.fork_us + 700.0 + pi.timing.static_chunk_us + pi.timing.join_us
        )

    @given(st.lists(st.floats(0.1, 50), min_size=1, max_size=80),
           st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_elapsed_bounded_by_work(self, costs, threads):
        """elapsed >= max-core-work >= total/threads (no free lunch) and
        speedup <= thread count."""
        pi = SimulatedPi()
        costed = pi.cost_loop(costs, Schedule.dynamic(2), num_threads=threads)
        assert costed.speedup <= threads + 1e-9
        assert costed.elapsed_us >= sum(costs) / threads

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            SimulatedPi().cost_loop([-1.0])

    def test_rejects_bad_timing(self):
        with pytest.raises(ValueError):
            TimingModel(fork_us=-1.0)


class TestSetup:
    def test_quickstart_boots_to_desktop(self):
        setup = PiSetup.quickstart()
        assert setup.booted and setup.desktop_visible()

    def test_cannot_flash_before_download(self):
        setup = PiSetup()
        with pytest.raises(BootError):
            setup.perform(SetupStep.FLASH_SD)

    def test_cannot_boot_without_sd(self):
        setup = PiSetup()
        setup.perform(SetupStep.CONNECT_DISPLAY)
        with pytest.raises(BootError) as excinfo:
            setup.perform(SetupStep.POWER_ON)
        assert "no boot" in str(excinfo.value)

    def test_boot_without_display_is_headless(self):
        setup = PiSetup()
        for step in (SetupStep.DOWNLOAD_IMAGE, SetupStep.FLASH_SD,
                     SetupStep.INSERT_SD, SetupStep.POWER_ON):
            setup.perform(step)
        assert setup.booted
        assert not setup.desktop_visible()

    def test_cannot_reimage_while_running(self):
        setup = PiSetup.quickstart()
        with pytest.raises(BootError):
            setup.perform(SetupStep.FLASH_SD)
