"""The MPI stencil, scope patternlets, and the CLI."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.mpi import heat_mpi, heat_sequential
from repro.patternlets import run_atomic_demo, run_scope_demo


class TestHeatStencil:
    U0 = [0.0] * 24
    U0[0] = 100.0
    U0[-1] = 50.0

    def test_sequential_conserves_boundaries(self):
        result = heat_sequential(self.U0, steps=40)
        assert result[0] == 100.0 and result[-1] == 50.0

    def test_heat_flows_inward(self):
        result = heat_sequential(self.U0, steps=200)
        assert result[1] > self.U0[1]
        assert result[-2] > self.U0[-2]

    def test_approaches_linear_steady_state(self):
        result = heat_sequential(self.U0, alpha=0.4, steps=5000)
        n = len(result)
        for i, value in enumerate(result):
            expected = 100.0 + (50.0 - 100.0) * i / (n - 1)
            assert value == pytest.approx(expected, abs=0.5)

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 6])
    def test_mpi_matches_sequential_exactly(self, n_ranks):
        seq = heat_sequential(self.U0, steps=60)
        par = heat_mpi(self.U0, steps=60, n_ranks=n_ranks)
        assert par == seq   # float-identical: same updates, same order

    @given(st.lists(st.floats(-50, 150), min_size=4, max_size=24),
           st.integers(1, 6), st.integers(0, 12))
    @settings(max_examples=12, deadline=None)
    def test_mpi_equivalence_property(self, u0, n_ranks, steps):
        # n_ranks may exceed the cell count: empty blocks must not deadlock.
        assert heat_mpi(u0, steps=steps, n_ranks=n_ranks) == heat_sequential(
            u0, steps=steps
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            heat_sequential([1.0, 2.0], steps=1)
        with pytest.raises(ValueError):
            heat_sequential(self.U0, alpha=0.9)
        with pytest.raises(ValueError):
            heat_mpi(self.U0, n_ranks=0)


class TestScopePatternlets:
    def test_atomic_all_strategies_correct(self):
        demo = run_atomic_demo(num_threads=4, increments_per_thread=500)
        assert demo.all_correct
        assert demo.expected == 2000

    def test_scope_semantics(self):
        demo = run_scope_demo(num_threads=4, outer_value=100)
        assert demo.shared_final == 4                      # one instance
        assert demo.private_values == (0, 1, 2, 3)          # fresh
        assert demo.firstprivate_values == (100, 101, 102, 103)  # copies

    def test_renders(self):
        assert "atomic" in run_atomic_demo(2, 10).render()
        assert "firstprivate" in run_scope_demo(2).render()


class TestCLI:
    def test_timeline(self, capsys):
        assert main(["timeline"]) == 0
        out = capsys.readouterr().out
        assert "assignment 5" in out

    def test_patternlet_list_and_run(self, capsys):
        assert main(["patternlet", "--list"]) == 0
        assert "forkjoin" in capsys.readouterr().out
        assert main(["patternlet", "spmd", "--threads", "3"]) == 0
        assert "thread 2 of 3" in capsys.readouterr().out

    def test_patternlet_unknown(self, capsys):
        assert main(["patternlet", "warpdrive"]) == 2

    def test_quiz(self, capsys):
        assert main(["quiz", "3"]) == 0
        out = capsys.readouterr().out
        assert "SIMD" in out

    def test_drugdesign(self, capsys):
        assert main(["drugdesign", "--ligands", "30"]) == 0
        assert "fastest" in capsys.readouterr().out

    def test_reproduce_single_table(self, capsys):
        assert main(["reproduce", "--artifact", "table5"]) == 0
        assert "Teamwork" in capsys.readouterr().out

    def test_reproduce_unknown_artifact(self, capsys):
        assert main(["reproduce", "--artifact", "table42"]) != 0

    def test_study_exit_code_reflects_fidelity(self, capsys):
        assert main(["study"]) == 0
        out = capsys.readouterr().out
        assert "19/19" in out


class TestCLIExperiments:
    def test_experiments_command(self, capsys):
        from repro.cli import main
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "54/54" in out and "## table6" in out
