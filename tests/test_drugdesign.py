"""The drug-design exemplar: scoring, the three solvers, the A5 protocol."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drugdesign import (
    Assignment5Report,
    DrugDesignConfig,
    generate_ligands,
    lcs_score,
    run_assignment5,
    solve_cxx11_threads,
    solve_openmp,
    solve_sequential,
)
from repro.drugdesign.ligands import DEFAULT_PROTEIN, generate_protein
from repro.drugdesign.scoring import dp_cells

lowercase = st.text(alphabet="abcdefgh", max_size=12)


class TestLCS:
    @pytest.mark.parametrize("a,b,expected", [
        ("", "abc", 0),
        ("abc", "", 0),
        ("abc", "abc", 3),
        ("abc", "axbxc", 3),
        ("abc", "cba", 1),
        ("aggtab", "gxtxayb", 4),   # classic CLRS example
        ("aaaa", "aa", 2),
    ])
    def test_known_values(self, a, b, expected):
        assert lcs_score(a, b) == expected

    @given(lowercase, lowercase)
    @settings(max_examples=60)
    def test_symmetric(self, a, b):
        assert lcs_score(a, b) == lcs_score(b, a)

    @given(lowercase, lowercase)
    @settings(max_examples=60)
    def test_bounded_by_shorter_string(self, a, b):
        assert 0 <= lcs_score(a, b) <= min(len(a), len(b))

    @given(lowercase)
    @settings(max_examples=30)
    def test_self_lcs_is_length(self, s):
        assert lcs_score(s, s) == len(s)

    @given(lowercase, lowercase, lowercase)
    @settings(max_examples=30)
    def test_monotone_in_superstring(self, a, prefix, b):
        assert lcs_score(a, prefix + b) >= lcs_score(a, b)

    def test_dp_cells(self):
        assert dp_cells("abc", "defg") == 12


class TestLigands:
    def test_generation_deterministic(self):
        assert generate_ligands(20, 5, seed=1) == generate_ligands(20, 5, seed=1)

    def test_lengths_respect_max(self):
        for ligand in generate_ligands(100, 4, seed=2):
            assert 1 <= len(ligand) <= 4

    def test_raising_max_ligand_adds_work(self):
        short = generate_ligands(100, 5, seed=3)
        long = generate_ligands(100, 7, seed=3)
        cells = lambda ligs: sum(dp_cells(l, DEFAULT_PROTEIN) for l in ligs)
        assert cells(long) > cells(short)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_ligands(0, 5)
        with pytest.raises(ValueError):
            generate_protein(0)


class TestSolvers:
    LIGANDS = generate_ligands(60, 5, seed=500)

    def test_three_styles_agree(self):
        seq = solve_sequential(self.LIGANDS, DEFAULT_PROTEIN)
        omp = solve_openmp(self.LIGANDS, DEFAULT_PROTEIN, num_threads=4)
        cxx = solve_cxx11_threads(self.LIGANDS, DEFAULT_PROTEIN, num_threads=4)
        assert seq.same_answer_as(omp)
        assert seq.same_answer_as(cxx)

    def test_total_work_identical(self):
        seq = solve_sequential(self.LIGANDS, DEFAULT_PROTEIN)
        omp = solve_openmp(self.LIGANDS, DEFAULT_PROTEIN)
        assert seq.total_cells == omp.total_cells

    def test_best_ligands_sorted_unique(self):
        result = solve_sequential(self.LIGANDS, DEFAULT_PROTEIN)
        assert list(result.best_ligands) == sorted(set(result.best_ligands))
        assert result.max_score == max(
            lcs_score(l, DEFAULT_PROTEIN) for l in self.LIGANDS
        )

    def test_all_winners_reported(self):
        ligands = ["abc", "xyz", "abc", "bca"]
        protein = "aabbcc"
        result = solve_sequential(ligands, protein)
        for ligand in result.best_ligands:
            assert lcs_score(ligand, protein) == result.max_score

    @given(st.lists(lowercase.filter(bool), min_size=1, max_size=25),
           st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_parallel_equals_sequential_property(self, ligands, threads):
        protein = "abcdefghabcdefgh"
        seq = solve_sequential(ligands, protein)
        omp = solve_openmp(ligands, protein, num_threads=threads)
        assert seq.same_answer_as(omp)

    def test_cxx_work_distribution_covers_everything(self):
        result = solve_cxx11_threads(self.LIGANDS, DEFAULT_PROTEIN, num_threads=4)
        assert sum(result.per_thread_cells) == result.total_cells


class TestAssignment5Protocol:
    def test_baseline_report(self):
        report = run_assignment5(DrugDesignConfig(n_ligands=60))
        assert set(report.measurements) == {"sequential", "openmp", "cxx11_threads"}
        assert report.answers_agree()

    def test_parallel_wins_on_simulated_pi(self):
        report = run_assignment5(DrugDesignConfig(n_ligands=60))
        seq = report.measurements["sequential"].simulated_us
        omp = report.measurements["openmp"].simulated_us
        assert omp < seq
        assert report.fastest_simulated in ("openmp", "cxx11_threads")
        # ~4 cores: speedup should be substantial
        assert seq / omp > 2.0

    def test_sequential_is_shortest_program(self):
        report = run_assignment5(DrugDesignConfig(n_ligands=40))
        locs = {s: m.lines_of_code for s, m in report.measurements.items()}
        assert locs["sequential"] < locs["openmp"]
        assert locs["sequential"] < locs["cxx11_threads"]

    def test_five_threads_not_slower_simulated(self):
        four = run_assignment5(DrugDesignConfig(n_ligands=60, num_threads=4))
        five = run_assignment5(DrugDesignConfig(n_ligands=60, num_threads=5))
        assert (
            five.measurements["openmp"].simulated_us
            <= four.measurements["openmp"].simulated_us * 1.05
        )

    def test_max_ligand_7_increases_runtime_and_score(self):
        base = run_assignment5(DrugDesignConfig(n_ligands=60, max_ligand=5))
        bigger = run_assignment5(DrugDesignConfig(n_ligands=60, max_ligand=7))
        assert (
            bigger.measurements["sequential"].simulated_us
            > base.measurements["sequential"].simulated_us
        )
        assert (
            bigger.measurements["sequential"].result.max_score
            >= base.measurements["sequential"].result.max_score
        )

    def test_speedup_bounded_by_the_four_cores(self):
        """Both parallel styles beat sequential by more than 2x and at
        most the Pi's core count; a fifth thread leaves sequential time
        alone; max ligand 7 slows every style and parallel still wins."""
        base = run_assignment5(DrugDesignConfig(n_ligands=120, max_ligand=5))
        seq = base.measurements["sequential"].simulated_us
        for style in ("openmp", "cxx11_threads"):
            assert 2.0 < seq / base.measurements[style].simulated_us <= 4.0
        five = run_assignment5(DrugDesignConfig(n_ligands=120, num_threads=5))
        assert five.measurements["sequential"].simulated_us == pytest.approx(seq)
        bigger = run_assignment5(DrugDesignConfig(n_ligands=120, max_ligand=7))
        for style, measurement in base.measurements.items():
            assert bigger.measurements[style].simulated_us > measurement.simulated_us
        assert bigger.fastest_simulated in ("openmp", "cxx11_threads")

    def test_render(self):
        text = run_assignment5(DrugDesignConfig(n_ligands=30)).render()
        assert "fastest (simulated)" in text
        assert "LoC" in text

    def test_loc_lines_unchanged_by_caching(self):
        """``_loc`` is cached per solver; the report's ``LoC=`` lines keep
        the counts a fresh read of each solver's source gives."""
        from repro.drugdesign.experiment import _loc
        for _ in range(2):
            text = run_assignment5(DrugDesignConfig(n_ligands=12)).render()
            assert re.findall(r"^  (\w+) .*LoC=(\d+)$", text, re.M) == [
                ("sequential", "14"), ("openmp", "34"), ("cxx11_threads", "41"),
            ]
        for fn in (solve_sequential, solve_openmp, solve_cxx11_threads):
            assert _loc(fn) == _loc.__wrapped__(fn)
        assert _loc.cache_info().hits >= 3
