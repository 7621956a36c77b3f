"""The Assignment-5 measurement protocol.

The assignment's exact tasks:

1. run a sequential, an OpenMP, and a C++11-threads solution;
2. measure the running time of each — *which approach is fastest?*;
3. compare program sizes — *what are the number of lines in each file
   (size of the program vs. performance)?*;
4. increase the number of threads to 5 — what is the run time of each?;
5. increase the maximum ligand length to 7 and rerun — run times?

Times are reported two ways: real wall-clock (honest, but GIL-bound in
Python, so the parallel versions do not speed up) and the simulated-Pi
cost (fork/join + per-chunk overheads + contention over the per-ligand
DP cell counts) — the latter is the apples-to-apples number that carries
the paper's qualitative result: the parallel versions win, and more work
(max ligand 7) widens the gap.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.drugdesign.ligands import DEFAULT_PROTEIN, generate_ligands
from repro.drugdesign.scoring import dp_cells
from repro.drugdesign.solvers import (
    DrugDesignResult,
    solve_cxx11_threads,
    solve_openmp,
    solve_sequential,
)
from repro.openmp.loops import Schedule
from repro.rpi.machine import SimulatedPi

__all__ = ["DrugDesignConfig", "StyleMeasurement", "Assignment5Report", "run_assignment5"]

#: Simulated cost of one LCS DP cell on a 1.4 GHz Cortex-A53, in us.
US_PER_CELL = 0.01


@dataclass(frozen=True)
class DrugDesignConfig:
    """One experimental condition of the sweep."""

    n_ligands: int = 120
    max_ligand: int = 5
    num_threads: int = 4
    protein: str = DEFAULT_PROTEIN
    seed: int = 500

    def label(self) -> str:
        return (
            f"{self.n_ligands} ligands, max_ligand={self.max_ligand}, "
            f"{self.num_threads} threads"
        )


@dataclass(frozen=True)
class StyleMeasurement:
    """Timing + size of one solution style under one condition."""

    style: str
    result: DrugDesignResult
    wall_seconds: float
    simulated_us: float
    lines_of_code: int


@dataclass(frozen=True)
class Assignment5Report:
    """All measurements for one condition."""

    config: DrugDesignConfig
    measurements: Mapping[str, StyleMeasurement] = field(default_factory=dict)

    @property
    def fastest_simulated(self) -> str:
        """Answer to "Which approach is fastest?" on the simulated Pi."""
        return min(self.measurements.values(), key=lambda m: m.simulated_us).style

    def answers_agree(self) -> bool:
        results = [m.result for m in self.measurements.values()]
        return all(r.same_answer_as(results[0]) for r in results)

    def render(self) -> str:
        lines = [f"drug design: {self.config.label()}"]
        for style, m in self.measurements.items():
            lines.append(
                f"  {style:14s} score={m.result.max_score}  "
                f"wall={m.wall_seconds * 1e3:8.2f} ms  "
                f"simulated={m.simulated_us / 1e3:8.2f} ms  "
                f"LoC={m.lines_of_code}"
            )
        lines.append(f"  fastest (simulated): {self.fastest_simulated}")
        return "\n".join(lines)


@functools.cache
def _loc(fn: Callable) -> int:
    """Source lines of a solver — the assignment's program-size metric.

    Cached per function: a solver's source cannot change in-process, and
    reading and splitting it costs about a millisecond.
    """
    source = inspect.getsource(fn)
    return sum(1 for line in source.splitlines() if line.strip() and not line.strip().startswith("#"))


def _simulate(result: DrugDesignResult, ligands: list[str], protein: str,
              pi: SimulatedPi, num_threads: int, style: str) -> float:
    costs = [dp_cells(lig, protein) * US_PER_CELL for lig in ligands]
    if style == "sequential":
        return pi.sequential_us(costs)
    # Both parallel styles pull tasks dynamically one ligand at a time.
    return pi.cost_loop(costs, Schedule.dynamic(chunk=1), num_threads).elapsed_us


def run_assignment5(
    config: DrugDesignConfig | None = None,
    pi: SimulatedPi | None = None,
) -> Assignment5Report:
    """Run all three solvers under one condition and measure them."""
    cfg = config or DrugDesignConfig()
    machine = pi or SimulatedPi()
    ligands = generate_ligands(cfg.n_ligands, cfg.max_ligand, seed=cfg.seed)

    measurements: dict[str, StyleMeasurement] = {}

    def measure(style: str, run: Callable[[], DrugDesignResult], fn: Callable) -> None:
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
        measurements[style] = StyleMeasurement(
            style=style,
            result=result,
            wall_seconds=wall,
            simulated_us=_simulate(result, ligands, cfg.protein, machine,
                                   cfg.num_threads, style),
            lines_of_code=_loc(fn),
        )

    measure("sequential", lambda: solve_sequential(ligands, cfg.protein),
            solve_sequential)
    measure("openmp",
            lambda: solve_openmp(ligands, cfg.protein, cfg.num_threads),
            solve_openmp)
    measure("cxx11_threads",
            lambda: solve_cxx11_threads(ligands, cfg.protein, cfg.num_threads),
            solve_cxx11_threads)

    report = Assignment5Report(config=cfg, measurements=measurements)
    if not report.answers_agree():
        raise AssertionError("solution styles disagree on the best ligands")
    return report
