"""The computer-architecture lab: Flynn taxonomy and cache effects.

Usage::

    python examples/architecture_lab.py

Makes the CSc 3210 / Assignment 3 architecture content executable: runs a
kernel on all four Flynn machine models and reproduces the
cache-locality experiments from the HPC course notes on the Pi's
modelled memory hierarchy.
"""

from __future__ import annotations

from repro.arch import MIMDMachine, MISDMachine, SIMDMachine, SISDMachine
from repro.rpi.cache import MemoryHierarchy


def square(x: int) -> int:
    return x * x


def main() -> None:
    print("=== Flynn's taxonomy, executed " + "=" * 30)
    data = list(range(8))
    sisd = SISDMachine().run(square, data)
    simd = SIMDMachine(n_lanes=4).run(square, data)
    print(f"SISD: {sisd.n_steps} steps for {len(data)} elements")
    print(f"SIMD (4 lanes): {simd.n_steps} steps for the same work "
          f"(same output: {simd.output == sisd.output})")
    misd = MISDMachine().run([abs, float, square], [-3])
    print(f"MISD: 3 instruction streams over one datum -> {misd.output[0]}")
    mimd = MIMDMachine().run([sum, max, min], [[1, 2, 3], [4, 9], [7, 0]])
    print(f"MIMD: independent programs/data -> {mimd.output}")

    print("\n=== Cache effects on the modelled Pi hierarchy " + "=" * 14)
    h = MemoryHierarchy()
    row = h.run_trace(h.row_major_trace(128, 128))
    h.reset()
    col = h.run_trace(h.column_major_trace(128, 128))
    print(f"128x128 doubles: row-major {row} cycles, column-major {col} "
          f"cycles ({col / row:.2f}x slower)")
    print("stride sweep over 64 KiB:")
    for stride in (8, 16, 32, 64, 128):
        h.reset()
        cycles = h.run_trace(h.strided_trace(1 << 16, stride))
        print(f"  stride {stride:4d}: {cycles:7d} cycles "
              f"(L1 hit rate {h.l1.stats.hit_rate:.2f})")
    print("working-set staircase (warm re-traversal):")
    for kib in (16, 256, 2048):
        h.reset()
        trace = list(h.strided_trace(kib * 1024, 64))
        h.run_trace(trace)
        per_access = h.run_trace(trace) / len(trace)
        level = "L1" if per_access < 10 else ("L2" if per_access < 100 else "DRAM")
        print(f"  {kib:5d} KiB: {per_access:6.1f} cycles/access (~{level})")


if __name__ == "__main__":
    main()
