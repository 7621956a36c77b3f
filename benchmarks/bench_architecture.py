"""Architecture substrate shapes: cache locality.

Not a paper table, but the executable form of the HPC guide's
cache-effects section — with the qualitative shapes asserted.
"""

from repro.rpi.cache import MemoryHierarchy


def test_cache_row_vs_column_major(benchmark):
    def traversals():
        h = MemoryHierarchy()
        row = h.run_trace(h.row_major_trace(128, 128))
        h.reset()
        col = h.run_trace(h.column_major_trace(128, 128))
        return row, col

    row, col = benchmark(traversals)
    print()
    print(f"  row-major {row} cycles vs column-major {col} cycles "
          f"({col / row:.2f}x)")
    assert row < col


def test_cache_stride_sweep(benchmark):
    def sweep():
        out = {}
        for stride in (8, 16, 32, 64, 128):
            h = MemoryHierarchy()
            cycles = h.run_trace(h.strided_trace(1 << 16, stride))
            out[stride] = (cycles, h.l1.stats.hit_rate)
        return out

    results = benchmark(sweep)
    print()
    for stride, (cycles, rate) in results.items():
        print(f"  stride {stride:4d}: {cycles:7d} cycles, L1 hit rate {rate:.2f}")
    rates = [rate for _c, rate in results.values()]
    assert rates == sorted(rates, reverse=True)
    assert results[64][1] == 0.0     # stride = line size: all misses


def test_cache_working_set_staircase(benchmark):
    def staircase():
        out = {}
        for kib in (16, 256, 2048):
            h = MemoryHierarchy()
            trace = list(h.strided_trace(kib * 1024, 64))
            h.run_trace(trace)                        # warm
            out[kib] = h.run_trace(trace) / len(trace)
        return out

    costs = benchmark(staircase)
    print()
    for kib, cycles in costs.items():
        print(f"  {kib:5d} KiB working set: {cycles:6.1f} cycles/access")
    assert costs[16] < costs[256] < costs[2048]
