"""Architecture substrate: Flynn's taxonomy as executable machines."""

import pytest

from repro.arch import (
    MIMDMachine,
    MISDMachine,
    SIMDMachine,
    SISDMachine,
    classify,
)


def double(x):
    return x * 2


class TestFlynn:
    def test_sisd_one_op_per_step(self):
        run = SISDMachine().run(double, [1, 2, 3])
        assert run.output == (2, 4, 6)
        assert run.instruction_streams == 1 and run.data_streams == 1
        assert all(len(step.ops) == 1 for step in run.trace)

    def test_simd_lockstep(self):
        run = SIMDMachine(n_lanes=4).run(double, list(range(10)))
        assert run.output == tuple(2 * i for i in range(10))
        assert run.n_steps == 3   # ceil(10/4)
        for step in run.trace:
            ops = {label for label, _idx in step.ops}
            assert ops == {"double"}   # same instruction, every lane

    def test_simd_fewer_steps_than_sisd(self):
        data = list(range(16))
        assert (
            SIMDMachine(4).run(double, data).n_steps
            < SISDMachine().run(double, data).n_steps
        )

    def test_misd_all_streams_see_same_datum(self):
        run = MISDMachine().run([abs, float], [-3, -4])
        assert run.output == ((3, -3.0), (4, -4.0))
        assert run.instruction_streams == 2 and run.data_streams == 1

    def test_misd_needs_ops(self):
        with pytest.raises(ValueError):
            MISDMachine().run([], [1])

    def test_mimd_independent_programs(self):
        run = MIMDMachine().run([sum, max, min], [[1, 2], [3, 9], [5, 0]])
        assert run.output == (3, 9, 0)
        assert run.instruction_streams == 3 and run.data_streams == 3

    def test_mimd_length_mismatch(self):
        with pytest.raises(ValueError):
            MIMDMachine().run([sum], [[1], [2]])

    @pytest.mark.parametrize("i,d,expected", [
        (1, 1, "SISD"), (1, 8, "SIMD"), (8, 1, "MISD"), (4, 4, "MIMD"),
    ])
    def test_classify(self, i, d, expected):
        assert classify(i, d) == expected

    def test_classify_matches_machines(self):
        run = SIMDMachine(4).run(double, list(range(8)))
        assert classify(run.instruction_streams, run.data_streams) == "SIMD"

    def test_classify_validation(self):
        with pytest.raises(ValueError):
            classify(0, 1)
