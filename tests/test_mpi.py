"""The MPI-style message-passing simulator."""

import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, MPIError, mpi_run


class TestPointToPoint:
    def test_send_recv(self):
        def program(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        results = mpi_run(2, program)
        assert results[1] == {"a": 7, "b": 3.14}

    def test_payload_deep_copied(self):
        """Message passing must not share mutable state between ranks."""
        shared = {"x": 1}

        def program(comm):
            if comm.rank == 0:
                comm.send(shared, dest=1)
                return None
            received = comm.recv(source=0)
            received["x"] = 999
            return received

        mpi_run(2, program)
        assert shared["x"] == 1

    def test_tag_matching(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            # Receive out of send order by tag.
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert mpi_run(2, program)[1] == ("first", "second")

    def test_non_overtaking_same_tag(self):
        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=0)
                return None
            return [comm.recv(source=0, tag=0) for _ in range(5)]

        assert mpi_run(2, program)[1] == [0, 1, 2, 3, 4]

    def test_wildcards(self):
        def program(comm):
            if comm.rank == 0:
                received = [comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                            for _ in range(comm.size - 1)]
                return sorted(received)
            comm.send(comm.rank * 10, dest=0, tag=comm.rank)
            return None

        assert mpi_run(4, program)[0] == [10, 20, 30]

    def test_isend_irecv(self):
        def program(comm):
            if comm.rank == 0:
                req = comm.isend([1, 2, 3], dest=1, tag=9)
                req.wait()
                return None
            req = comm.irecv(source=0, tag=9)
            assert not req.test() or True   # may or may not be delivered yet
            data = req.wait()
            assert req.test()
            return data

        assert mpi_run(2, program)[1] == [1, 2, 3]

    def test_bad_destination(self):
        with pytest.raises(MPIError):
            mpi_run(2, lambda comm: comm.send(1, dest=5))

    def test_deadlock_detected(self):
        def program(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, timeout=0.3)

        with pytest.raises(MPIError, match="timed out|failed"):
            mpi_run(2, program)

    def test_failing_rank_aborts_world(self):
        def program(comm):
            if comm.rank == 0:
                raise ValueError("rank 0 dies")
            comm.recv(source=0)   # would block forever; abort must wake it

        with pytest.raises(MPIError, match="rank 0"):
            mpi_run(3, program)


class TestCollectives:
    def test_bcast(self):
        results = mpi_run(4, lambda comm: comm.bcast(
            {"n": 42} if comm.rank == 0 else None, root=0))
        assert all(r == {"n": 42} for r in results)

    def test_bcast_nonzero_root(self):
        results = mpi_run(3, lambda comm: comm.bcast(
            "hi" if comm.rank == 2 else None, root=2))
        assert results == ["hi", "hi", "hi"]

    def test_scatter_gather_round_trip(self):
        def program(comm):
            data = [i * i for i in range(comm.size)] if comm.rank == 0 else None
            mine = comm.scatter(data, root=0)
            assert mine == comm.rank**2
            return comm.gather(mine * 2, root=0)

        results = mpi_run(4, program)
        assert results[0] == [0, 2, 8, 18]
        assert results[1] is None

    def test_scatter_wrong_length(self):
        def program(comm):
            return comm.scatter([1, 2, 3] if comm.rank == 0 else None, root=0)

        with pytest.raises(MPIError):
            mpi_run(4, program)

    def test_allgather(self):
        results = mpi_run(4, lambda comm: comm.allgather(comm.rank + 1))
        assert all(r == [1, 2, 3, 4] for r in results)

    def test_reduce_sum(self):
        results = mpi_run(5, lambda comm: comm.reduce(
            comm.rank, op=lambda a, b: a + b, root=0))
        assert results[0] == 10
        assert results[1] is None

    def test_allreduce(self):
        results = mpi_run(4, lambda comm: comm.allreduce(comm.rank + 1, op=max))
        assert results == [4, 4, 4, 4]

    def test_scan_prefix_sums(self):
        results = mpi_run(4, lambda comm: comm.scan(comm.rank + 1,
                                                    op=lambda a, b: a + b))
        assert results == [1, 3, 6, 10]

    def test_alltoall(self):
        def program(comm):
            outgoing = [(comm.rank, dest) for dest in range(comm.size)]
            return comm.alltoall(outgoing)

        results = mpi_run(3, program)
        for rank, received in enumerate(results):
            assert received == [(src, rank) for src in range(3)]

    def test_barrier_completes(self):
        results = mpi_run(4, lambda comm: (comm.barrier(), comm.rank)[1])
        assert results == [0, 1, 2, 3]

    def test_single_rank_world(self):
        results = mpi_run(1, lambda comm: comm.allreduce(5, op=lambda a, b: a + b))
        assert results == [5]


class TestPrograms:
    def test_mpi_run_validation(self):
        with pytest.raises(ValueError):
            mpi_run(0, lambda comm: None)
