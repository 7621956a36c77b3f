"""An MPI-style message-passing simulator.

The paper's future work (§V): "we plan to extend the module to include
writing code for multicore processors and distributed memory using
Message Passing Interface (MPI) and C", starting from CSinParallel's
"Getting Started with Message Passing using MPI".  This package
implements that extension: an in-process message-passing runtime with an
mpi4py-flavoured API (lower-case object methods, as in the tutorial):

    def program(comm):
        if comm.rank == 0:
            comm.send({"a": 7}, dest=1, tag=11)
        elif comm.rank == 1:
            data = comm.recv(source=0, tag=11)

    results = mpi_run(4, program)

Ranks run on real threads with private state; the *only* channel between
them is the communicator — distributed-memory semantics on a shared-
memory host, which is exactly how students first run MPI on one Pi.

- :mod:`repro.mpi.comm` — point-to-point (blocking + nonblocking) and the
  collective set (bcast/scatter/gather/allgather/reduce/allreduce/
  barrier/scan/alltoall).
- :mod:`repro.mpi.stencil` — 1-D heat diffusion with halo exchange, the
  canonical distributed-memory stencil (float-identical to the
  sequential solver).
"""

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Communicator, MPIError, Request, mpi_run
from repro.mpi.stencil import heat_mpi, heat_sequential

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "MPIError",
    "Request",
    "heat_mpi",
    "heat_sequential",
    "mpi_run",
]
