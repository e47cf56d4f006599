"""A minimal MPI implementation over MX endpoints (the MPICH-MX analogue).

The paper evaluates Open-MX through MPICH-MX, which maps MPI point-to-point
operations onto the MX API and builds collectives on top.  This package does
the same over our simulated endpoints — and because the Open-MX and native
MX endpoints are API-compatible, the whole MPI layer (and the IMB harness on
top of it) runs unchanged over either stack.

* :mod:`~repro.mpi.comm` — communicators, world creation over a testbed
  (with processes-per-node placement), and :class:`Rank`: one MPI
  process with its point-to-point calls (isend/irecv/wait and the
  blocking send/recv/sendrecv built on them) and collective bindings.
  :class:`repro.fabric.mpi.FabricRank` subclasses it.
* :mod:`~repro.mpi.p2p` — MPI matching semantics (source and tag
  wildcards) encoded into MX 64-bit match info.
* :mod:`~repro.mpi.collectives` — Barrier, Bcast, Reduce, Allreduce,
  ReduceScatter, Allgather, Allgatherv, Alltoall with MPICH-style
  algorithms (binomial trees, recursive doubling, rings, pairwise).
"""

from repro.mpi.comm import Communicator, Rank, create_world

__all__ = ["Communicator", "Rank", "create_world"]
