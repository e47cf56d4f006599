"""Communicators and rank contexts.

A :class:`Rank` bundles what an MPI process owns: an MX endpoint (of either
stack), the core it is pinned to, and its address space.  ``create_world``
places ranks on testbed nodes block-wise (ranks 0..ppn-1 on node 0, etc.),
the usual MPICH host-file layout the paper's "2 processes per node" runs
use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.mpi import collectives
from repro.mpi.p2p import encode_match, encode_recv
from repro.mx.wire import EndpointAddr

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.testbed import Testbed
    from repro.memory.buffers import AddressSpace
    from repro.simkernel.cpu import Core


class Rank:
    """One MPI process.

    Point-to-point operations are generators that map MPI matching onto
    the endpoint's MX match info (:mod:`repro.mpi.p2p`); the collectives
    are the :mod:`repro.mpi.collectives` generators bound to this rank.
    """

    __slots__ = ("comm", "rank", "endpoint", "core", "space", "node",
                 "_coll_seq", "_scratch", "_imb_bufs")

    #: context id of MPI_COMM_WORLD
    CONTEXT = 1

    def __init__(self, comm: "Communicator", rank: int, endpoint, core: "Core",
                 space: "AddressSpace", node: int):
        self.comm = comm
        self.rank = rank
        self.endpoint = endpoint
        self.core = core
        self.space = space
        self.node = node

    # -- point-to-point: non-blocking ------------------------------------------

    def isend(self, dest: int, region, offset=0, length: Optional[int] = None,
              tag: int = 0) -> Generator:
        match = encode_match(self.CONTEXT, self.rank, tag)
        req = yield from self.endpoint.isend(
            self.core, self.comm.addr_of(dest), match, region, offset,
            len(region) - offset if length is None else length,
        )
        return req

    def irecv(self, source: int, region, offset=0, length: Optional[int] = None,
              tag: int = 0) -> Generator:
        match, mask = encode_recv(self.CONTEXT, source, tag)
        req = yield from self.endpoint.irecv(
            self.core, match, mask, region, offset,
            len(region) - offset if length is None else length,
        )
        return req

    def wait(self, req) -> Generator:
        yield from self.endpoint.wait(self.core, req)
        return req

    # -- point-to-point: blocking (built on the three above) -------------------

    def send(self, dest: int, region, offset=0, length=None, tag: int = 0) -> Generator:
        req = yield from self.isend(dest, region, offset, length, tag)
        yield from self.wait(req)
        return req

    def recv(self, source: int, region, offset=0, length=None, tag: int = 0) -> Generator:
        req = yield from self.irecv(source, region, offset, length, tag)
        yield from self.wait(req)
        return req

    def sendrecv(self, dest: int, sregion, source: int, rregion,
                 length=None, stag: int = 0, rtag: int = 0) -> Generator:
        """Simultaneous send+recv (deadlock-free: both posted, then waited)."""
        rreq = yield from self.irecv(source, rregion, 0, length, rtag)
        sreq = yield from self.isend(dest, sregion, 0, length, stag)
        yield from self.wait(sreq)
        yield from self.wait(rreq)
        return sreq, rreq

    # -- collectives (generator methods; see repro.mpi.collectives) -----------

    def barrier(self):
        return collectives.barrier(self)

    def bcast(self, region, root: int = 0, length=None):
        return collectives.bcast(self, region, root, length)

    def reduce(self, sendbuf, recvbuf, root: int = 0, length=None):
        return collectives.reduce(self, sendbuf, recvbuf, root, length)

    def allreduce(self, sendbuf, recvbuf, length=None, algo: str = "auto"):
        return collectives.allreduce(self, sendbuf, recvbuf, length, algo=algo)

    def reduce_scatter(self, sendbuf, recvbuf, block_length):
        return collectives.reduce_scatter(self, sendbuf, recvbuf, block_length)

    def allgather(self, sendbuf, recvbuf, block_length):
        return collectives.allgather(self, sendbuf, recvbuf, block_length)

    def allgatherv(self, sendbuf, recvbuf, block_lengths):
        return collectives.allgatherv(self, sendbuf, recvbuf, block_lengths)

    def alltoall(self, sendbuf, recvbuf, block_length):
        return collectives.alltoall(self, sendbuf, recvbuf, block_length)

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def sim(self):
        return self.comm.sim


class Communicator:
    """A fixed group of ranks (MPI_COMM_WORLD)."""

    def __init__(self, sim, ranks: Optional[list[Rank]] = None):
        self.sim = sim
        self.ranks: list[Rank] = ranks if ranks is not None else []

    @property
    def size(self) -> int:
        return len(self.ranks)

    def addr_of(self, rank: int) -> EndpointAddr:
        return self.ranks[rank].endpoint.addr

    def run_spmd(self, body: Callable[[Rank], Generator], max_events: Optional[int] = None):
        """Run ``body(rank)`` on every rank; block until all complete.

        Returns the list of per-rank return values.
        """
        from repro.simkernel.event import AllOf

        procs = [self.sim.process(body(r), name=f"rank{r.rank}") for r in self.ranks]
        all_done = AllOf(self.sim, procs)
        return self.sim.run_until(all_done, max_events=max_events)


def create_world(tb: "Testbed", ppn: int = 1, nodes: Optional[int] = None,
                 placement: str = "cyclic") -> Communicator:
    """Open one endpoint per rank and pin it to a core.

    ``placement`` follows the usual MPICH machine-file layouts:

    * ``"cyclic"`` (default, round-robin host file): rank *i* lands on node
      ``i % nodes`` — consecutive ranks on *different* nodes, so IMB
      PingPong between ranks 0 and 1 crosses the wire even at 2 ppn,
      matching the paper's runs;
    * ``"block"``: ranks 0..ppn-1 on node 0, etc.

    Local ranks are pinned to distinct user cores (skipping the IRQ core).
    """
    n_nodes = nodes if nodes is not None else len(tb.hosts)
    total = n_nodes * ppn
    comm = Communicator(tb.sim)
    slots_used = [0] * n_nodes
    for rank in range(total):
        if placement == "cyclic":
            node = rank % n_nodes
        elif placement == "block":
            node = rank // ppn
        else:
            raise ValueError(f"unknown placement {placement!r}")
        slot = slots_used[node]
        slots_used[node] += 1
        ep = tb.open_endpoint(node, slot)
        core = tb.hosts[node].user_core(slot)
        space = getattr(ep, "space", None)
        if space is None:  # native MX endpoints have no library space
            space = tb.hosts[node].user_space(f"rank{rank}")
            ep.space = space
        comm.ranks.append(Rank(comm, rank, ep, core, space, node))
    return comm
