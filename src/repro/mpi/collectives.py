"""MPICH-style collective algorithms over point-to-point.

All functions are generator-coroutines executed inside each rank's process
(SPMD): every rank of the communicator must call the same collectives in the
same order.  A per-rank collective sequence number is mixed into the tag so
consecutive collectives cannot cross-match.

Algorithms (matching MPICH defaults of the era):

=============== ==========================================
Barrier         dissemination
Bcast           binomial tree
Reduce          binomial tree (reversed)
Allreduce       recursive doubling (power-of-two ranks), else reduce+bcast
Allgather       ring
Allgatherv      ring
Alltoall        shifted pairwise exchange
Reduce_scatter  pairwise exchange with accumulation
=============== ==========================================

Reductions charge the CPU for the arithmetic at :data:`REDUCE_BW`, and on
byte-holding regions (:class:`~repro.memory.buffers.MemoryRegion`) they
really compute: a float32 sum over the buffer bytes.  Fabric buffers hold no
bytes; reductions on them are charged, not computed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.units import GiB, SEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.buffers import MemoryRegion
    from repro.mpi.comm import Rank

#: vector-add rate for the reduction arithmetic cost model (bytes/s)
REDUCE_BW = 3.0 * GiB

#: tag namespace for collective traffic
_COLL_TAG_BASE = 0x40000000


def _coll_tag(rank: "Rank") -> int:
    seq = getattr(rank, "_coll_seq", 0)
    rank._coll_seq = seq + 1
    return _COLL_TAG_BASE | (seq & 0xFFFFF)


def _scratch(rank: "Rank", key: str, nbytes: int) -> "MemoryRegion":
    """Reusable per-rank scratch region (grown on demand)."""
    cache = getattr(rank, "_scratch", None)
    if cache is None:
        cache = rank._scratch = {}
    region = cache.get(key)
    if region is None or len(region) < nbytes:
        region = rank.space.alloc(max(nbytes, 1))
        cache[key] = region
    return region


def _accumulate(rank: "Rank", acc, acc_off: int, contrib, contrib_off: int,
                length: int) -> Generator:
    """acc += contrib, the CPU charged at :data:`REDUCE_BW` first."""
    cost = int(round(length * SEC / REDUCE_BW))
    yield from rank.core.execute(max(cost, 1), "user")
    acc.accumulate(acc_off, contrib, contrib_off, length)
    return None


# ---------------------------------------------------------------------------
# Barrier
# ---------------------------------------------------------------------------

def barrier(rank: "Rank") -> Generator:
    """Dissemination barrier: ceil(log2(p)) rounds of 1-byte exchanges."""
    p = rank.size
    tag = _coll_tag(rank)
    if p == 1:
        return None
    token = _scratch(rank, "bar_tx", 1)
    sink = _scratch(rank, "bar_rx", 1)
    k = 1
    while k < p:
        dst = (rank.rank + k) % p
        src = (rank.rank - k) % p
        yield from rank.sendrecv(dst, token, src, sink, length=1,
                                 stag=tag + 0, rtag=tag + 0)
        k *= 2
    return None


# ---------------------------------------------------------------------------
# Bcast / Reduce
# ---------------------------------------------------------------------------

def bcast(rank: "Rank", region, root: int = 0, length=None) -> Generator:
    """Binomial-tree broadcast from ``root``."""
    p = rank.size
    n = len(region) if length is None else length
    tag = _coll_tag(rank)
    if p == 1 or n == 0:
        return None
    vrank = (rank.rank - root) % p
    # Receive phase: find my parent.
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = (vrank - mask + root) % p
            yield from rank.recv(parent, region, 0, n, tag)
            break
        mask *= 2
    # Send phase: forward to children below my lowest set bit.
    mask //= 2
    while mask >= 1:
        child_v = vrank + mask
        if child_v < p:
            child = (child_v + root) % p
            yield from rank.send(child, region, 0, n, tag)
        mask //= 2
    return None


def reduce(rank: "Rank", sendbuf, recvbuf, root: int = 0, length=None) -> Generator:
    """Binomial-tree reduction to ``root`` (sum)."""
    p = rank.size
    n = (len(sendbuf) if length is None else length)
    tag = _coll_tag(rank)
    acc = recvbuf if rank.rank == root else _scratch(rank, "red_acc", n)
    if n:
        # Seed the accumulator with the local contribution.
        yield from rank.core.execute(max(int(n * SEC / REDUCE_BW), 1), "user")
        acc.copy_from(0, sendbuf, 0, n)
    if p == 1:
        return None
    vrank = (rank.rank - root) % p
    tmp = _scratch(rank, "red_tmp", n)
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = (vrank - mask + root) % p
            yield from rank.send(parent, acc, 0, n, tag + (mask.bit_length()))
            break
        child_v = vrank + mask
        if child_v < p:
            child = (child_v + root) % p
            yield from rank.recv(child, tmp, 0, n, tag + (mask.bit_length()))
            yield from _accumulate(rank, acc, 0, tmp, 0, n)
        mask *= 2
    return None


# ---------------------------------------------------------------------------
# Allreduce
# ---------------------------------------------------------------------------

#: selectable allreduce algorithms (``algo=`` kwarg)
ALLREDUCE_ALGOS = ("auto", "ring", "rd")


def allreduce(rank: "Rank", sendbuf, recvbuf, length=None,
              algo: str = "auto") -> Generator:
    """Sum-allreduce with a selectable algorithm.

    * ``"auto"`` (default, unchanged): recursive doubling when the rank
      count is a power of two, else reduce + bcast;
    * ``"ring"``: reduce-scatter ring followed by an allgather ring —
      bandwidth-optimal for large buffers, 2(p-1) steps;
    * ``"rd"``: recursive doubling at every rank count, folding the ranks
      beyond the largest power of two into their partners first.
    """
    if algo not in ALLREDUCE_ALGOS:
        raise ValueError(f"unknown allreduce algo {algo!r}; "
                         f"expected one of {ALLREDUCE_ALGOS}")
    p = rank.size
    n = (len(sendbuf) if length is None else length)
    tag = _coll_tag(rank)
    if n:
        yield from rank.core.execute(max(int(n * SEC / REDUCE_BW), 1), "user")
        recvbuf.copy_from(0, sendbuf, 0, n)
    if p == 1:
        return None
    if algo == "ring":
        yield from _allreduce_ring(rank, recvbuf, n, tag)
        return None
    if algo == "rd":
        yield from _allreduce_rd(rank, recvbuf, n, tag)
        return None
    if p & (p - 1):  # not a power of two
        yield from reduce(rank, recvbuf, recvbuf, 0, n)
        yield from bcast(rank, recvbuf, 0, n)
        return None
    tmp = _scratch(rank, "ar_tmp", n)
    mask = 1
    step = 0
    while mask < p:
        partner = rank.rank ^ mask
        yield from rank.sendrecv(partner, recvbuf, partner, tmp, length=n,
                                 stag=tag + step, rtag=tag + step)
        yield from _accumulate(rank, recvbuf, 0, tmp, 0, n)
        mask *= 2
        step += 1
    return None


def _allreduce_ring(rank: "Rank", buf, n: int, tag: int,
                    members=None) -> Generator:
    """Reduce-scatter ring + allgather ring over ``buf`` (already seeded).

    ``members`` is the sorted list of rank ids forming the ring (default:
    every rank); a shrunk ring over the survivors of a crash-stop is the
    same algorithm over fewer members.  Blocks are cut on 4-byte
    boundaries so the float32 reduction view stays aligned; the last
    member's block absorbs the remainder.  Zero-sized blocks (buffers
    smaller than 4p bytes) skip their wire steps, like :func:`allgatherv`
    does.
    """
    if members is None:
        members = range(rank.size)
    p = len(members)
    if p == 1 or n == 0:
        return None
    me = members.index(rank.rank)
    base = (n // p) & ~3
    sizes = [base] * (p - 1) + [n - base * (p - 1)]
    displs = [base * i for i in range(p)]
    right = members[(me + 1) % p]
    left = members[(me - 1) % p]
    tmp = _scratch(rank, "arr_tmp", sizes[p - 1])
    # Phase 1: reduce-scatter ring; after step s, block (m - s - 1) % p on
    # member m holds the partial sum of s + 2 contributions.
    for step in range(p - 1):
        sb = (me - step) % p
        rb = (me - step - 1) % p
        sn, rn = sizes[sb], sizes[rb]
        rreq = sreq = None
        if rn:
            rreq = yield from rank.irecv(left, tmp, 0, rn, tag + step)
        if sn:
            sreq = yield from rank.isend(right, buf, displs[sb], sn, tag + step)
        if sreq is not None:
            yield from rank.wait(sreq)
        if rreq is not None:
            yield from rank.wait(rreq)
        if rn:
            yield from _accumulate(rank, buf, displs[rb], tmp, 0, rn)
    # Phase 2: allgather ring, forwarding the newest finished block.
    for step in range(p - 1):
        sb = (me + 1 - step) % p
        rb = (me - step) % p
        sn, rn = sizes[sb], sizes[rb]
        rreq = sreq = None
        if rn:
            rreq = yield from rank.irecv(left, buf, displs[rb], rn,
                                         tag + p + step)
        if sn:
            sreq = yield from rank.isend(right, buf, displs[sb], sn,
                                         tag + p + step)
        if sreq is not None:
            yield from rank.wait(sreq)
        if rreq is not None:
            yield from rank.wait(rreq)
    return None


def _allreduce_rd(rank: "Rank", buf, n: int, tag: int) -> Generator:
    """Recursive doubling over ``buf`` (already seeded) at any rank count.

    Ranks beyond the largest power of two fold their contribution into
    rank - pow2 first, sit out the doubling, and receive the result back —
    the MPICH non-power-of-two prologue/epilogue.
    """
    p = rank.size
    if n == 0:
        return None
    pow2 = 1 << (p.bit_length() - 1)
    rem = p - pow2
    me = rank.rank
    if me >= pow2:
        yield from rank.send(me - pow2, buf, 0, n, tag)
        yield from rank.recv(me - pow2, buf, 0, n, tag + 1)
        return None
    tmp = _scratch(rank, "ard_tmp", n)
    if me < rem:
        yield from rank.recv(me + pow2, tmp, 0, n, tag)
        yield from _accumulate(rank, buf, 0, tmp, 0, n)
    mask = 1
    step = 2
    while mask < pow2:
        partner = me ^ mask
        yield from rank.sendrecv(partner, buf, partner, tmp, length=n,
                                 stag=tag + step, rtag=tag + step)
        yield from _accumulate(rank, buf, 0, tmp, 0, n)
        mask *= 2
        step += 1
    if me < rem:
        yield from rank.send(me + pow2, buf, 0, n, tag + 1)
    return None


# ---------------------------------------------------------------------------
# Allgather(v)
# ---------------------------------------------------------------------------

def allgather(rank: "Rank", sendbuf, recvbuf, block_length: int) -> Generator:
    """Ring allgather: p-1 steps, forwarding the newest block each step."""
    p = rank.size
    n = block_length
    tag = _coll_tag(rank)
    if n:
        yield from rank.core.execute(max(int(n * SEC / REDUCE_BW), 1), "user")
        recvbuf.copy_from(rank.rank * n, sendbuf, 0, n)
    if p == 1 or n == 0:
        return None
    right = (rank.rank + 1) % p
    left = (rank.rank - 1) % p
    for step in range(p - 1):
        send_block = (rank.rank - step) % p
        recv_block = (rank.rank - step - 1) % p
        rreq = yield from rank.irecv(left, recvbuf, recv_block * n, n, tag + step)
        sreq = yield from rank.isend(right, recvbuf, send_block * n, n, tag + step)
        yield from rank.wait(sreq)
        yield from rank.wait(rreq)
    return None


def allgatherv(rank: "Rank", sendbuf, recvbuf, block_lengths: list[int]) -> Generator:
    """Ring allgather with per-rank block sizes."""
    p = rank.size
    tag = _coll_tag(rank)
    displs = [0] * p
    for i in range(1, p):
        displs[i] = displs[i - 1] + block_lengths[i - 1]
    my_n = block_lengths[rank.rank]
    if my_n:
        yield from rank.core.execute(max(int(my_n * SEC / REDUCE_BW), 1), "user")
        recvbuf.copy_from(displs[rank.rank], sendbuf, 0, my_n)
    if p == 1:
        return None
    right = (rank.rank + 1) % p
    left = (rank.rank - 1) % p
    for step in range(p - 1):
        send_block = (rank.rank - step) % p
        recv_block = (rank.rank - step - 1) % p
        sn, rn = block_lengths[send_block], block_lengths[recv_block]
        rreq = sreq = None
        if rn:
            rreq = yield from rank.irecv(left, recvbuf, displs[recv_block], rn, tag + step)
        if sn:
            sreq = yield from rank.isend(right, recvbuf, displs[send_block], sn, tag + step)
        if sreq is not None:
            yield from rank.wait(sreq)
        if rreq is not None:
            yield from rank.wait(rreq)
    return None


# ---------------------------------------------------------------------------
# Alltoall / Reduce_scatter
# ---------------------------------------------------------------------------

def alltoall(rank: "Rank", sendbuf, recvbuf, block_length: int) -> Generator:
    """Shifted pairwise exchange: p-1 simultaneous send/recv steps."""
    p = rank.size
    n = block_length
    tag = _coll_tag(rank)
    if n:
        yield from rank.core.execute(max(int(n * SEC / REDUCE_BW), 1), "user")
        recvbuf.copy_from(rank.rank * n, sendbuf, rank.rank * n, n)
    if p == 1 or n == 0:
        return None
    for step in range(1, p):
        dst = (rank.rank + step) % p
        src = (rank.rank - step) % p
        rreq = yield from rank.irecv(src, recvbuf, src * n, n, tag + step)
        sreq = yield from rank.isend(dst, sendbuf, dst * n, n, tag + step)
        yield from rank.wait(sreq)
        yield from rank.wait(rreq)
    return None


def reduce_scatter(rank: "Rank", sendbuf, recvbuf, block_length: int) -> Generator:
    """Pairwise exchange with accumulation: rank i ends up with
    sum over ranks of block i."""
    p = rank.size
    n = block_length
    tag = _coll_tag(rank)
    if n:
        yield from rank.core.execute(max(int(n * SEC / REDUCE_BW), 1), "user")
        recvbuf.copy_from(0, sendbuf, rank.rank * n, n)
    if p == 1 or n == 0:
        return None
    tmp = _scratch(rank, "rs_tmp", n)
    for step in range(1, p):
        dst = (rank.rank + step) % p
        src = (rank.rank - step) % p
        rreq = yield from rank.irecv(src, tmp, 0, n, tag + step)
        sreq = yield from rank.isend(dst, sendbuf, dst * n, n, tag + step)
        yield from rank.wait(sreq)
        yield from rank.wait(rreq)
        yield from _accumulate(rank, recvbuf, 0, tmp, 0, n)
    return None
