"""Highly-vectorial buffer workloads (§IV-A corner case).

"Such very small fragments may actually only be involved in Open-MX if the
application uses highly-vectorial buffers": when an application sends from
a scatter list of tiny segments, copies degrade into sub-kilobyte chunks
where I/OAT submission overhead dominates — the reason for the 1 kB
fragment threshold.

Two measurements live here:

* :func:`measure_vectored_copy` — the analytic copy-cost-versus-segment-
  size model behind the threshold-ablation benchmark.  Each scatter
  segment is priced with the *same* page-chunk counting the execution
  path uses (``count_page_aligned_chunks``): a segment whose destination
  straddles a page boundary costs two descriptors, not one — unaligned
  scatter lists genuinely pay more submission than aligned ones.
* :func:`run_vectored_transfer` — the same scatter pattern driven through
  the event loop as a real workload: one skbuff per segment arrives in
  the BH and is copied through the host's configured
  :class:`~repro.core.backends.CopyBackend` (``point_vectored`` is the
  sweep-point wrapper the ``engine_shootout`` experiment runs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.host import Host
from repro.memory.layout import (
    count_page_aligned_chunks,
    iter_chunks,
    page_aligned_chunks,
)
from repro.units import SEC, throughput_mib_s


@dataclass
class VectoredCopyResult:
    segment: int
    total: int
    memcpy_ns: int
    ioat_submit_ns: int
    ioat_total_ns: int
    #: scatter segments in the transfer
    n_segments: int = 0
    #: I/OAT descriptors after page-chunk splitting (>= n_segments)
    ioat_descriptors: int = 0

    @property
    def memcpy_gib_s(self) -> float:
        return self.total * SEC / self.memcpy_ns / (1 << 30) if self.memcpy_ns else 0.0

    @property
    def ioat_gib_s(self) -> float:
        return self.total * SEC / self.ioat_total_ns / (1 << 30) if self.ioat_total_ns else 0.0


def measure_vectored_copy(host: Host, total: int, segment: int) -> VectoredCopyResult:
    """Cost of copying ``total`` bytes in ``segment``-sized pieces.

    Uses the analytic cost models directly (no event loop needed): memcpy
    setup per page chunk vs I/OAT descriptor submission + engine service —
    the trade-off behind ``ioat_min_frag``.

    Each scatter segment starts page-aligned (a fresh buffer in the
    scatter list) while the destination is contiguous, so a segment whose
    destination lands mid-page splits exactly as ``copy_fragment`` would
    split it.
    """
    params = host.params
    ch = host.ioat_engine[0]
    n_segments = 0
    n_descriptors = 0
    engine = 0
    for pos, n in iter_chunks(0, total, segment):
        n_segments += 1
        chunks = count_page_aligned_chunks(0, pos, n)
        n_descriptors += chunks
        if chunks == 1:
            engine += ch.service_time(n)
        else:
            for _rel_src, _rel_dst, piece in page_aligned_chunks(0, pos, n):
                engine += ch.service_time(piece)
    # memcpy: per-chunk setup (CpuCopier charges setup per page chunk too)
    # + uncached move
    move = int(round(total * SEC / params.memcpy.uncached_bw))
    memcpy_ns = n_descriptors * params.memcpy.setup_cost + move
    # I/OAT: CPU submission per *descriptor* — page-straddling segments
    # submit more than one — and the engine runs the descriptors in order
    submit = n_descriptors * params.ioat.submit_cost
    return VectoredCopyResult(segment, total, memcpy_ns, submit,
                              max(submit, engine), n_segments, n_descriptors)


# ---------------------------------------------------------------------------
# the event-loop workload (engine shootout)
# ---------------------------------------------------------------------------


@dataclass
class VectoredRunResult:
    backend: str
    segment: int
    total: int
    elapsed_ns: int
    throughput_mib_s: float
    frags_offloaded: int
    frags_memcpy: int
    descriptors_completed: int


def run_vectored_transfer(tb, total: int, segment: int) -> VectoredRunResult:
    """Drive the scatter pattern through the event loop.

    One skbuff per ``segment``-sized piece is filled and copied into a
    contiguous user region through the node driver's offload manager
    (periodic cleanup every 8 fragments, final drain) — the §IV-A corner
    case as a real workload instead of an analytic formula, exercising
    whichever :class:`~repro.core.backends.CopyBackend` the testbed's
    config names.  A second manager would build that backend's lanes a
    second time.
    """
    host = tb.hosts[0]
    mgr = tb.stacks[0].driver.offload
    state = mgr.new_message_state()
    core = host.irq_core
    space = host.user_space("vectored")
    dst = space.alloc(total)
    done = tb.sim.event()

    def work():
        yield core.res.request()
        t0 = tb.sim.now
        seen = 0
        for pos, n in iter_chunks(0, total, segment):
            skb = host.skb_pool.alloc_rx()
            offloaded = yield from mgr.copy_fragment(
                core, state, skb, 0, dst, pos, n, total
            )
            if not offloaded:
                skb.free()
            seen += 1
            if seen % 8 == 0:
                yield from mgr.cleanup(core, state)
        yield from mgr.wait_all(core, state)
        core.res.release()
        done.succeed(tb.sim.now - t0)

    tb.sim.daemon(work(), name="vectored")
    elapsed = tb.sim.run_until(done)
    descriptors = sum(e.descriptors_completed for e in host.dma_engines)
    return VectoredRunResult(
        backend=host.platform.omx.copy_backend,
        segment=segment,
        total=total,
        elapsed_ns=elapsed,
        throughput_mib_s=throughput_mib_s(total, elapsed),
        frags_offloaded=mgr.frags_offloaded,
        frags_memcpy=mgr.frags_memcpy,
        descriptors_completed=descriptors,
    )


def point_vectored(total: int, segment: int, backend: str) -> dict:
    """Sweep-point wrapper (JSON in/out) for the engine shootout."""
    from repro.cluster.testbed import build_single_node

    omx = dict(copy_backend=backend)
    if backend != "memcpy":
        # Thresholds off: the shootout wants every engine's behaviour on
        # tiny segments, not the policy's refusal to try.
        omx.update(ioat_enabled=True, ioat_min_msg=1, ioat_min_frag=1)  # noqa: UNIT001 (thresholds off = 1 byte)
    tb = build_single_node(**omx)
    r = run_vectored_transfer(tb, total, segment)
    return {
        "backend": r.backend,
        "throughput_mib_s": r.throughput_mib_s,
        "elapsed_ns": r.elapsed_ns,
        "frags_offloaded": r.frags_offloaded,
        "frags_memcpy": r.frags_memcpy,
        "descriptors": r.descriptors_completed,
    }
