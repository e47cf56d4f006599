"""Calibrated hardware and protocol parameters.

Every scalar in this module is either quoted directly by the paper
(§IV-A micro-benchmarks, §IV-B/C/D evaluation) or derived from the paper's
reported curves so that the simulated testbed reproduces their shape.  See
DESIGN.md §5 for the full calibration table.

The canonical testbed preset is :func:`clovertown_5000x` — two quad-core
2.33 GHz Xeon E5345 packages (2 dies of 2 cores per package, 4 MiB shared L2
per die) on an Intel 5000X chipset with an I/OAT DMA engine, and a Myri-10G
NIC in native Ethernet mode (myri10ge), exactly the paper's machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import units
from repro.units import GiB, KiB, MiB, ns, us


@dataclass(frozen=True)
class CacheParams:
    """Per-die shared L2 cache model parameters."""

    #: capacity of one shared L2 (Clovertown: 4 MiB per dual-core die)
    capacity: int = 4 * MiB
    #: sustained memcpy bandwidth when source and destination are resident
    #: (bytes/s).  The paper quotes "up to 12 GiB/s" peak; the sustained
    #: figure consistent with its 2 kB cached break-even (350 ns at rate) and
    #: with the ~6 GiB/s shared-cache plateau of Fig. 10 is ~6 GiB/s.
    cached_copy_bw: float = 6.0 * GiB
    #: tracking granularity (one page)
    line_granularity: int = units.PAGE_SIZE


@dataclass(frozen=True)
class MemcpyParams:
    """CPU copy (memcpy) cost model."""

    #: uncached single-stream copy bandwidth (paper §IV-A: "about 1.6 GiB/s";
    #: the pipelined-chunk benchmark of Fig. 7 saturates near 1.5 GiB/s)
    uncached_bw: float = 1.55 * GiB
    #: fixed per-call/per-chunk setup cost; keeps Fig. 7's memcpy curves
    #: nearly flat across chunk sizes
    setup_cost: int = ns(30)
    #: bandwidth penalty for a source on the remote socket (FSB hop);
    #: calibrates the ~1.2 GiB/s cross-socket plateau of Fig. 10
    remote_socket_factor: float = 0.78


@dataclass(frozen=True)
class BusParams:
    """Front-side/memory-bus contention model.

    A CPU copy of ``n`` bytes moves ``traffic_multiplier * n`` bytes of bus
    traffic (read + write-allocate).  While the NIC streams received frames
    into host memory the copy's share shrinks; the effective copy bandwidth
    becomes ``min(cpu_bw, (total_bw - nic_rate) / traffic_multiplier)``.
    Calibrated so the no-I/OAT receive path tops out near the paper's
    ~800 MiB/s while an idle bus does not throttle the 1.5 GiB/s memcpy
    micro-benchmark.
    """

    total_bw: float = 2.8 * GiB
    traffic_multiplier: float = 1.8
    #: copies never drop below this share even under full ingress
    min_copy_bw: float = 0.6 * GiB
    #: window for estimating current NIC ingress rate
    rate_window: int = us(100)


@dataclass(frozen=True)
class IoatParams:
    """Intel I/OAT DMA engine model (§II-C, §IV-A)."""

    #: independent DMA channels on 5000X-era silicon (§V footnote)
    channels: int = 4
    #: CPU cost of submitting one copy descriptor (paper: ~350 ns)
    submit_cost: int = ns(350)
    #: engine-side fixed cost per descriptor (descriptor fetch + setup);
    #: with ``engine_bw`` this reproduces Fig. 7: ~2.4 GiB/s at 4 kB chunks,
    #: ~1.2 GiB/s at 1 kB, ~0.4 GiB/s at 256 B
    per_descriptor_cost: int = ns(530)
    #: asymptotic engine copy bandwidth (bytes/s)
    engine_bw: float = 3.6 * GiB
    #: CPU cost of polling completions once (in-order status read, §IV-A:
    #: "very cheap ... simple memory read")
    poll_cost: int = ns(50)
    #: latency between the engine finishing a descriptor and the host
    #: *observing* it on a synchronous wait: status writeback to host
    #: memory plus the cache miss on the status read.  This fixed tax is
    #: part of why synchronous offload of small (4 kB) copies loses to
    #: memcpy (§IV-C) while asynchronous offload does not care.
    completion_latency: int = ns(800)
    #: descriptor ring capacity per channel
    ring_size: int = 1024


@dataclass(frozen=True)
class HostParams:
    """One compute node: CPU complex, memory system, OS costs."""

    # -- topology (dual quad-core Clovertown) --
    n_sockets: int = 2
    dies_per_socket: int = 2
    cores_per_die: int = 2

    # -- OS / driver cost scalars --
    #: basic system-call cost (paper footnote: "close to 100 ns")
    syscall_cost: int = ns(100)
    #: cost to pin one page (get_user_pages per-page work)
    pin_page_cost: int = ns(400)
    #: fixed cost of a pin/registration call
    pin_base_cost: int = ns(900)
    #: hardirq entry + softirq switch CPU cost, paid once per NAPI batch
    interrupt_dispatch_cost: int = ns(800)
    #: BH per-packet base processing (skb handling, header decode, endpoint
    #: lookup, event write);  calibrated with the copy model so the no-I/OAT
    #: receive path saturates near 800 MiB/s (Fig. 3)
    bh_base_cost: int = ns(800)
    #: extra BH work for a large-message pull fragment (pull-handle lookup,
    #: destination page walk, accounting)
    bh_large_frag_extra: int = ns(1700)
    #: extra BH work for a medium fragment (partial-reassembly bookkeeping)
    bh_medium_frag_extra: int = ns(700)
    #: driver command-processing cost per ioctl-issued send/pull command
    driver_command_cost: int = ns(600)
    #: user-library per-call bookkeeping (request alloc, queue ops)
    library_call_cost: int = ns(150)
    #: user-library cost to match + consume one event from the ring
    event_process_cost: int = ns(120)

    # -- memory system --
    cache: CacheParams = field(default_factory=CacheParams)
    memcpy: MemcpyParams = field(default_factory=MemcpyParams)
    bus: BusParams = field(default_factory=BusParams)
    ioat: IoatParams = field(default_factory=IoatParams)

    @property
    def n_cores(self) -> int:
        return self.n_sockets * self.dies_per_socket * self.cores_per_die


@dataclass(frozen=True)
class NicParams:
    """10 G Ethernet NIC (Myri-10G in native Ethernet mode, myri10ge)."""

    #: link data rate in bytes/s (9953 Mbit/s)
    link_bw: float = units.TEN_GBE_BYTES_PER_SECOND
    #: MTU (jumbo frames)
    mtu: int = units.JUMBO_MTU
    #: rx ring entries
    rx_ring_size: int = 512
    #: one-way propagation + PHY latency (back-to-back fibre)
    propagation_delay: int = ns(300)
    #: NIC-side fixed per-frame processing (DMA setup, descriptor writeback)
    per_frame_cost: int = ns(200)
    #: driver transmit-path CPU cost per frame (xmit, doorbell)
    tx_frame_cost: int = ns(500)
    #: interrupt coalescing delay (myri10ge adaptive coalescing, low setting)
    interrupt_coalesce: int = ns(1000)
    #: Direct Cache Access (part of the I/OAT feature set, §II-C): the NIC
    #: pushes incoming headers toward the interrupt core's cache, so the BH
    #: decodes warm lines instead of missing on every packet
    dca_enabled: bool = False
    #: fraction of the BH base (header-processing) cost saved by DCA
    dca_savings: float = 0.25


@dataclass(frozen=True)
class MxParams:
    """Native MX / MXoE firmware baseline model (Fig. 3, 8, 11, 12).

    The native stack matches in firmware and deposits data directly in the
    application buffer (zero-copy receive): the host only sees a completion.
    """

    #: firmware per-fragment processing (NIC processor)
    firmware_frag_cost: int = ns(900)
    #: host-side send post cost (OS-bypass, PIO doorbell)
    host_post_cost: int = ns(250)
    #: host-side completion processing
    host_completion_cost: int = ns(300)
    #: rendezvous threshold of MX (bytes)
    rndv_threshold: int = 32 * KiB
    #: eager fragment payload
    eager_frag: int = 4 * KiB
    #: large fragment payload (jumbo wire)
    large_frag: int = 8 * KiB


@dataclass(frozen=True)
class OmxConfig:
    """Open-MX protocol and offload configuration (§II-B, §III, §IV-A)."""

    # -- message classes --
    #: max payload of a *small* message (single frame, copied twice)
    small_max: int = 128
    #: max payload of a *medium* message; beyond this a rendezvous is used
    medium_max: int = 32 * KiB
    #: medium fragment payload (paper §IV-C: "4 kB medium fragment copies")
    medium_frag: int = 4 * KiB
    #: large-message pull fragment payload (page-based skbuffs on a jumbo
    #: wire: two pages per frame)
    large_frag: int = 8 * KiB

    # -- pull protocol (§III-B footnote) --
    #: fragments per pull block
    pull_block_frags: int = 8
    #: pipelined outstanding blocks per large message
    pull_outstanding_blocks: int = 2
    #: retransmission timeout for lost pull replies
    retransmit_timeout: int = us(500)
    #: watchdog re-requests without progress before a pull is aborted with a
    #: typed :class:`~repro.core.errors.PullAborted` (the real stack also
    #: kills connections after a bounded retry budget); generous enough that
    #: bounded fault windows never trip it
    pull_max_retries: int = 32

    # -- I/OAT offload (§III-A, §IV-A thresholds) --
    #: master switch for the copy-offload path
    ioat_enabled: bool = False
    #: which :class:`~repro.core.backends.CopyBackend` executes offloaded
    #: BH receive copies: ``"ioat"`` (the paper's engine), ``"memcpy"``
    #: (never offload), ``"flextoe"`` (fine-grained parallel lanes),
    #: ``"spin"`` (in-NIC handlers) or ``"sgdma"`` (scatter-gather chains).
    #: See DESIGN.md §15; unknown names fail at backend creation.
    copy_backend: str = "ioat"
    #: offload only messages at least this long (paper: 64 kB)
    ioat_min_msg: int = 64 * KiB
    #: offload only fragments at least this long (paper: ~1 kB)
    ioat_min_frag: int = 1 * KiB
    #: optional synchronous I/OAT copy for medium fragments (§IV-C found
    #: this to be a performance loss; off by default, kept for the ablation)
    ioat_medium_sync: bool = False
    #: cap on skbuffs queued awaiting asynchronous copy completion (§III-B)
    max_pending_skbuffs: int = 64

    # -- shared-memory intra-node path (§III-C, Fig. 10) --
    #: one-copy large threshold for local messages
    shm_large_threshold: int = 32 * KiB
    #: use I/OAT for local copies at or above this size when ioat_enabled
    shm_ioat_min: int = 32 * KiB

    # -- registration cache (Fig. 11) --
    regcache_enabled: bool = True

    # -- prediction mode of Fig. 3: process fragments but skip the BH copy.
    # Data is NOT delivered in this mode; it exists purely to reproduce the
    # "Open-MX ignoring BH receive copy" upper-bound curve.
    ignore_bh_copy: bool = False

    # -- extension (paper §VI future work): predictive sleep instead of busy
    # polling while waiting for synchronous I/OAT completions
    ioat_sleep_model: bool = False

    # -- extension (paper §III-C/§VI planned rework): match eager messages
    # in the driver so a single event per medium message is reported and
    # medium fragment copies can be overlapped like large ones
    kernel_matching: bool = False

    def validate(self) -> None:
        """Sanity-check threshold ordering; raises ValueError on nonsense."""
        if not (0 < self.small_max <= self.medium_max):
            raise ValueError("need 0 < small_max <= medium_max")
        if self.medium_frag <= 0 or self.large_frag <= 0:
            raise ValueError("fragment sizes must be positive")
        if self.pull_block_frags < 1 or self.pull_outstanding_blocks < 1:
            raise ValueError("pull pipeline must have >= 1 block of >= 1 frag")
        if self.ioat_min_frag < 1:
            raise ValueError("ioat_min_frag must be >= 1")
        if not self.copy_backend or not isinstance(self.copy_backend, str):
            raise ValueError("copy_backend must be a non-empty backend name")


@dataclass(frozen=True)
class Platform:
    """Bundle of all parameter blocks describing the testbed."""

    host: HostParams = field(default_factory=HostParams)
    nic: NicParams = field(default_factory=NicParams)
    mx: MxParams = field(default_factory=MxParams)
    omx: OmxConfig = field(default_factory=OmxConfig)

    def with_omx(self, **overrides) -> "Platform":
        """Return a copy with Open-MX config fields overridden."""
        return replace(self, omx=replace(self.omx, **overrides))


def clovertown_5000x(**omx_overrides) -> Platform:
    """The paper's testbed: dual Xeon E5345 + Intel 5000X + Myri-10G.

    Keyword arguments override :class:`OmxConfig` fields, e.g.
    ``clovertown_5000x(ioat_enabled=True)``.
    """
    plat = Platform()
    if omx_overrides:
        plat = plat.with_omx(**omx_overrides)
    plat.omx.validate()
    return plat
