"""The MX-over-Ethernet packet vocabulary.

One packet class covers every message type; unused fields stay at their
defaults.  Data-bearing packets reference the *source* memory region without
copying (zero-copy transmit, §II-A); the bytes materialise into the receive
skbuff at NIC DMA time via :meth:`MxPacket.gather_data`.

Message classes (thresholds in :class:`~repro.params.OmxConfig`):

========  =====================  =========================================
class     wire packets           receive handling (Open-MX)
========  =====================  =========================================
tiny/     ``TINY``/``SMALL``     copy to eager ring in BH + copy to app
small                            buffer in the library (two copies)
medium    ``MEDIUM_FRAG`` × n    same, 4 kB fragments
large     ``RNDV`` handshake,    driver-managed pull: copy (or I/OAT
          ``PULL_REQ`` /         offload) straight into the pinned
          ``PULL_REPLY`` × n,    destination region (one copy)
          ``NOTIFY``
========  =====================  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum, auto
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.memory.buffers import MemoryRegion


class PktType(IntEnum):
    """Wire packet discriminator."""

    TINY = auto()
    SMALL = auto()
    MEDIUM_FRAG = auto()
    RNDV = auto()
    PULL_REQ = auto()
    PULL_REPLY = auto()
    NOTIFY = auto()
    ACK = auto()
    #: intra-simulation liback for eager reliability
    NACK = auto()
    #: unsequenced proof-of-life probe after sustained peer silence
    KEEPALIVE = auto()
    #: unsequenced receiver-overload signal (backpressure: senders back off)
    BUSY = auto()


#: per-type wire header size in bytes (MX-like compact headers)
HEADER_SIZE: dict[PktType, int] = {
    PktType.TINY: 24,
    PktType.SMALL: 24,
    PktType.MEDIUM_FRAG: 32,
    PktType.RNDV: 40,
    PktType.PULL_REQ: 40,
    PktType.PULL_REPLY: 32,
    PktType.NOTIFY: 24,
    PktType.ACK: 16,
    PktType.NACK: 16,
    PktType.KEEPALIVE: 16,
    PktType.BUSY: 16,
}


def match_accepts(recv_match: int, recv_mask: int, send_match: int) -> bool:
    """MX matching rule: masked bits of the match info must agree."""
    return (send_match & recv_mask) == (recv_match & recv_mask)


class EndpointAddr(NamedTuple):
    """A communication endpoint: (board/host id, endpoint index)."""

    host: int
    endpoint: int

    def __str__(self) -> str:
        return f"{self.host}:{self.endpoint}"


@dataclass(slots=True)
class MxPacket:
    """One MXoE packet."""

    ptype: PktType
    src: EndpointAddr
    dst: EndpointAddr

    # -- matching / message identity --
    match_info: int = 0
    #: per-(src→dst endpoint) session sequence number for eager reliability
    seqnum: int = -1
    #: sender-side message identity (completion routing)
    msg_id: int = 0
    #: total message length in bytes
    msg_len: int = 0

    # -- fragmentation (medium messages) --
    frag_index: int = 0
    frag_count: int = 1
    #: byte offset of this fragment's data within the message
    offset: int = 0

    # -- pull protocol (large messages) --
    #: receiver-side pull-handle id (which large receive this belongs to)
    pull_handle: int = -1
    #: block index within the pull
    block_index: int = 0
    #: requested span for PULL_REQ: [req_offset, req_offset+req_length)
    req_offset: int = 0
    req_length: int = 0

    # -- data (zero-copy reference into the sender's region) --
    data_region: Optional[MemoryRegion] = field(default=None, repr=False)
    data_offset: int = 0
    data_length: int = 0

    # -- acknowledgement --
    ack_seqnum: int = -1

    def __post_init__(self) -> None:
        if self.data_length < 0:
            raise ValueError("negative data length")
        if self.data_region is not None:
            if self.data_offset + self.data_length > len(self.data_region):
                raise ValueError("packet data outside source region")

    @property
    def header_size(self) -> int:
        return HEADER_SIZE[self.ptype]

    @property
    def wire_payload_len(self) -> int:
        """Bytes after the MAC header: MX header + data."""
        return self.header_size + self.data_length

    def gather_data(self) -> np.ndarray:
        """Materialise the data bytes (called at NIC DMA time)."""
        if self.data_region is None or self.data_length == 0:
            import numpy as np
            return np.empty(0, dtype=np.uint8)
        return self.data_region.read(self.data_offset, self.data_length)

    def describe(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{self.ptype.name} {self.src}->{self.dst} len={self.data_length} "
            f"off={self.offset} seq={self.seqnum} msg={self.msg_id}"
        )
