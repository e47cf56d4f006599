"""MPI point-to-point matching encoded into MX match info.

MPI matching (communicator, source rank, tag — with MPI_ANY_SOURCE /
MPI_ANY_TAG wildcards) is encoded into the MX 64-bit match info exactly the
way MPICH-MX does it:

    bits 48..63  context id (communicator)
    bits 32..47  source rank
    bits  0..31  tag

A wildcard clears the corresponding bits in the receive *mask*.
"""

from __future__ import annotations

#: wildcards (match any source / any tag)
ANY_SOURCE = -1
ANY_TAG = -1

_CTX_SHIFT = 48
_SRC_SHIFT = 32
_SRC_MASK = 0xFFFF << _SRC_SHIFT
_TAG_MASK = 0xFFFFFFFF
_FULL_MASK = ~0


def encode_match(context: int, source: int, tag: int) -> int:
    """Build the send-side match info."""
    return ((context & 0xFFFF) << _CTX_SHIFT) | ((source & 0xFFFF) << _SRC_SHIFT) | (tag & _TAG_MASK)


def encode_recv(context: int, source: int, tag: int) -> tuple[int, int]:
    """Build the recv-side (match, mask) pair honouring wildcards."""
    mask = _FULL_MASK
    src = 0 if source == ANY_SOURCE else source
    t = 0 if tag == ANY_TAG else tag
    if source == ANY_SOURCE:
        mask &= ~_SRC_MASK
    if tag == ANY_TAG:
        mask &= ~_TAG_MASK
    return encode_match(context, src, t), mask

