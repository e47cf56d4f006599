"""Open-MX: message passing over generic Ethernet, with I/OAT copy offload.

This package is the paper's contribution.  It mirrors the real Open-MX split:

* :mod:`~repro.core.endpoint` — the **user-space library**: request posting,
  matching of small/medium messages, eager-ring consumption, rendezvous
  initiation, event progression.
* :mod:`~repro.core.driver` — the **kernel module**: command processing
  (syscalls), the BH receive callback, the pull engine for large messages,
  the shared-memory one-copy path, transmit helpers.
* :mod:`~repro.core.offload` — the **copy-offload manager** (§III): decides
  memcpy vs I/OAT per fragment, tracks pending skbuffs awaiting DMA
  completion, and implements the cleanup routine bounding their number.
* :mod:`~repro.core.pull` — receiver-side pull protocol state (2 pipelined
  blocks of 8 fragments, retransmission on timeout).
* :mod:`~repro.core.reliability` — seqnum/ack/retransmit sessions for eager
  and control traffic.
* :mod:`~repro.core.types` — events, requests and the pinned eager ring.
"""
