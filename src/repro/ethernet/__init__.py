"""Generic Ethernet substrate: the layer Open-MX is built on.

Models the parts of the Linux Ethernet stack that shape the paper's problem:

* :mod:`~repro.ethernet.frame` — frames and wire-size arithmetic.
* :mod:`~repro.ethernet.skbuff` — socket buffers: kernel-page-backed for
  receive, page-fragment (zero-copy) for transmit, with a leak-checked pool.
* :mod:`~repro.ethernet.link` — a full-duplex point-to-point link with
  per-direction serialization, propagation delay and one optional frame
  fault hook per direction (drop, duplicate, delay, corrupt).
* :mod:`~repro.ethernet.nic` — the NIC: a ring of pre-posted receive
  skbuffs filled by DMA ("the driver cannot predict which packet will
  arrive next", §II-B — the architectural reason receive copies exist),
  interrupt coalescing, and a zero-copy transmit path.
* :mod:`~repro.ethernet.driver` — softirq bottom-half dispatch: received
  skbuffs are handed to per-ethertype protocol handlers on the interrupt
  core.
"""
