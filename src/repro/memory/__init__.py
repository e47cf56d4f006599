"""Memory-system substrate: address spaces, pinning, caches, copy costs.

This package models everything the paper's copy paths depend on:

* :mod:`~repro.memory.layout` — page math and the page-aligned chunking that
  governs how copies are split into DMA descriptors (Fig. 7's x-axis).
* :mod:`~repro.memory.buffers` — numpy-backed memory regions and per-process
  address spaces.  All copies in the simulator move real bytes.
* :mod:`~repro.memory.pinning` — the get_user_pages/registration model with
  per-page costs.
* :mod:`~repro.memory.regcache` — the registration cache of Fig. 11.
* :mod:`~repro.memory.cache` — per-die shared L2 residency model (warm/cold
  copies, cache pollution; the basis of Fig. 10's three regimes).
* :mod:`~repro.memory.copyengine` — the CPU memcpy cost model.
* :mod:`~repro.memory.bus` — memory-bus contention between CPU copies and
  NIC DMA ingress.
"""
