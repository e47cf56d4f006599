"""The CPU-copy baseline as a backend: never offloads.

Selecting ``copy_backend="memcpy"`` makes :meth:`~repro.core.offload.
OffloadManager.should_offload` answer False for every fragment, so the
manager's synchronous memcpy path (the paper's non-I/OAT curves) runs —
one backend name per column in the engine shootout, including the
baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends.base import CopyBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.cpu import Core


@register_backend
class MemcpyBackend(CopyBackend):
    """No engine: every fragment is copied synchronously on the CPU."""

    name = "memcpy"
    offloads = False

    def submit_fragment(self, core: "Core", state, skb, skb_off, dst,
                        dst_off, length):
        raise RuntimeError("memcpy backend never offloads")
        yield  # pragma: no cover - makes this a generator like its peers

    def drain_state(self, core: "Core", state):
        return
        yield  # pragma: no cover

    def reap_state(self, state) -> None:
        pass
