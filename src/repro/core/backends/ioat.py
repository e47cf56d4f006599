"""The paper's engine — host-chipset I/OAT — as a backend.

Every method is the :class:`~repro.core.backends.base.CopyBackend`
default: fragments go through :meth:`repro.ioat.api.IoatDmaApi.submit_copy`
on the message's host channel (page-contained descriptors, ~350 ns of CPU
each, the ring-full reap/wait of :func:`repro.ioat.api.wait_ring_slot`),
and poll/drain/reap use the same facade calls.  Selecting it replays the
nine figure pipelines with the event counts of the pre-backend code
(DESIGN.md §15).
"""

from __future__ import annotations

from repro.core.backends.base import CopyBackend, register_backend


@register_backend
class IoatBackend(CopyBackend):
    """Asynchronous descriptor submission to the message's host channel."""

    name = "ioat"
