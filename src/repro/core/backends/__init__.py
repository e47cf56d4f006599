"""Pluggable copy-engine backends behind the offload manager (DESIGN.md §15).

Importing this package registers the built-in backends; select one with
``OmxConfig.copy_backend`` and the ``engine_shootout`` experiment runs them
all through the same fig-8/9 sweeps.
"""

from repro.core.backends.base import (
    BACKENDS,
    CopyBackend,
    LaneBackend,
    LaneTicket,
    backend_names,
    create_backend,
    register_backend,
)
from repro.core.backends.flextoe import FlexToeBackend
from repro.core.backends.ioat import IoatBackend
from repro.core.backends.memcpy import MemcpyBackend
from repro.core.backends.sgdma import SgdmaBackend
from repro.core.backends.spin import SpinBackend

__all__ = [
    "BACKENDS",
    "CopyBackend",
    "LaneBackend",
    "LaneTicket",
    "backend_names",
    "create_backend",
    "register_backend",
    "FlexToeBackend",
    "IoatBackend",
    "MemcpyBackend",
    "SgdmaBackend",
    "SpinBackend",
]
