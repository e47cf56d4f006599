"""repro: a simulation-based reproduction of Goglin's Open-MX I/OAT paper.

*Improving Message Passing over Ethernet with I/OAT Copy Offload in Open-MX*
(Brice Goglin, IEEE Cluster 2008).

Quick start::

    from repro import build_testbed

    tb = build_testbed(ioat_enabled=True)
    ep0 = tb.open_endpoint(0, 0)
    ep1 = tb.open_endpoint(1, 0)
    # ... spawn processes doing ep.isend / ep.irecv / ep.wait; tb.run()

See :mod:`repro.reporting.experiments` (CLI: ``omx-repro``) for regenerating
every figure of the paper, and DESIGN.md / EXPERIMENTS.md at the repository
root for the system inventory and measured results.
"""

from repro.params import (
    HostParams,
    IoatParams,
    MxParams,
    NicParams,
    OmxConfig,
    Platform,
    clovertown_5000x,
)

__version__ = "1.0.0"

__all__ = [
    "HostParams",
    "IoatParams",
    "MxParams",
    "NicParams",
    "OmxConfig",
    "Platform",
    "Testbed",
    "build_single_node",
    "build_testbed",
    "clovertown_5000x",
]

#: names resolved on first access, so that ``import repro.fabric`` (which
#: builds no host) does not load the Open-MX hardware model and numpy
_TESTBED_NAMES = ("Testbed", "build_single_node", "build_testbed")


def __getattr__(name: str):
    if name in _TESTBED_NAMES:
        from repro.cluster import testbed
        return getattr(testbed, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
