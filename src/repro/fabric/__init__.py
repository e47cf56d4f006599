"""repro.fabric: declarative multi-switch topologies at datacenter scale.

The paper measures the receive-side copy on one host pair; ROADMAP item 1
asks the same question — where does the receive copy saturate? — across a
*fabric*: hundreds-to-thousands of hosts behind multi-tier switched
networks with oversubscribed trunks, running real collective algorithms.

The subsystem has three layers:

* :mod:`repro.fabric.spec` — a declarative, JSON-round-trippable topology
  description (hosts, switches, links with per-link rate/latency) plus
  generators for fat-tree (2- and 3-tier), dragonfly, and the historical
  pair/star shapes as degenerate cases;
* :mod:`repro.fabric.routing` — deterministic seeded ECMP route tables
  computed over the switch graph (one table row per (switch, edge-switch)
  pair, shared by every host behind that edge — the memory trick that
  keeps 1024-host fabrics cheap);
* :mod:`repro.fabric.network` + :mod:`repro.fabric.mpi` — a chunk-level
  fabric simulator on the existing event kernel (byte-deterministic,
  tie-break invariant) and a scalable rank launcher that runs the
  *unmodified* :mod:`repro.mpi.collectives` generators over it, with
  shared precomputed cost tables (:mod:`repro.fabric.cost`) instead of
  per-host hardware object graphs.

A world is a function of its spec and receive-copy backend alone:
``launch_fabric_world(spec, backend=)`` builds its own simulator and
metrics registry, prices chunks from the paper's testbed
(:func:`~repro.params.clovertown_5000x`) in 16 KiB cells
(:data:`~repro.fabric.cost.CELL`), and never drops a chunk for queueing
delay — only an armed fault drops one.  The gray-failure tunables are
module constants of :mod:`repro.fabric.resilience`.

Small fabrics can also be compiled into the *full* hardware models
(real :class:`~repro.cluster.host.Host`\\ s and multi-switch
:class:`~repro.ethernet.switch.EthernetSwitch` forwarding) via
:func:`repro.fabric.build.build_fabric_testbed`;
:func:`repro.cluster.testbed.build_testbed` and
:func:`repro.ethernet.switch.build_switched_testbed` are now thin wrappers
over the pair/star degenerate specs.
"""

from repro.fabric.spec import (
    LinkSpec,
    SwitchSpec,
    TopologySpec,
    dragonfly,
    fat_tree,
    pair_topology,
    star_topology,
)
from repro.fabric.network import FabricNetwork
from repro.fabric.mpi import FabricWorld, launch_fabric_world
from repro.fabric.resilience import (
    FabricResilience,
    LinkHealth,
    resilient_allreduce,
)
from repro.fabric.sweep import chaos_campaign, run_fabric_collective

__all__ = [
    "LinkSpec",
    "SwitchSpec",
    "TopologySpec",
    "dragonfly",
    "fat_tree",
    "pair_topology",
    "star_topology",
    "FabricNetwork",
    "FabricWorld",
    "FabricResilience",
    "LinkHealth",
    "chaos_campaign",
    "launch_fabric_world",
    "resilient_allreduce",
    "run_fabric_collective",
]
