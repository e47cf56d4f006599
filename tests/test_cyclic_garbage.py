"""Leak gate: a finished operation leaves no reference cycle behind.

The drain loop runs with the cyclic GC paused (``Simulator._drain``), so
only refcounting frees what a run finishes with.  A finished request,
fabric message or process that sits in a reference cycle therefore stays
in memory until the run ends, and memory grows with the number of
operations simulated.  Each family below runs at two lengths with its
world or testbed kept alive; the cyclic garbage ``gc.collect()`` then
finds must not grow with the length.
"""

import dataclasses
import gc

import pytest

from repro import build_testbed
from repro.cluster.testbed import build_single_node
from repro.fabric.mpi import launch_fabric_world
from repro.fabric.resilience import resilient_allreduce
from repro.fabric.sweep import make_topology
from repro.faults import arm_plan
from repro.faults.soak import fabric_soak_suite
from repro.imb import run_imb
from repro.memory import phantom
from repro.mpi import create_world
from repro.units import KiB
from repro.workloads import run_shm_pingpong


def cyclic_garbage(run, n: int) -> int:
    """Objects ``gc.collect()`` finds unreachable after ``run(n)``, with
    whatever ``run`` returns (its world or testbed) still alive."""
    gc.collect()
    was_on = gc.isenabled()
    gc.disable()
    try:
        with phantom.phantom_payloads(True):
            alive = run(n)
        found = gc.collect()
        del alive  # its own structure is swept by the next census
        return found
    finally:
        if was_on:
            gc.enable()


def fabric_allreduce(algo: str, hosts: int):
    def run(rounds: int):
        world = launch_fabric_world(make_topology("fat_tree2", hosts),
                                    backend="ioat")

        def body(rank):
            sendbuf = rank.space.alloc(4 * KiB)
            recvbuf = rank.space.alloc(4 * KiB)
            for _ in range(rounds):
                yield from rank.allreduce(sendbuf, recvbuf, algo=algo)

        world.run_spmd(body)
        world.finish()
        return world
    return run


def fabric_soak(rounds: int):
    spec = next(s for s in fabric_soak_suite("leak-gate")
                if s.name == "gray-churn")
    spec = dataclasses.replace(spec, rounds=rounds)
    topo = make_topology(spec.topology, spec.hosts, spec.oversubscription,
                         4, ecmp_seed=spec.plan.seed)
    world = launch_fabric_world(topo, backend="memcpy")
    armed = arm_plan(world, spec.plan)

    def body(rank):
        for _ in range(spec.rounds):
            sendbuf = rank.space.alloc(spec.size)
            recvbuf = rank.space.alloc(spec.size)
            yield from resilient_allreduce(rank, sendbuf, recvbuf)

    world.run_spmd(body)
    world.finish()
    return world, armed


def pingpong(size: int, stacks: str = "omx", **omx):
    def run(iters: int):
        tb = build_testbed(stacks=stacks, **omx)
        comm = create_world(tb, ppn=1)
        run_imb(tb, comm, "PingPong", size, iterations=iters, warmup=2)
        return tb, comm
    return run


def shm_pingpong(iters: int):
    tb = build_single_node()
    run_shm_pingpong(tb, 256 * KiB, iterations=iters)
    return tb


#: family -> (run(n), the shorter length n); the longer run is 4n
FAMILIES = {
    "fabric_allreduce_rd": (fabric_allreduce("rd", 16), 2),
    "fabric_allreduce_ring": (fabric_allreduce("ring", 8), 1),
    "fabric_soak_gray_churn": (fabric_soak, 1),
    "pingpong_eager_memcpy": (pingpong(16), 20),
    "pingpong_eager_ioat": (pingpong(16, ioat_enabled=True), 20),
    "pingpong_rndv_memcpy": (pingpong(128 * KiB), 3),
    "pingpong_rndv_ioat": (pingpong(128 * KiB, ioat_enabled=True), 3),
    "pingpong_rndv_flextoe_lanes": (
        pingpong(128 * KiB, ioat_enabled=True, copy_backend="flextoe"), 3),
    "shared_memory": (shm_pingpong, 2),
    "kernel_matching": (pingpong(4 * KiB, kernel_matching=True), 10),
    "native_mx": (pingpong(16, stacks="mx"), 10),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cyclic_garbage_does_not_grow_with_run_length(family):
    run, n = FAMILIES[family]
    short = cyclic_garbage(run, n)
    long = cyclic_garbage(run, 4 * n)
    assert long <= short, (
        f"{family}: {short} cyclic objects after {n} rounds, {long} after "
        f"{4 * n}: a finished operation is kept in a reference cycle")
