"""Ablation (§IV-A, §IV-C): the offload thresholds.

Three decisions are probed:

1. the ~1 kB fragment threshold — sweep segment size with the vectored-copy
   model and locate the memcpy/I-OAT crossover;
2. the 64 kB message threshold — offloading everything (``ioat_min_msg=0``)
   must not beat the thresholded configuration for medium-sized messages;
3. the medium-message synchronous offload (``ioat_medium_sync``) — the
   paper tried it and "noticed a performance degradation"; so do we.
"""

import pytest

from conftest import show
from repro.cluster.testbed import build_single_node, build_testbed
from repro.mpi import create_world
from repro.imb import run_imb
from repro.reporting.table import Table
from repro.units import KiB, MiB
from repro.workloads import measure_vectored_copy


def test_fragment_threshold_crossover():
    tb = build_single_node()
    table = Table("ABLATION: copy engine vs segment size (256 kB total)",
                  ["segment", "memcpy GiB/s", "I/OAT GiB/s", "winner"])
    results = {}
    for segment in (128, 256, 512, 1 * KiB, 2 * KiB, 4 * KiB):
        r = measure_vectored_copy(tb.hosts[0], 256 * KiB, segment)
        results[segment] = r
        table.add_row(f"{segment}B", f"{r.memcpy_gib_s:.2f}", f"{r.ioat_gib_s:.2f}",
                      "I/OAT" if r.ioat_gib_s > r.memcpy_gib_s else "memcpy")
    show(table)
    # Sub-kilobyte segments favour memcpy; page segments favour the engine:
    # exactly the paper's "fragments at least about one kilobyte" rule.
    assert results[256].memcpy_gib_s > results[256].ioat_gib_s
    assert results[4 * KiB].ioat_gib_s > results[4 * KiB].memcpy_gib_s
    # The crossover falls in the 512 B .. 2 kB band.
    crossover = min(s for s, r in results.items() if r.ioat_gib_s > r.memcpy_gib_s)
    assert 512 <= crossover <= 2 * KiB


def _pingpong(size, **omx):
    tb = build_testbed(**omx)
    comm = create_world(tb)
    return run_imb(tb, comm, "PingPong", size, iterations=4, warmup=2).mib_s


def test_message_threshold_not_harmful():
    table = Table("ABLATION: ioat_min_msg threshold (PingPong MiB/s)",
                  ["size", "thresholded (64kB)", "offload-everything"])
    vals = {}
    for size in (48 * KiB, 256 * KiB):
        a = _pingpong(size, ioat_enabled=True)
        b = _pingpong(size, ioat_enabled=True, ioat_min_msg=0)
        vals[size] = (a, b)
        table.add_row(f"{size >> 10}KiB", a, b)
    show(table)
    # Large messages: both configs offload, same result.
    assert vals[256 * KiB][1] == pytest.approx(vals[256 * KiB][0], rel=0.05)
    # At 48 kB (below the threshold) offloading everything buys little.
    # (It can be mildly positive in the model: the consumer-side benefit of
    # a memcpy-warmed cache — the paper's stated reason for the 64 kB
    # guard — applies to the application's later reads, which the
    # simulator does not execute.  See EXPERIMENTS.md.)
    assert vals[48 * KiB][1] < 1.25 * vals[48 * KiB][0]


def test_medium_sync_offload_degrades():
    """§IV-C: synchronous I/OAT for 4 kB medium fragments is a loss."""

    base = _pingpong(16 * KiB, ioat_enabled=True)
    sync = _pingpong(16 * KiB, ioat_enabled=True, ioat_medium_sync=True)
    table = Table("ABLATION: medium-fragment synchronous offload (16 kB PingPong)",
                  ["config", "MiB/s"])
    table.add_row("memcpy mediums (default)", base)
    table.add_row("I/OAT sync mediums", sync)
    show(table)
    assert sync < base, "sync medium offload should degrade performance"
