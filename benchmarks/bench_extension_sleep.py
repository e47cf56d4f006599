"""Extension (§VI future work): predictive sleep instead of busy polling.

The paper's I/OAT lacks completion interrupts, so synchronous waits busy
poll.  §VI proposes benchmarking the engine to predict copy duration and
sleeping until completion is near.  ``OmxConfig.ioat_sleep_model`` enables
exactly that for the shm one-copy path; this bench shows it keeps the
throughput while releasing the CPU.
"""

from conftest import show
from repro.cluster.testbed import build_single_node
from repro.reporting.table import Table
from repro.units import MiB
from repro.workloads import run_shm_pingpong


def _run(sleep_model: bool, size: int = 4 * MiB):
    tb = build_single_node(ioat_enabled=True, ioat_sleep_model=sleep_model)
    host = tb.hosts[0]
    host.cpus.reset_counters()
    t0 = tb.sim.now
    mib_s = run_shm_pingpong(tb, size, "same_die", iterations=6, warmup=1)
    elapsed = tb.sim.now - t0
    usage = host.cpus.usage_percent(elapsed)
    return mib_s, usage.get("driver", 0.0)


def test_sleep_model_frees_cpu():
    busy_mib, busy_cpu = _run(sleep_model=False)
    sleep_mib, sleep_cpu = _run(sleep_model=True)
    table = Table("EXTENSION: busy-poll vs predictive sleep (4 MiB shm)",
                  ["wait model", "MiB/s", "driver CPU %"])
    table.add_row("busy poll (paper)", busy_mib, busy_cpu)
    table.add_row("predictive sleep (§VI)", sleep_mib, sleep_cpu)
    show(table)
    # Same throughput class...
    assert sleep_mib > 0.9 * busy_mib
    # ...with a fraction of the CPU burn.
    assert sleep_cpu < 0.5 * busy_cpu
