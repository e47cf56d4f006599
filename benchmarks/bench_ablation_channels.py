"""Ablation (§V): one DMA channel per message vs striping across all four.

The paper cites [22]: striping a single copy over multiple channels raises
raw copy throughput by up to 40 %, but Open-MX keeps one channel per
message, relying on concurrent messages to fill the channels.  This bench
quantifies both sides of that trade-off on the engine model.
"""

from conftest import show
from repro.cluster.testbed import build_single_node
from repro.memory.buffers import AddressSpace
from repro.reporting.table import Table
from repro.units import MiB, throughput_mib_s


def _copy_once(striped: bool, size: int = 4 * MiB) -> float:
    tb = build_single_node()
    host = tb.hosts[0]
    core = host.user_core(0)
    space = AddressSpace("ablation")
    src, dst = space.alloc(size), space.alloc(size)
    done = tb.sim.event()

    def work():
        yield core.res.request()
        t0 = tb.sim.now
        if striped:
            cookies = yield from host.ioat.submit_copy_striped(
                core, src, 0, dst, 0, size, "bench"
            )
            for c in cookies:
                yield from host.ioat.busy_wait(core, c, "bench")
        else:
            cookie = yield from host.ioat.submit_copy(
                core, src, 0, dst, 0, size, "bench"
            )
            yield from host.ioat.busy_wait(core, cookie, "bench")
        core.res.release()
        done.succeed(tb.sim.now - t0)

    tb.sim.daemon(work(), name="ablation-copy")
    elapsed = tb.sim.run_until(done)
    return throughput_mib_s(size, elapsed)


def _concurrent_messages(striped: bool, n_msgs: int = 4, size: int = 1 * MiB) -> float:
    """Aggregate throughput with several outstanding messages."""
    tb = build_single_node()
    host = tb.hosts[0]
    space = AddressSpace("ablation-multi")
    pairs = [(space.alloc(size), space.alloc(size)) for _ in range(n_msgs)]
    t0 = tb.sim.now
    procs = []
    for i, (src, dst) in enumerate(pairs):
        core = host.user_core(i)

        def work(core=core, src=src, dst=dst):
            yield core.res.request()
            if striped:
                cookies = yield from host.ioat.submit_copy_striped(
                    core, src, 0, dst, 0, size, "bench"
                )
                for c in cookies:
                    yield from host.ioat.busy_wait(core, c, "bench")
            else:
                cookie = yield from host.ioat.submit_copy(
                    core, src, 0, dst, 0, size, "bench"
                )
                yield from host.ioat.busy_wait(core, cookie, "bench")
            core.res.release()

        procs.append(tb.sim.process(work(), name=f"msg{i}"))
    from repro.simkernel.event import AllOf

    tb.sim.run_until(AllOf(tb.sim, procs))
    return throughput_mib_s(n_msgs * size, tb.sim.now - t0)


def test_channel_striping_tradeoff():
    table = Table("ABLATION: DMA channel assignment policy",
                  ["scenario", "1 chan/msg (MiB/s)", "striped x4 (MiB/s)"])
    table.add_row("single message, 4 MiB",
                  _copy_once(striped=False), _copy_once(striped=True))
    table.add_row("4 concurrent messages, 1 MiB each",
                  _concurrent_messages(striped=False),
                  _concurrent_messages(striped=True))
    show(table)
    single_plain = float(table.rows[0][1])
    single_striped = float(table.rows[0][2])
    multi_plain = float(table.rows[1][1])
    multi_striped = float(table.rows[1][2])

    # [22]'s observation: striping a lone copy is substantially faster
    # (bounded by the submission pipeline rather than 4x).
    assert single_striped > 1.3 * single_plain
    # Open-MX's bet: with concurrent messages, one-channel-per-message
    # already fills the engine, so striping buys little there.
    assert multi_striped < 1.15 * multi_plain
    # Concurrency recovers most of the striped single-copy rate.
    assert multi_plain > 0.8 * single_striped
