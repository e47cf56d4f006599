#!/usr/bin/env python
"""Packet loss and recovery: the §III-B retransmission machinery at work.

Transfers one large message while dropping a configurable share of the data
frames on the wire, then dumps the omx_counters-style statistics showing
the pull watchdog's block re-requests, duplicate filtering and the bounded
skbuff accounting — and verifies the payload arrived byte-exact anyway.

Run:  python examples/fault_injection.py
"""

from repro import build_testbed
from repro.core.counters import render_counters
from repro.ethernet.link import LossInjector
from repro.units import MiB


def main() -> None:
    size = 2 * MiB
    tb = build_testbed(ioat_enabled=True)
    injector = LossInjector(predicate=lambda frame, i: i % 23 == 7)
    tb.link.inject_fault(True, injector)  # drop ~4 % of data-direction frames

    ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
    c0, c1 = tb.user_core(0), tb.user_core(1)
    sbuf = ep0.space.alloc(size)
    rbuf = ep1.space.alloc(size, fill=0)
    sbuf.fill_pattern(seed=7)
    done = tb.sim.event()

    def sender():
        req = yield from ep0.isend(c0, ep1.addr, 0x1, sbuf)
        yield from ep0.wait(c0, req)

    def receiver():
        req = yield from ep1.irecv(c1, 0x1, ~0, rbuf)
        yield from ep1.wait(c1, req)
        done.succeed()

    tb.sim.process(sender())
    tb.sim.process(receiver())
    tb.sim.run_until(done, max_events=80_000_000)
    tb.sim.run(until=tb.sim.now + 5_000_000)

    ok = bytes(rbuf.read()) == bytes(sbuf.read())
    print(f"transferred {size >> 20} MiB with {injector.dropped} frames dropped "
          f"on the wire -> data {'INTACT' if ok else 'CORRUPTED'}")
    print(f"(completed at t = {tb.sim.now / 1e6:.2f} ms simulated)\n")
    print(render_counters(tb.stacks[1], "receiver counters"))
    assert ok


if __name__ == "__main__":
    main()
