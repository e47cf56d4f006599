"""PVFS2-style file transfer (the paper's §I motivation; [23]'s workload).

One client striping a file over I/O servers: write and read-back
throughput with and without I/OAT copy offload, back-to-back and through
a switch with two servers.
"""

from conftest import show
from repro import build_testbed
from repro.ethernet.switch import build_switched_testbed
from repro.reporting.table import Table
from repro.units import MiB
from repro.workloads import run_pvfs_transfer


def test_pvfs_file_transfer():
    table = Table("PVFS-style striped file transfer (8 MiB file)",
                  ["topology", "mode", "write MiB/s", "read MiB/s", "verified"])
    out = {}
    for topo, builder in [
        ("client+1 server", lambda **kw: build_testbed(**kw)),
        ("client+2 servers (switch)", lambda **kw: build_switched_testbed(3, **kw)),
    ]:
        for mode, omx in [("memcpy", {}), ("I/OAT", dict(ioat_enabled=True))]:
            kw = dict(n_servers=1) if "1 server" in topo else {}
            r = run_pvfs_transfer(builder(**omx), file_size=8 * MiB, **kw)
            out[(topo, mode)] = r
            table.add_row(topo, mode, r.write_mib_s, r.read_mib_s,
                          "yes" if r.verified else "NO")
    show(table)
    assert all(r.verified for r in out.values())
    # I/OAT lifts both phases on the point-to-point topology...
    assert out[("client+1 server", "I/OAT")].write_mib_s > \
        1.15 * out[("client+1 server", "memcpy")].write_mib_s
    # ...and the read phase (two servers pushing into one receiver) even more.
    assert out[("client+2 servers (switch)", "I/OAT")].read_mib_s > \
        1.15 * out[("client+2 servers (switch)", "memcpy")].read_mib_s
