"""Extension (§VI planned rework): in-kernel matching for medium messages.

"We are now working on deporting the matching from user-space into the
driver so that a single completion event per medium message will be needed,
making the aforementioned overlapping possible."  This bench quantifies
what that rework buys in the model: medium-range streams gain throughput
while the BH sheds the synchronous copies and the library sheds its second
copy entirely.
"""

from conftest import show
from repro import build_testbed
from repro.reporting.table import Table
from repro.units import KiB
from repro.workloads import run_stream_usage


def _stream(size, **omx):
    tb = build_testbed(**omx)
    return run_stream_usage(tb, size, iterations=12, warmup=3)


def test_kernel_matching_medium_overlap():
    table = Table("EXTENSION: in-kernel matching, 32 kB stream",
                  ["config", "MiB/s", "BH %", "user %"])
    out = {}
    for label, omx in [
        ("classic", dict(ioat_enabled=True)),
        ("kernel matching", dict(ioat_enabled=True, kernel_matching=True)),
    ]:
        u = _stream(32 * KiB, **omx)
        out[label] = u
        table.add_row(label, u.throughput_mib_s, u.bh_pct, u.user_pct)
    show(table)
    classic, kernel = out["classic"], out["kernel matching"]
    # One event per message + overlapped medium copies:
    assert kernel.throughput_mib_s > 1.05 * classic.throughput_mib_s
    assert kernel.bh_pct < classic.bh_pct - 15
    assert kernel.user_pct < classic.user_pct / 3
