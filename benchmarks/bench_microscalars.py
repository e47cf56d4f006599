"""§IV-A scalars — submission cost and offload break-even sizes."""

from conftest import show
from repro.reporting.experiments import micro


def test_micro_scalars():
    table = micro()
    show(table)
    rows = {r[0]: r for r in table.rows}
    # paper: ~350 ns submission
    assert rows["I/OAT submission cost (ns)"][2] == "350"
    # paper: ~600 B uncached break-even (we accept a band)
    assert 400 <= int(rows["break-even size, uncached (B)"][2]) <= 900
    # paper: ~2 kB cached break-even
    assert 1200 <= int(rows["break-even size, cached (B)"][2]) <= 4096
    # engine/CPU asymptotes at 4 kB chunks
    assert 2.1 <= float(rows["I/OAT rate @4kB chunks (GiB/s)"][2]) <= 2.7
    assert 1.3 <= float(rows["memcpy @4kB chunks (GiB/s)"][2]) <= 1.7
