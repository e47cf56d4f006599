"""FIG12 — the full IMB suite normalized to native MXoE.

Paper: 128 kB messages average ~68 % of MXoE without offload and improve
~24 % with it; 4 MB messages reach ~90 % (1 ppn) / up to 94 % (2 ppn, where
the I/OAT shm path also kicks in); several tests even pass MXoE.
"""

import statistics

from conftest import show
from repro.reporting.experiments import fig12
from repro.units import KiB, MiB


def _collect(table):
    out = {}
    for test, size, ppn, omx, ioat in table.rows:
        out[(test, size, int(ppn))] = (float(omx), float(ioat))
    return out


def test_fig12_imb_suite():
    table = fig12(quick=False, sizes=[128 * KiB, 4 * MiB])
    show(table)
    rows = _collect(table)

    omx_128 = [v[0] for (t, s, p), v in rows.items() if s == "128KiB" and p == 1]
    ioat_128 = [v[1] for (t, s, p), v in rows.items() if s == "128KiB" and p == 1]
    omx_4m = [v[0] for (t, s, p), v in rows.items() if s == "4MiB" and p == 1]
    ioat_4m = [v[1] for (t, s, p), v in rows.items() if s == "4MiB" and p == 1]
    ioat_4m_2p = [v[1] for (t, s, p), v in rows.items() if s == "4MiB" and p == 2]

    # 128 kB, 1 ppn: Open-MX in the ~68 %-of-MXoE band; I/OAT improves it.
    assert 55 <= statistics.mean(omx_128) <= 85
    assert statistics.mean(ioat_128) > statistics.mean(omx_128) * 1.15

    # 4 MB, 1 ppn: I/OAT reaches ~90 % of MXoE on average.
    assert statistics.mean(ioat_4m) >= 85
    assert statistics.mean(ioat_4m) > statistics.mean(omx_4m) * 1.2

    # 2 ppn at 4 MB: the I/OAT shm path lifts the average further.
    assert statistics.mean(ioat_4m_2p) >= statistics.mean(ioat_4m) * 0.95

    # I/OAT never loses to plain Open-MX on any test/size/ppn.
    for key, (omx, ioat) in rows.items():
        assert ioat >= omx * 0.9, key

    # Paper: "Open-MX is now able to even pass the native MXoE performance
    # on several IMB tests" — at least one entry above 100 %.
    assert any(v[1] > 100.0 for v in rows.values())
