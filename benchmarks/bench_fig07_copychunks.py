"""FIG7 — pipelined memcpy vs I/OAT copy under different chunk sizes.

Asserts the micro-benchmark conclusions of §IV-A: chunking barely affects
memcpy, devastates I/OAT below ~1 kB, and page-sized chunks let the engine
beat the CPU by ~60 %.
"""

from conftest import show
from repro.reporting.experiments import fig7
from repro.units import KiB, MiB


def test_fig7_copy_chunk_curves():
    fig = fig7(quick=False)
    show(fig)
    big = 1 * MiB

    m4k = fig.get("Memcpy - 4kB chunks").y_at(big)
    m256 = fig.get("Memcpy - 256B chunks").y_at(big)
    i4k = fig.get("I/OAT Copy - 4kB chunks").y_at(big)
    i1k = fig.get("I/OAT Copy - 1kB chunks").y_at(big)
    i256 = fig.get("I/OAT Copy - 256B chunks").y_at(big)

    # memcpy is nearly chunk-insensitive ("does not imply much degradation")
    assert m256 > 0.8 * m4k
    # paper's asymptotes: ~2.4 GiB/s vs ~1.5 GiB/s at page chunks
    assert 2200 < i4k < 2700
    assert 1400 < m4k < 1700
    assert i4k > 1.45 * m4k
    # 1 kB chunks are the break-even neighbourhood
    assert 0.7 * m4k < i1k < m4k
    # 256 B chunks collapse the engine far below memcpy
    assert i256 < 0.35 * m256
