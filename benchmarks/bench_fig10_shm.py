"""FIG10 — shared-memory one-copy ping-pong with and without I/OAT.

Asserts the three regimes of the paper's figure: ~6 GiB/s while the
working set fits a shared L2, ~1.2 GiB/s across sockets, and a flat
~2.3 GiB/s I/OAT curve (~80 % above the slow CPU cases) beyond the large
threshold.
"""

import pytest

from conftest import show
from repro.reporting.experiments import fig10
from repro.units import KiB, MiB


def test_fig10_shm_pingpong():
    fig = fig10(quick=False)
    show(fig)
    same = fig.get("Memcpy on the same dual-core subchip")
    cross = fig.get("Memcpy between different processor sockets")
    ioat = fig.get("I/OAT offloaded synchronous copy")

    # Shared-L2 plateau near 6 GiB/s for cache-resident messages.
    assert same.y_at(256 * KiB) > 4500
    assert same.y_at(1 * MiB) > 4500
    # ... collapsing once the message exceeds the 4 MiB L2.
    assert same.y_at(16 * MiB) < 0.5 * same.y_at(1 * MiB)

    # Cross-socket: flat ~1.2 GiB/s.
    assert 1000 < cross.y_at(1 * MiB) < 1500
    assert 1000 < cross.y_at(256 * KiB) < 1500

    # I/OAT: ~2.3 GiB/s beyond the 32 kB threshold, insensitive to size.
    for size in (256 * KiB, 1 * MiB, 4 * MiB, 16 * MiB):
        assert 2000 < ioat.y_at(size) < 2800

    # Paper: ~80 % above the non-shared-cache CPU copy...
    assert ioat.y_at(1 * MiB) > 1.6 * cross.y_at(1 * MiB)
    # ...and roughly 2x the large-message CPU path.
    assert ioat.y_at(16 * MiB) > 1.2 * same.y_at(16 * MiB)

    # Below the threshold the I/OAT config rides the regular local path.
    assert ioat.y_at(4 * KiB) == pytest.approx(same.y_at(4 * KiB), rel=0.05)
