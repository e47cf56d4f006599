"""FIG3 — expected Open-MX improvement when the BH receive copy is removed.

Regenerates the ping-pong comparison of native MX, stock Open-MX and the
``ignore_bh_copy`` prediction mode, and asserts the paper's qualitative
findings: the BH copy is what separates Open-MX (~800 MiB/s) from the line
rate its sender side can already sustain.
"""

from conftest import show
from repro.reporting.experiments import fig3
from repro.units import KiB, MiB, TEN_GBE_LINE_RATE_MIB_S


def test_fig3_expected_improvement():
    fig = fig3(quick=True)
    show(fig)
    mx = fig.get("MX")
    omx = fig.get("Open-MX")
    ignore = fig.get("Open-MX ignoring BH receive copy")

    for size in (1 * MiB, 4 * MiB):
        # Stock Open-MX is BH-copy-bound near the paper's ~800 MiB/s...
        assert 650 < omx.y_at(size) < 900
        # ...while removing the copy predicts near-line-rate,
        assert ignore.y_at(size) > 0.9 * TEN_GBE_LINE_RATE_MIB_S
        # close to what the native firmware stack achieves.
        assert ignore.y_at(size) > 0.95 * mx.y_at(size)
        # The headroom motivating the paper: >= 30 % left on the table.
        assert ignore.y_at(size) > 1.3 * omx.y_at(size)

    # MX wins everywhere (no syscall/BH path at all).
    for size, y in zip(omx.xs, omx.ys):
        assert mx.y_at(size) >= y
