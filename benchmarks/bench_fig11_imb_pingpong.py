"""FIG11 — IMB PingPong across stack configurations.

Asserts the paper's finding that the registration cache matters *less*
than I/OAT copy offload for Open-MX (cheap registration, no NIC address
tables), and that Open-MX + I/OAT reaches MX-class large-message rates.
"""

from conftest import show
from repro.reporting.experiments import fig11
from repro.units import MiB


def test_fig11_imb_pingpong():
    fig = fig11(quick=True)
    show(fig)
    mx = fig.get("MX")
    ioat = fig.get("Open-MX I/OAT")
    omx = fig.get("Open-MX")
    ioat_norc = fig.get("Open-MX I/OAT w/o regcache")
    omx_norc = fig.get("Open-MX w/o regcache")

    size = 4 * MiB
    # I/OAT gain dwarfs the registration-cache gain (paper's key point).
    ioat_gain = ioat.y_at(size) - omx.y_at(size)
    regcache_gain = omx.y_at(size) - omx_norc.y_at(size)
    assert ioat_gain > 1.5 * regcache_gain

    # Large-message parity with native MX (paper: "same performance ...
    # close to the 10G Ethernet line rate").
    assert ioat.y_at(16 * MiB) > 0.95 * mx.y_at(16 * MiB)

    # Ordering of the five curves at large sizes matches the figure.
    assert mx.y_at(size) >= ioat.y_at(size) > ioat_norc.y_at(size) \
        > omx.y_at(size) > omx_norc.y_at(size)

    # Disabling the cache hurts both modes but breaks neither.
    assert ioat_norc.y_at(size) > omx.y_at(size)
