"""NAS IS kernel (§IV-D): "up to 10 % performance increase ... especially
on IS which relies on large messages"."""

from conftest import show
from repro.reporting.experiments import nas


def test_nas_is_improvement():
    table = nas(quick=False)
    show(table)
    times = {row[0]: float(row[1]) for row in table.rows}
    sortedness = {row[0]: row[3] for row in table.rows}

    # The kernel actually sorts on every stack.
    assert all(v == "yes" for v in sortedness.values())

    # I/OAT gives the IS-class improvement (paper: up to ~10 %).
    gain = times["Open-MX"] / times["Open-MX + I/OAT"] - 1.0
    assert gain > 0.05, f"I/OAT gain only {gain:+.1%}"

    # Open-MX without offload trails MXoE (as on every large workload).
    assert times["Open-MX"] >= times["MXoE"] * 0.95
