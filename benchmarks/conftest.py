"""Shared helpers for the figure-regeneration benchmarks.

Every benchmark calls one experiment runner from
:mod:`repro.reporting.experiments` (or builds a small scenario of its own)
and asserts the paper's findings on the result.  The simulations are
deterministic and measure *simulated* time; host time is ``perfbench/``'s
job.  Run with ``-s`` to see the reproduced figures/tables inline.
"""


def show(result) -> None:
    """Print a reproduced figure/table (visible with -s)."""
    print()
    print(result.render())
