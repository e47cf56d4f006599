"""Pluggable same-timestamp tie-break policies for the event heap.

Under a policy the :class:`~repro.simkernel.scheduler.Simulator` keeps
every entry on one heap ordered by ``(time, key)``; the *key* for entries
at equal times is what a tie-break policy controls.  The documented
contract — and the default, whose per-time FIFO buckets are bit-identical
to the historical behaviour — is FIFO: ties fire in scheduling order
(monotonic sequence numbers).

Everything else in this module exists to *attack* that contract.  The
race detector (:mod:`repro.analysis.races`) replays a scenario under N
seeded permutations of same-timestamp ties; a simulation whose results
depend on anything beyond the documented tie-break diverges, and the
detector bisects the divergence to the minimal flipped tie.  Policies:

* :class:`FifoTieBreak` — the explicit spelling of the default; key is
  the sequence number itself;
* :class:`SeededShuffleTieBreak` — every scheduled entry draws a seeded
  pseudo-random priority, so entries at the *same* timestamp fire in a
  per-seed random permutation (entries at different times are untouched:
  time remains the primary key);
* :class:`PrefixShuffleTieBreak` — shuffles only the first ``limit``
  scheduled entries and is FIFO afterwards; binary-searching ``limit``
  is how the detector isolates the minimal tie-flip that reproduces a
  divergence.

Policies are stateful (an RNG stream, a push counter) and must not be
shared across simulators: hand each :class:`Simulator` its own instance,
or install a *factory* with :func:`default_tiebreak` so every simulator
built inside the ``with`` block gets a fresh policy — which is how the
detector reaches simulators constructed deep inside testbed factories.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple

__all__ = [
    "TieBreakPolicy",
    "FifoTieBreak",
    "SeededShuffleTieBreak",
    "PrefixShuffleTieBreak",
    "default_tiebreak",
]

#: shuffled keys are ``(priority, seq)`` tuples; post-prefix FIFO entries
#: use this sentinel priority, above any 32-bit draw, so a bisection run's
#: un-shuffled tail never steals a tie from the shuffled prefix
_FIFO_PRIORITY = 1 << 33


class TieBreakPolicy:
    """Base: maps a monotonic sequence number to a heap tie key.

    Keys from one policy instance must be mutually comparable and totally
    ordered (include ``seq`` as the last tuple element when drawing random
    priorities).  The simulator calls :meth:`key` once per scheduled heap
    entry, in scheduling order — a policy's output must be a pure function
    of its seed and that call sequence, never of wall clock or ids.
    """

    #: short name used in race-detector reports
    name: str = "base"

    def key(self, seq: int) -> object:
        raise NotImplementedError


class FifoTieBreak(TieBreakPolicy):
    """The documented default: ties fire in scheduling order."""

    name = "fifo"

    def key(self, seq: int) -> int:
        return seq


class SeededShuffleTieBreak(TieBreakPolicy):
    """Seeded random permutation of every same-timestamp tie.

    One RNG draw per scheduled entry keeps the permutation a pure function
    of (seed, push index).  ``seq`` stays in the key as the tie-of-ties
    breaker so the shuffled order itself is total and reproducible.
    """

    name = "shuffle"

    def __init__(self, seed: str = "shuffle"):
        self.seed = str(seed)
        self._rng = random.Random(f"tiebreak:{self.seed}")

    def key(self, seq: int) -> Tuple[int, int]:
        return (self._rng.getrandbits(32), seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeededShuffleTieBreak({self.seed!r})"


class PrefixShuffleTieBreak(TieBreakPolicy):
    """Shuffle only the first ``limit`` scheduled entries, FIFO after.

    The RNG stream is drawn for *every* entry (draws beyond the prefix are
    discarded) so two runs with different limits see identical priorities
    for their common prefix — the invariant the bisection relies on: runs
    at ``limit`` and ``limit - 1`` differ in exactly one tie assignment.
    """

    name = "prefix-shuffle"

    def __init__(self, seed: str, limit: int):
        self.seed = str(seed)
        self.limit = limit
        self._rng = random.Random(f"tiebreak:{self.seed}")
        self._pushed = 0

    def key(self, seq: int) -> Tuple[int, int]:
        self._pushed += 1
        priority = self._rng.getrandbits(32)
        if self._pushed <= self.limit:
            return (priority, seq)
        return (_FIFO_PRIORITY, seq)


@contextmanager
def default_tiebreak(
    factory: Optional[Callable[[], Optional[TieBreakPolicy]]],
) -> Iterator[None]:
    """Install ``factory`` as the process-wide default tie-break source.

    Every :class:`~repro.simkernel.scheduler.Simulator` constructed without
    an explicit ``tiebreak`` argument while the block is active calls the
    factory for its policy (a fresh instance per simulator — policies are
    stateful).  ``None`` restores the FIFO fast path.  The previous factory
    is restored on exit, so nested detectors compose.
    """
    from repro.simkernel.scheduler import Simulator

    prev = Simulator.default_tiebreak_factory
    Simulator.default_tiebreak_factory = factory
    try:
        yield
    finally:
        Simulator.default_tiebreak_factory = prev
