"""Structured trace recording.

The paper illustrates its contribution with fragment-receive timelines
(Figs. 5 and 6): which CPU processed which fragment, when copies ran, and
when completion was notified.  :class:`TraceRecorder` collects such spans and
can render an ASCII timeline grouped by lane (core, DMA channel, ...), which
the `fig5/fig6`-style examples print.  :mod:`repro.obs.trace` exports the
same spans as Chrome/Perfetto ``trace_events`` JSON.

Recording is off by default and costs nothing when disabled: hot call sites
must guard span construction behind :attr:`TraceRecorder.enabled` themselves
(``if trace is not None and trace.enabled: trace.record(...)``) so that
neither the span arguments nor the label strings are built when tracing is
off; the check inside :meth:`TraceRecorder.record` is only a backstop.

Memory is boundable: with ``max_spans`` set, the recorder becomes a ring
buffer — the oldest spans fall off and :attr:`TraceRecorder.dropped_spans`
counts them (surfaced as the ``trace_dropped_spans`` metric), so a long
sweep with tracing left on cannot grow without bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.scheduler import Simulator


@dataclass(frozen=True)
class TraceSpan:
    """A labelled half-open interval [start, end) on a named lane."""

    lane: str
    label: str
    start: int
    end: int
    category: str = ""

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class TraceInstant:
    """A point event on a lane (fault injected, retransmit fired, drop)."""

    lane: str
    label: str
    at: int
    category: str = ""


class TraceRecorder:
    """Collects :class:`TraceSpan`/:class:`TraceInstant` records when enabled."""

    def __init__(self, sim: "Simulator", enabled: bool = False,
                 max_spans: Optional[int] = None):
        self.sim = sim
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans = deque(maxlen=max_spans) if max_spans else []
        self.instants: list[TraceInstant] = []
        #: spans evicted by the ring buffer since the last clear()
        self.dropped_spans = 0

    def set_max_spans(self, max_spans: Optional[int]) -> None:
        """Re-bound the span buffer, keeping the newest existing spans."""
        self.max_spans = max_spans
        existing = list(self.spans)
        if max_spans:
            self.spans = deque(existing, maxlen=max_spans)
            self.dropped_spans += max(0, len(existing) - max_spans)
        else:
            self.spans = existing

    def record(self, lane: str, label: str, start: int, end: int, category: str = "") -> None:
        if self.enabled:
            if self.max_spans is not None and len(self.spans) == self.max_spans:
                self.dropped_spans += 1
            self.spans.append(TraceSpan(lane, label, start, end, category))

    def instant(self, lane: str, label: str, category: str = "") -> None:
        """Record a point event at the current simulated time."""
        if self.enabled:
            self.instants.append(TraceInstant(lane, label, self.sim.now, category))

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self.dropped_spans = 0

    def lanes(self) -> list[str]:
        """Lane names in first-appearance order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.lane, None)
        for i in self.instants:
            seen.setdefault(i.lane, None)
        return list(seen)

    def spans_on(self, lane: str) -> list[TraceSpan]:
        return [s for s in self.spans if s.lane == lane]

    def render_ascii(self, width: int = 100) -> str:
        """Render spans as a Fig.5/6-style ASCII timeline.

        Each lane becomes one row; spans are drawn as ``[label...]`` blocks
        scaled to the window from the first span start to the last end.
        """
        if not self.spans:
            return "(no trace spans)"
        lo = min(s.start for s in self.spans)
        hi = max(s.end for s in self.spans)
        if hi <= lo:
            hi = lo + 1
        scale = width / (hi - lo)
        lanes = list(dict.fromkeys(s.lane for s in self.spans))
        name_w = max(len(n) for n in lanes) + 1
        lines = []
        for lane in lanes:
            row = [" "] * width
            for s in self.spans_on(lane):
                a = max(0, min(width - 1, int((s.start - lo) * scale)))
                b = max(a + 1, min(width, int((s.end - lo) * scale)))
                text = s.label[: b - a]
                block = list(text.ljust(b - a, "="))
                if block:
                    block[0] = "["
                    if len(block) > 1:
                        block[-1] = "]"
                row[a:b] = block
            lines.append(f"{lane.rjust(name_w)}|{''.join(row)}")
        header = f"{'':>{name_w}}|{lo} ns .. {hi} ns"
        return "\n".join([header] + lines)
