"""Typed metrics registry with component namespacing.

Every hardware model and protocol layer *registers* its statistics here
instead of being scraped attribute-by-attribute from the outside (the old
``core/counters.py`` pattern, where any counter a new subsystem added was
silently missing from the dump until someone remembered to add a line).

Three metric kinds:

* **counter** — monotonically increasing event count (frames received,
  descriptors completed, retransmissions);
* **gauge** — instantaneous value that can go both ways (active pulls,
  outstanding skbuffs);
* **histogram** — a value distribution in power-of-two buckets (message
  sizes); the only kind that records at runtime.

Counters and gauges are **zero-cost when unread**: a registration stores a
``read`` callable bound to the component's existing plain-``int`` attribute,
so the hot paths keep doing ``self.frames += 1`` and pay nothing for the
registry — values are pulled lazily at :meth:`MetricsRegistry.snapshot`
time.  Histograms record eagerly (one int add per observation) and belong
on cold paths only (e.g. once per completed message).

Snapshot keys are exactly the metric names, so the pre-registry counter
names (``nic_rx_frames``, ``pull_replies_rx``...) survive unchanged —
``collect_counters`` output stays backward compatible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

Number = Union[int, float]


@dataclass(frozen=True)
class Metric:
    """One registered metric: identity plus a lazy ``read`` callable."""

    kind: str  # "counter" | "gauge" | "histogram"
    component: str
    name: str
    read: Callable[[], Number]
    help: str = ""


class Histogram:
    """Power-of-two-bucketed value distribution.

    ``observe(v)`` files ``v`` under the smallest power-of-two upper bound
    that holds it (0 and negatives under bound 0).  The snapshot exposes
    ``<name>_count`` and ``<name>_sum``; full buckets are available on the
    object for rendering.
    """

    __slots__ = ("name", "help", "count", "sum", "buckets")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.count = 0
        self.sum = 0
        #: upper bound (power of two, or 0) -> observations
        self.buckets: dict[int, int] = {}

    def observe(self, value: int) -> None:
        self.count += 1
        self.sum += value
        bound = 1 << (value - 1).bit_length() if value > 0 else 0
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Per-host metric namespace; the source of truth for counter dumps.

    Registration order is preserved in snapshots.  Re-registering a name
    replaces the previous metric (a rebuilt component — e.g. a fresh driver
    on the same host — takes over its names instead of crashing).
    """

    def __init__(self):
        self._metrics: dict[str, Metric] = {}
        self._hists: dict[str, Histogram] = {}

    # -- registration -------------------------------------------------------

    def counter(self, component: str, name: str,
                read: Callable[[], Number], help: str = "") -> None:
        self._metrics[name] = Metric("counter", component, name, read, help)

    def gauge(self, component: str, name: str,
              read: Callable[[], Number], help: str = "") -> None:
        self._metrics[name] = Metric("gauge", component, name, read, help)

    def histogram(self, component: str, name: str, help: str = "") -> Histogram:
        hist = Histogram(name, help)
        self._metrics[name] = Metric("histogram", component, name,
                                     lambda: hist.count, help)
        self._hists[name] = hist
        return hist

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def get_histogram(self, name: str) -> Optional[Histogram]:
        return self._hists.get(name)

    def components(self) -> list[str]:
        seen: dict[str, None] = {}
        for m in self._metrics.values():
            seen.setdefault(m.component, None)
        return list(seen)

    # -- reading ------------------------------------------------------------

    def snapshot_names(self) -> list[str]:
        """Every key :meth:`snapshot` will emit (histograms flattened)."""
        out = []
        for m in self._metrics.values():
            if m.kind == "histogram":
                out.extend((f"{m.name}_count", f"{m.name}_sum"))
            else:
                out.append(m.name)
        return out

    def snapshot(self, component: Optional[str] = None) -> dict[str, Number]:
        """Read every metric now (optionally one component's)."""
        out: dict[str, Number] = {}
        for m in self._metrics.values():
            if component is not None and m.component != component:
                continue
            if m.kind == "histogram":
                hist = self._hists[m.name]
                out[f"{m.name}_count"] = hist.count
                out[f"{m.name}_sum"] = hist.sum
            else:
                out[m.name] = m.read()
        return out


def diff_snapshots(
    a: dict[str, Number], b: dict[str, Number],
    exclude: Iterable[str] = (),
) -> dict[str, tuple[Optional[Number], Optional[Number]]]:
    """Keys whose values differ between two snapshots, as ``{k: (a, b)}``.

    Missing keys appear with ``None`` on the absent side, so a metric that
    only one run registered (a host that never came up) is reported rather
    than silently skipped.  ``exclude`` strips expected-volatile keys.
    """
    drop = set(exclude)
    out: dict[str, tuple[Optional[Number], Optional[Number]]] = {}
    for k in sorted(set(a) | set(b)):
        if k in drop:
            continue
        va, vb = a.get(k), b.get(k)
        if va != vb:
            out[k] = (va, vb)
    return out
