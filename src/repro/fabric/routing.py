"""Deterministic routing over the switch graph.

Routes are computed on the *switch* graph only: hosts are single-homed
leaves, so a route from host A to host B is A's access link, a switch path
from A's edge switch to B's edge switch, and B's access link.  Next-hop
tables are therefore keyed per **(switch, destination edge switch)** pair —
one row shared by every host behind that edge — which is what keeps
1024-host fabrics cheap (a 2-tier fat tree with 32 edges has 32 BFS
destinations, not 1024).

Determinism:

* BFS frontiers and equal-cost next-hop sets are sorted by switch name —
  never by dict/set iteration order;
* ECMP picks among equal-cost next-hops with a :func:`zlib.crc32` hash of
  ``seed | flow-key | switch-name`` — stable across processes and runs
  (Python's ``hash()`` is salted per process and is banned here);
* tables are versioned: killing or reviving a link bumps the version and
  drops the cache, so reroutes recompute from the *current* live-link set
  and two runs with the same fault schedule pick identical detours.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.fabric.spec import TopologySpec


#: shared empty avoid-set for the no-demotion BFS (avoids a per-call alloc)
_NO_AVOID: frozenset = frozenset()


def ecmp_pick(seed: str, flow: str, where: str, n: int) -> int:
    """Deterministic index in ``[0, n)`` for one path choice."""
    if n <= 1:
        return 0
    return zlib.crc32(f"{seed}|{flow}|{where}".encode()) % n


class RouteTables:
    """Next-hop tables over the live switch graph of one topology.

    ``kill_link``/``revive_link`` maintain a set of dead switch-to-switch
    links (access links are handled by the network layer: a dead access
    link has no detour).  Tables are computed lazily per destination edge
    switch and cached until the live-link set changes.
    """

    def __init__(self, spec: TopologySpec):
        self.spec = spec
        self.seed = spec.ecmp_seed
        hosts = set(spec.hosts)
        #: sorted switch -> sorted list of (neighbor, link-cost==1) peers
        self._adj: dict[str, list[str]] = {s: [] for s in spec.switch_names()}
        #: canonical (min, max) name pair -> live?
        self._live: dict[tuple[str, str], bool] = {}
        #: trunks the health layer demoted out of the ECMP candidate set;
        #: advisory — see :meth:`table_for` for the no-partition guarantee
        self._demoted: set[tuple[str, str]] = set()
        for l in spec.links:
            if l.a in hosts or l.b in hosts:
                continue
            self._adj[l.a].append(l.b)
            self._adj[l.b].append(l.a)
            self._live[self._key(l.a, l.b)] = True
        for peers in self._adj.values():
            peers.sort()
        #: host -> its edge switch (precomputed once; hosts never move)
        self.edge_of: dict[str, str] = {}
        for l in spec.links:
            if l.a in hosts:
                self.edge_of[l.a] = l.b
            elif l.b in hosts:
                self.edge_of[l.b] = l.a
        self.version = 0
        #: dst edge switch -> {switch: [equal-cost next hops, sorted]}
        self._tables: dict[str, dict[str, list[str]]] = {}

    @staticmethod
    def _key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a < b else (b, a)

    # -- liveness ----------------------------------------------------------

    def is_live(self, a: str, b: str) -> bool:
        return self._live.get(self._key(a, b), False)

    def kill_link(self, a: str, b: str) -> bool:
        """Mark a trunk dead; returns True if it was live."""
        key = self._key(a, b)
        if key not in self._live:
            raise KeyError(f"no trunk link {a}~{b} in {self.spec.name}")
        was = self._live[key]
        if was:
            self._live[key] = False
            self.version += 1
            self._tables.clear()
        return was

    def revive_link(self, a: str, b: str) -> None:
        key = self._key(a, b)
        if key not in self._live:
            raise KeyError(f"no trunk link {a}~{b} in {self.spec.name}")
        if not self._live[key]:
            self._live[key] = True
            self.version += 1
            self._tables.clear()

    # -- health demotion ---------------------------------------------------

    def demote_link(self, a: str, b: str) -> bool:
        """Drop a trunk from the ECMP candidate set; returns True if it
        was not already demoted.  The link stays *live* — a demotion is a
        routing preference, not a kill — and :meth:`table_for` quietly
        ignores demotions for any destination they would disconnect."""
        key = self._key(a, b)
        if key not in self._live:
            raise KeyError(f"no trunk link {a}~{b} in {self.spec.name}")
        if key in self._demoted:
            return False
        self._demoted.add(key)
        self.version += 1
        self._tables.clear()
        return True

    def restore_link(self, a: str, b: str) -> bool:
        """Re-admit a demoted trunk; returns True if it was demoted."""
        key = self._key(a, b)
        if key not in self._live:
            raise KeyError(f"no trunk link {a}~{b} in {self.spec.name}")
        if key not in self._demoted:
            return False
        self._demoted.discard(key)
        self.version += 1
        self._tables.clear()
        return True

    # -- tables ------------------------------------------------------------

    def _bfs_table(self, dst_edge: str, avoid: set) -> dict[str, list[str]]:
        """Reverse BFS from ``dst_edge`` over live links not in ``avoid``.

        A switch's next hops are its live neighbours one level nearer, and
        the pass that reaches it collects them: frontiers are walked in
        sorted order, so every hop list comes out sorted.
        """
        adj = self._adj
        live = self._live
        table: dict[str, list[str]] = {dst_edge: []}
        frontier = [dst_edge]
        while frontier:
            # switches first reached from this frontier -> their hops
            level: dict[str, list[str]] = {}
            for sw in frontier:
                for peer in adj[sw]:
                    key = (sw, peer) if sw < peer else (peer, sw)
                    if not live[key] or key in avoid:
                        continue
                    hops = level.get(peer)
                    if hops is not None:
                        hops.append(sw)
                    elif peer not in table:
                        level[peer] = table[peer] = [sw]
            frontier = sorted(level)
        return table

    def table_for(self, dst_edge: str) -> dict[str, list[str]]:
        """``{switch: sorted equal-cost next hops toward dst_edge}``.

        Switches with no live path to ``dst_edge`` are absent from the
        table.  Computed by reverse BFS from the destination edge over
        live links only (unit link cost).

        Demoted trunks are excluded from the BFS *unless* that exclusion
        would disconnect a switch the live graph still reaches: demotion
        must never partition, and next-hop rows from two different BFS
        metrics must never mix (mixing can loop), so the fallback is
        all-or-nothing per destination.
        """
        table = self._tables.get(dst_edge)
        if table is not None:
            return table
        table = self._bfs_table(dst_edge, _NO_AVOID)
        if self._demoted:
            preferred = self._bfs_table(dst_edge, self._demoted)
            if len(preferred) == len(table):
                table = preferred
        self._tables[dst_edge] = table
        return table

    # -- path selection ----------------------------------------------------

    def path(self, src_edge: str, dst_edge: str,
             flow: str) -> Optional[tuple[str, ...]]:
        """The switch sequence from ``src_edge`` to ``dst_edge`` inclusive.

        One ECMP draw per hop with an alternative; ``None`` when no live
        path exists.  The same ``flow`` string always walks the same path
        for a given live-link set.
        """
        if src_edge == dst_edge:
            return (src_edge,)
        table = self.table_for(dst_edge)
        if src_edge not in table:
            return None
        walk = [src_edge]
        here = src_edge
        while here != dst_edge:
            hops = table[here]
            here = hops[ecmp_pick(self.seed, flow, here, len(hops))]
            walk.append(here)
        return tuple(walk)

    def reachable(self, src_edge: str, dst_edge: str) -> bool:
        return src_edge == dst_edge or src_edge in self.table_for(dst_edge)
