"""Deterministic routing over the switch graph.

Routes are computed on the *switch* graph only: hosts are single-homed
leaves, so a route from host A to host B is A's access link, a switch path
from A's edge switch to B's edge switch, and B's access link.  Next-hop
tables are therefore keyed per **(switch, destination edge switch)** pair —
one row shared by every host behind that edge — which is what keeps
1024-host fabrics cheap (a 2-tier fat tree with 32 edges has 32 BFS
destinations, not 1024).

Tables are integer-indexed.  Switches are numbered in sorted-name order,
trunks in spec order; a table is a list over switch ids of next-hop id
tuples (``None`` where the destination is unreachable).  Equal rows are one
object: every table of an instance draws its rows from one pool, so the 128
tables of a 1024-host 3-tier fat tree share fewer rows than it has
switches.  Names appear only at the edges: :meth:`RouteTables.path` returns
switch names and hashes them into the ECMP pick, and
:meth:`RouteTables.table_for` is a name-keyed view for cold callers.

Determinism:

* BFS frontiers and equal-cost next-hop sets are sorted by switch id, which
  is sorted by switch name — never by dict/set iteration order;
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


def ecmp_pick(seed: str, flow: str, where: str, n: int) -> int:
    """Deterministic index in ``[0, n)`` for one path choice."""
    if n <= 1:
        return 0
    return zlib.crc32(f"{seed}|{flow}|{where}".encode()) % n


class RouteTables:
    """Next-hop tables over the live switch graph of one topology.

    ``kill_link``/``revive_link`` maintain the set of dead switch-to-switch
    links (access links are handled by the network layer: a dead access
    link has no detour).  Tables are computed lazily per destination edge
    switch and cached until the live-link set changes.
    """

    def __init__(self, spec: TopologySpec):
        self.spec = spec
        self.seed = spec.ecmp_seed
        hosts = set(spec.hosts)
        #: switch id -> name; ids follow sorted-name order
        self._names: list[str] = sorted(spec.switch_names())
        ids = self._ids = {name: i for i, name in enumerate(self._names)}
        #: switch id -> [(peer id, trunk id)]; any order (see :meth:`_bfs`)
        adj = self._adj = [[] for _ in self._names]
        #: canonical (min, max) name pair -> trunk id
        trunk_of: dict[tuple[str, str], int] = {}
        self._trunk_of = trunk_of
        #: host -> its edge switch (precomputed once; hosts never move)
        edge_of: dict[str, str] = {}
        self.edge_of = edge_of
        for l in spec.links:
            a, b = l.a, l.b
            if a in hosts:
                edge_of[a] = b
            elif b in hosts:
                edge_of[b] = a
            else:
                trunk = len(trunk_of)
                trunk_of[(a, b) if a < b else (b, a)] = trunk
                ia, ib = ids[a], ids[b]
                adj[ia].append((ib, trunk))
                adj[ib].append((ia, trunk))
        #: trunk id -> 1 while the trunk is dead
        self._dead = bytearray(len(trunk_of))
        #: trunks the health layer demoted out of the ECMP candidate set;
        #: advisory — see :meth:`_table` for the no-partition guarantee
        self._demoted: set[int] = set()
        self.version = 0
        #: dst edge id -> switch id -> next-hop id tuple (None: unreachable)
        self._tables: dict[int, list[Optional[tuple[int, ...]]]] = {}
        #: the row pool: one object per distinct next-hop tuple, shared by
        #: every table of this instance across route versions
        self._rows: dict[tuple[int, ...], tuple[int, ...]] = {}

    @staticmethod
    def _key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a < b else (b, a)

    def _trunk(self, a: str, b: str) -> int:
        trunk = self._trunk_of.get(self._key(a, b))
        if trunk is None:
            raise KeyError(f"no trunk link {a}~{b} in {self.spec.name}")
        return trunk

    def _bump(self) -> None:
        self.version += 1
        self._tables.clear()

    # -- liveness ----------------------------------------------------------

    def is_live(self, a: str, b: str) -> bool:
        trunk = self._trunk_of.get(self._key(a, b))
        return trunk is not None and not self._dead[trunk]

    def kill_link(self, a: str, b: str) -> bool:
        """Mark a trunk dead; returns True if it was live."""
        trunk = self._trunk(a, b)
        if self._dead[trunk]:
            return False
        self._dead[trunk] = 1
        self._bump()
        return True

    def revive_link(self, a: str, b: str) -> None:
        trunk = self._trunk(a, b)
        if self._dead[trunk]:
            self._dead[trunk] = 0
            self._bump()

    # -- health demotion ---------------------------------------------------

    def demote_link(self, a: str, b: str) -> bool:
        """Drop a trunk from the ECMP candidate set; returns True if it
        was not already demoted.  The link stays *live* — a demotion is a
        routing preference, not a kill — and the tables quietly ignore
        demotions for any destination they would disconnect."""
        trunk = self._trunk(a, b)
        if trunk in self._demoted:
            return False
        self._demoted.add(trunk)
        self._bump()
        return True

    def restore_link(self, a: str, b: str) -> bool:
        """Re-admit a demoted trunk; returns True if it was demoted."""
        trunk = self._trunk(a, b)
        if trunk not in self._demoted:
            return False
        self._demoted.discard(trunk)
        self._bump()
        return True

    # -- tables ------------------------------------------------------------

    def _bfs(self, dst: int, blocked: bytearray
             ) -> tuple[list[Optional[tuple[int, ...]]], int]:
        """Reverse BFS from switch ``dst`` over trunks not ``blocked``;
        returns the table and the number of switches it reaches.

        A switch's next hops are its neighbours one level nearer, and the
        pass that reaches it collects them: frontiers are walked in id
        order, so every hop tuple comes out sorted whatever the adjacency
        order.
        """
        adj = self._adj
        rows = self._rows
        table: list[Optional[tuple[int, ...]]] = [None] * len(adj)
        table[dst] = ()
        # hops collected so far for the switches this level reaches
        collecting: list[Optional[list[int]]] = [None] * len(adj)
        frontier = [dst]
        reached = 1
        while frontier:
            level = []
            for sw in frontier:
                for peer, trunk in adj[sw]:
                    if table[peer] is not None or blocked[trunk]:
                        continue
                    hops = collecting[peer]
                    if hops is None:
                        collecting[peer] = [sw]
                        level.append(peer)
                    else:
                        hops.append(sw)
            level.sort()
            reached += len(level)
            for sw in level:
                row = tuple(collecting[sw])
                table[sw] = rows.setdefault(row, row)
            frontier = level
        return table, reached

    def _table(self, dst: int) -> list[Optional[tuple[int, ...]]]:
        """The cached table toward switch id ``dst``.

        Demoted trunks are excluded from the BFS *unless* that exclusion
        would disconnect a switch the live graph still reaches: demotion
        must never partition, and next-hop rows from two different BFS
        metrics must never mix (mixing can loop), so the fallback is
        all-or-nothing per destination.
        """
        table = self._tables.get(dst)
        if table is not None:
            return table
        table, reached = self._bfs(dst, self._dead)
        if self._demoted:
            blocked = bytearray(self._dead)
            for trunk in self._demoted:
                blocked[trunk] = 1
            preferred, n = self._bfs(dst, blocked)
            if n == reached:
                table = preferred
        self._tables[dst] = table
        return table

    def table_for(self, dst_edge: str) -> dict[str, list[str]]:
        """``{switch: sorted equal-cost next hops toward dst_edge}``.

        Switches with no live path to ``dst_edge`` are absent from the
        table.  Computed by reverse BFS from the destination edge over
        live links only (unit link cost); see :meth:`_table` for demoted
        trunks.  A fresh name-keyed view of the cached id table.
        """
        names = self._names
        return {names[sw]: [names[hop] for hop in row]
                for sw, row in enumerate(self._table(self._ids[dst_edge]))
                if row is not None}

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
        ids = self._ids
        dst = ids[dst_edge]
        table = self._table(dst)
        here = ids[src_edge]
        if table[here] is None:
            return None
        names = self._names
        seed = self.seed
        walk = [src_edge]
        while here != dst:
            hops = table[here]
            here = hops[ecmp_pick(seed, flow, names[here], len(hops))]
            walk.append(names[here])
        return tuple(walk)

    def reachable(self, src_edge: str, dst_edge: str) -> bool:
        if src_edge == dst_edge:
            return True
        ids = self._ids
        return self._table(ids[dst_edge])[ids[src_edge]] is not None
