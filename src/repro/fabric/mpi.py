"""Scalable rank launcher: `repro.mpi.collectives` over a FabricNetwork.

A :class:`FabricRank` is a :class:`~repro.mpi.comm.Rank` that replaces
only the three point-to-point primitives (``isend``/``irecv``/``wait``);
the blocking calls and every collective are ``Rank``'s own, so barrier,
bcast, allreduce, alltoall and reduce_scatter run **unmodified** over a
1024-host fabric against the ``core.execute``/``space.alloc`` stand-ins
below.

Memory scaling (ROADMAP item 1's "no per-host object blowup"):

* no :class:`~repro.cluster.host.Host` graphs — per-chunk costs come from
  the network's shared :class:`~repro.fabric.cost.CostTable`;
* rank buffers are :class:`_PhantomRegion`\\ s: fabric buffers hold no
  bytes; reductions on them are charged, not computed (the cost model is
  content-blind — value checking belongs to the full-model testbeds);
* CPU accounting is aggregated per category in one dict, not per core.

Failure propagation: a message that loses its last path (or is dropped by
an armed fault) fails both sides' requests with the network's typed error
(:class:`~repro.core.errors.FabricPartitioned` /
:class:`~repro.core.errors.DeliveryFailed`); the error is thrown into the
waiting rank process and surfaces out of :meth:`FabricWorld.run_spmd`.

Crash-stop rank death (DESIGN.md §17): :meth:`FabricWorld.kill_rank`
interrupts the victim's process (the supervisor wrapper swallows exactly
that interrupt, so the rank vanishes instead of failing the SPMD join)
and marks its host dead in the network so in-flight chunks drain.  A
grace window (:data:`RANK_DEATH_GRACE`, modelling detection latency) later
the world *declares* the death: the current collective epoch is poisoned,
every pending posted request fails with the typed
:class:`~repro.core.errors.RankDead` all at once, and any further
send/receive in the poisoned epoch fails immediately — survivors always
unwind, never livelock.  Recovery (:meth:`FabricWorld.join_recovery`)
advances the epoch; stale epoch-N traffic still in flight is dropped by
timestamp at completion, keeping :meth:`finish` sanitizer-clean.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, Optional

from repro.core.errors import RankDead, TransferError
from repro.fabric.network import FabricNetwork, _Message
from repro.fabric.spec import TopologySpec
from repro.mpi.comm import Rank
from repro.simkernel.errors import Interrupted
from repro.simkernel.event import AllOf, Event
from repro.units import us

#: interrupt cause marking a simulated crash-stop (the supervisor wrapper
#: in :meth:`FabricWorld.run_spmd` swallows exactly this cause)
CRASH_STOP = "fabric-crash-stop"

#: grace between a rank crash-stop and the RankDead declaration wave
RANK_DEATH_GRACE = us(30)


class _PhantomRegion:
    """A buffer of ``nbytes`` that holds no bytes (cost-model-only payloads):
    stores, copies and reductions into it keep nothing."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int):
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.nbytes

    def write(self, offset: int, payload) -> None:
        n = len(payload)
        if offset < 0 or offset + n > self.nbytes:
            raise ValueError("write outside region")

    def copy_from(self, offset: int, src, src_off: int, length: int) -> None:
        pass

    accumulate = copy_from

    def fill_pattern(self, seed: int = 0) -> None:
        pass


class _FabricSpace:
    """The ``rank.space`` protocol: an allocator of phantom regions."""

    __slots__ = ()

    def alloc(self, length: int, align: int = 4096,
              fill: Optional[int] = None) -> _PhantomRegion:
        if length < 0:
            raise ValueError("negative allocation")
        return _PhantomRegion(max(length, 1))


class _FabricCore:
    """The ``rank.core`` protocol: timed work, aggregate accounting."""

    __slots__ = ("world",)

    def __init__(self, world: "FabricWorld"):
        self.world = world

    def execute(self, duration: int, category: str) -> Generator:
        if duration > 0:
            yield int(duration)
        cpu = self.world.cpu
        cpu[category] = cpu.get(category, 0) + duration
        return self.world.sim.now

    busy = execute


class _FabricReq:
    """One outstanding fabric send or receive."""

    __slots__ = ("done", "error", "event")

    def __init__(self):
        self.done = False
        self.error: Optional[Exception] = None
        self.event: Optional[Event] = None


class FabricRank(Rank):
    """One rank of a fabric world: a :class:`~repro.mpi.comm.Rank` whose
    ``isend``/``irecv``/``wait`` go through the :class:`FabricNetwork`."""

    __slots__ = ("world", "host")

    def __init__(self, world: "FabricWorld", rank: int, host: str):
        self.comm = self.world = world
        self.rank = rank
        self.host = host
        self.core = world.core
        self.space = world.space

    # -- point-to-point ----------------------------------------------------

    def isend(self, dest: int, region, offset: int = 0,
              length: Optional[int] = None, tag: int = 0) -> Generator:
        world = self.world
        req = _FabricReq()
        if world._send_refused(req, dest):
            return req
        n = (len(region) - offset) if length is None else length
        yield from self.core.execute(world.cost.send_cpu(n), "fabric_send")
        # The gate again: a crash-stop or its declaration wave may have
        # landed while the send CPU was being charged.
        if world._send_refused(req, dest):
            return req
        msg = world.net.send(self.host, world.hosts[dest], tag, n)
        msg.user = req
        if msg.failed:
            world._complete(req, msg.error)
        elif msg.tx_remaining == 0:
            req.done = True
        else:
            msg.on_tx = lambda: world._complete(req)
        return req

    def irecv(self, source: int, region, offset: int = 0,
              length: Optional[int] = None, tag: int = 0) -> Generator:
        world = self.world
        req = _FabricReq()
        if world._poisoned or source in world.dead:
            world._complete(req, world._rank_dead_error("receive refused"))
            return req
        key = (self.rank, source, tag)
        q = world._arrived.get(key)
        if q:
            msg = q.popleft()
            if not q:
                del world._arrived[key]
            world._complete(req, msg.error)
        else:
            world._posted.setdefault(key, deque()).append(req)
        return req
        yield  # pragma: no cover - makes this a generator like Rank.irecv

    def wait(self, req: _FabricReq) -> Generator:
        if not req.done:
            if req.event is None:
                req.event = self.world.sim.event("fabric_req")
            yield req.event
        if req.error is not None:
            raise req.error
        return req


class FabricWorld:
    """All ranks of one fabric plus the shared scaling machinery."""

    def __init__(self, spec: TopologySpec, backend: str):
        self.net = FabricNetwork(spec, backend)
        self.sim = self.net.sim
        self.cost = self.net.cost
        self.spec = spec
        self.hosts: list[str] = list(spec.hosts)
        self.host_rank = {h: i for i, h in enumerate(self.hosts)}
        self.core = _FabricCore(self)
        self.space = _FabricSpace()
        #: aggregate simulated CPU ticks by category (all ranks)
        self.cpu: dict[str, int] = {}
        #: (dst_rank, src_rank, tag) -> deque of posted _FabricReq
        self._posted: dict[tuple, deque] = {}
        #: (dst_rank, src_rank, tag) -> deque of arrived _Message
        self._arrived: dict[tuple, deque] = {}
        self.ranks = [FabricRank(self, i, h) for i, h in enumerate(self.hosts)]
        self.net.on_complete = self._on_msg_complete
        # -- crash-stop state (DESIGN.md §17) --
        #: declared-dead rank ids
        self.dead: set[int] = set()
        #: collective epoch; advanced by the recovery barrier after a death
        self.epoch = 0
        #: stale epoch-N messages dropped after a declaration
        self.stale_drained = 0
        #: declaration waves run, and survivor requests they failed
        self.deaths_declared = 0
        self.reqs_failed = 0
        self._poisoned = False
        self._declare_time: Optional[int] = None
        self._kill_time: Optional[int] = None
        self._last_dead: Optional[tuple[int, str, int]] = None
        self._procs: dict[int, object] = {}
        #: a typed TransferError escaped run_spmd: some rank bodies unwound
        #: before taking what was sent to them
        self._aborted = False

    @property
    def size(self) -> int:
        return len(self.ranks)

    # -- completion plumbing ----------------------------------------------

    def _complete(self, req: _FabricReq, error: Optional[Exception] = None) -> None:
        if req.done:
            return
        req.done = True
        req.error = error
        ev = req.event
        if ev is not None and not ev.triggered:
            if error is not None:
                ev.fail(error)
            else:
                ev.succeed()

    def _on_msg_complete(self, msg: _Message) -> None:
        if msg.error is not None and msg.user is not None:
            self._complete(msg.user, msg.error)  # the sender's request
        key = (self.host_rank[msg.dst], self.host_rank[msg.src], msg.tag)
        q = self._posted.get(key)
        if q:
            req = q.popleft()
            if not q:
                del self._posted[key]
            self._complete(req, msg.error)
            return
        if (self._declare_time is not None
                and msg.t_start <= self._declare_time):
            # Epoch-stale: started before the latest death declaration, so
            # its receive (if any) was failed by the declaration wave.
            # Poisoned sends never enter the network, so this timestamp
            # test is exact — epoch N+1 traffic always starts later.
            self.stale_drained += 1
            return
        self._arrived.setdefault(key, deque()).append(msg)

    # -- crash-stop rank death ---------------------------------------------

    def _rank_dead_error(self, detail: str = "") -> RankDead:
        rank, host, at = (self._last_dead if self._last_dead is not None
                          else (-1, "", self.sim.now))
        return RankDead(rank, host=host, at=at, detail=detail)

    def _send_refused(self, req: _FabricReq, dest: int) -> bool:
        """Fail ``req`` locally if the epoch is poisoned or ``dest`` dead.

        A refused send never enters the network, so every epoch-N message
        has t_start <= the declaration time, which is what makes the
        stale-drop rule in :meth:`_on_msg_complete` airtight.
        """
        if self._poisoned or dest in self.dead:
            self._complete(req, self._rank_dead_error("send refused"))
            return True
        return False

    def survivors(self) -> list[int]:
        """Sorted rank ids not declared dead."""
        return [i for i in range(self.size) if i not in self.dead]

    def kill_rank(self, rank: int, at: Optional[int] = None) -> None:
        """Crash-stop a rank, now or at absolute time ``at``.

        The victim's process is interrupted (it vanishes without failing
        the SPMD join), its host is marked dead in the network so
        in-flight chunks drain with :class:`RankDead`, and the declaration
        wave is scheduled :data:`RANK_DEATH_GRACE` later.
        """
        if not 0 <= rank < self.size:
            raise ValueError(f"no rank {rank} in a {self.size}-rank world")
        if at is not None and at > self.sim.now:
            self.sim.call_at(at, self._kill_rank_now, rank)
        else:
            self._kill_rank_now(rank)

    def _kill_rank_now(self, rank: int) -> None:
        if rank in self.dead:
            return
        r = self.ranks[rank]
        self.dead.add(rank)
        self._kill_time = self.sim.now
        self._last_dead = (rank, r.host, self.sim.now)
        self.net.mark_host_dead(r.host, rank)
        proc = self._procs.get(rank)
        if proc is not None and proc.is_alive:
            proc.interrupt(CRASH_STOP)
        self.sim.call_at(self.sim.now + RANK_DEATH_GRACE,
                         self._declare_rank_dead, rank, r.host)

    def _declare_rank_dead(self, rank: int, host: str) -> None:
        """The declaration wave: poison the epoch, fail everything pending.

        Every posted receive of every surviving rank fails with
        :class:`RankDead` — all at once, in sorted key order — so each
        blocked survivor unwinds deterministically.  The dead rank's own
        receives are dropped without touching their events (its process is
        gone; resuming it would be a kernel error).
        """
        self.deaths_declared += 1
        at = self._kill_time if self._kill_time is not None else self.sim.now
        self._poisoned = True
        self._declare_time = self.sim.now
        for key in sorted(self._posted):
            for req in self._posted[key]:
                if key[0] in self.dead:
                    req.done = True
                    req.error = self._rank_dead_error("owner crashed")
                    self.stale_drained += 1
                else:
                    self._complete(req, RankDead(
                        rank, host=host, at=at,
                        detail="pending receive at declaration"))
                    self.reqs_failed += 1
        self._posted.clear()
        # Receive-side traffic that already arrived dies with the epoch.
        for key in sorted(self._arrived):
            self.stale_drained += len(self._arrived[key])
        self._arrived.clear()

    def liveness_snapshot(self) -> dict:
        """JSON-stable crash-stop summary for campaign/soak reports."""
        return {
            "deaths_declared": self.deaths_declared,
            "reqs_failed": self.reqs_failed,
            "stale_drained": self.stale_drained,
            "dead_ranks": sorted(self.dead),
            "epoch": self.epoch,
        }

    def join_recovery(self, rank: FabricRank) -> Generator:
        """Per-rank recovery barrier after a :class:`RankDead`.

        Each survivor sleeps past the declaration wave plus one grace
        window, then the first waker lifts the poison and advances the
        epoch (idempotent).  Per-rank ordering is all the epoch-scoped
        tags need — survivors may enter the new epoch at different times.
        """
        grace = RANK_DEATH_GRACE if self.dead else 0
        kill = self._kill_time if self._kill_time is not None else self.sim.now
        target = kill + 2 * grace + 1
        while self.sim.now < target:
            yield int(target - self.sim.now)
        if self._poisoned:
            self._poisoned = False
            self.epoch += 1
        return None

    # -- running -----------------------------------------------------------

    def _supervised(self, body: Callable[[FabricRank], Generator],
                    rank: FabricRank) -> Generator:
        """Run ``body(rank)``, swallowing exactly the crash-stop interrupt
        (a killed rank vanishes; any other interrupt is somebody's bug)."""
        try:
            yield from body(rank)
        except Interrupted as exc:
            if exc.cause is not CRASH_STOP:
                raise
        return None

    def run_spmd(self, body: Callable[[FabricRank], Generator],
                 max_events: Optional[int] = None) -> list:
        """Run ``body(rank)`` on every rank; block until all complete."""
        procs = []
        for r in self.ranks:
            if r.rank in self.dead:
                continue
            proc = self.sim.process(self._supervised(body, r),
                                    name=f"frank{r.rank}")
            self._procs[r.rank] = proc
            procs.append(proc)
        all_done = AllOf(self.sim, procs)
        try:
            return self.sim.run_until(all_done, max_events=max_events)
        except TransferError:
            self._aborted = True
            raise

    def finish(self) -> None:
        """Drain the event queues and run the teardown sanitizers.

        After a typed abort, arrivals left for ranks whose bodies already
        raised are stale, as after a death declaration; a run that
        completed must leave no message unreceived.
        """
        self.sim.run()
        self.sim.finish()
        if self._aborted:
            for key in sorted(self._arrived):
                self.stale_drained += len(self._arrived[key])
            self._arrived.clear()
        leftover = sorted(k for k, q in self._arrived.items() if q)
        if leftover:
            raise AssertionError(
                f"fabric teardown: unconsumed messages for {leftover[:8]}")


def launch_fabric_world(spec: TopologySpec,
                        backend: str = "memcpy") -> FabricWorld:
    """Build a world over ``spec``; one rank per host, lazily-built ports."""
    return FabricWorld(spec, backend)
