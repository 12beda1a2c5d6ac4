"""Exhaustive explorer of the offload lifecycle.

Breadth-first over a small deployment — manager (node 0, with a standby
that promotes under the same id), sources 1 and 2, destinations 3 and 4
— driving the real ``DUSTManager`` (the I/O shell around the
``OffloadLedger`` transitions), the real ``DUSTClient`` handlers and
both ends' reliable senders on a fabric the explorer owns. It starts
right after a round placed both sources' excess. Per state:

* ``deliver`` the oldest in-flight message; the faults are to deliver a
  younger one (``reorder``), ``drop`` or ``duplicate`` one, and
  ``crash`` the manager (the standby restores the last snapshot and
  opens a resync round; once per trace);
* ``tick``: time moves 5 s, every hosting client heartbeats and every
  retransmission timer fires (resend, or give up and run the hook) —
  only once the fabric is drained, so a timeout outlasts a delivery;
* ``load-falls``: source 2's base load drops and it reports a STAT.

At rest — nothing in flight or awaiting retransmission, and no hosting a
keepalive would still repair — the five ``audit_system`` checks must
hold (ledger ≡ client truth, no ghost hosting, ``CO_max``, load
conservation), and no transition may raise (``TRANSITIONS`` rejects an
illegal move). In every state the ledger's per-source index must agree
with a full scan of its active rows. States merge on a canonical fingerprint with message ids
renumbered by age; deliveries that change nothing tracked (a STAT that
cannot trigger a reclaim, a Resync to a source, a Receipt nobody awaits)
happen at once.

The whole scope — every action, at most two faults per trace — may
find only the kinds of violation :data:`KNOWN_HOLES` produce. Two smaller
scopes pin each known hole's shortest trace, and a strict xfail replays
each one.
"""

import dataclasses
import io
import pickle
import time
from collections import deque

import pytest

from repro.core import DUSTClient, DUSTManager, RetryPolicy, SnapshotStore, ThresholdPolicy
from repro.core.audit import audit_system
from repro.core.messages import Keepalive, Receipt, Resync, Stat
from repro.simulation.network_sim import Message
from tests.topologies import build_star

POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
RETRY = RetryPolicy(base_timeout_s=5.0, max_retries=1)
SOURCES, DESTINATIONS = (1, 2), (3, 4)
CLIENTS = SOURCES + DESTINATIONS
FAULTS = ("drop", "duplicate", "reorder", "crash")
#: ``(load-falls enabled, most faults per trace)``: scopes small enough
#: that each known hole is some violation's shortest trace. The full
#: scope, load-falls with two faults, only checks the kinds of violation.
SCOPES = ((False, 2), (True, 1))
TICK_S, HORIZON_S = RETRY.base_timeout_s, 150.0  # past the Reclaim cooldown

#: Every hole the explorer finds, with its shortest trace. Each one is
#: there at the commit before the ledger owned the lifecycle too.
KNOWN_HOLES = {
    "two_sided_reclaim": (
        "ROADMAP 2(a): one Reclaim object goes to both ends; the source never hears it",
        ("deliver OffloadRequest 0->3", "deliver OffloadRequest 0->4", "deliver OffloadAck 3->0",
         "deliver OffloadAck 4->0", "deliver Redirect 0->1", "deliver Redirect 0->2",
         "deliver Receipt 1->0", "deliver Receipt 2->0", "load-falls", "deliver Stat 2->0",
         "deliver Reclaim 0->4", "deliver Receipt 4->0"),
    ),
    "unwind_overtakes_redirect": (
        "ROADMAP 15: after a takeover the unwind Reclaim overtakes the old Redirect",
        ("deliver OffloadRequest 0->3", "deliver OffloadRequest 0->4", "deliver OffloadAck 3->0",
         "deliver OffloadAck 4->0", "deliver Redirect 0->1", "crash", "reorder Reclaim 0->2",
         "deliver Redirect 0->2", "deliver Reclaim 0->3", "deliver Reclaim 0->1",
         "deliver Reclaim 0->4", "deliver Resync 0->3", "deliver Resync 0->4",
         "deliver Receipt 2->0", "deliver Receipt 3->0", "deliver Receipt 1->0",
         "deliver Receipt 4->0"),
    ),
    "stale_report_adopted": (
        "ROADMAP 15: a resync report older than a Reclaim adopts the row back",
        ("deliver OffloadRequest 0->3", "deliver OffloadRequest 0->4", "deliver OffloadAck 3->0",
         "deliver OffloadAck 4->0", "deliver Redirect 0->1", "deliver Redirect 0->2",
         "deliver Receipt 1->0", "deliver Receipt 2->0", "crash", "deliver Resync 0->3",
         "load-falls", "deliver Resync 0->4", "deliver OffloadAck 3->0",
         "deliver Keepalive 3->0", "deliver Stat 2->0", "deliver OffloadAck 4->0",
         "deliver Keepalive 4->0", "deliver Receipt 0->3", "deliver Reclaim 0->4",
         "deliver Receipt 0->4", "deliver Redirect 0->2", "deliver Receipt 4->0",
         "deliver Receipt 2->0"),
    ),
}

#: Objects no action mutates (the fabric graph, the solvers): pickled by
#: reference, so a stored state costs only what can change.
_SHARED = {}


def _shared(key):
    return _SHARED[key]


class _Pickler(pickle.Pickler):
    def reducer_override(self, obj):
        return (_shared, (id(obj),)) if id(obj) in _SHARED else NotImplemented


def _dumps(world):
    buffer = io.BytesIO()
    _Pickler(buffer, pickle.HIGHEST_PROTOCOL).dump(world)
    return buffer.getvalue()


class Clock:
    """Engine stand-in: the explorer moves time and fires the timers."""

    now = 0.0

    def schedule_after(self, *args, **kwargs):
        return self

    schedule_periodic = schedule_after

    def cancel(self):
        pass


class Fabric:
    """Network stand-in: ``flight`` holds every undelivered message."""

    messages_dropped = 0

    def __init__(self):
        self.flight = []

    def register(self, *args):
        pass

    unregister = register

    def send(self, source, destination, payload):
        self.flight.append((source, destination, payload))

    def broadcast(self, source, payload):
        for node in CLIENTS:
            self.send(source, node, payload)
        return len(CLIENTS)


class World:
    def __init__(self):
        self.topology = build_star(len(CLIENTS))
        _SHARED.update((id(o), o) for o in (self.topology, POLICY, RETRY))
        self.clock, self.fabric, self.store = Clock(), Fabric(), SnapshotStore()
        self.manager = self.new_manager()
        self.clients = {
            node: DUSTClient(node, self.clock, self.fabric, 0, POLICY, retry_policy=RETRY,
                             base_capacity=90.0 if node in SOURCES else 40.0)
            for node in CLIENTS
        }
        self.faults, self.promoted, self.fallen, self.trace = 0, False, False, ()
        for client in self.clients.values():  # admitted: one STAT each
            client._dedup._clock = None  # no TTL, and a lambda would not pickle
            client._stat_confirmed = True
            client._send_stat()
        while self.fabric.flight:
            self.deliver(0)
        self.manager._persist()  # the optimization tick persists, then runs the round
        self.manager.run_optimization_round()
        self.manager.placement_history.clear()
        self.settle()

    def new_manager(self):
        manager = DUSTManager(0, self.topology, self.clock, self.fabric, POLICY,
                              retry_policy=RETRY, snapshot_store=self.store)
        manager.start()
        manager._dedup._clock = None
        _SHARED.update((id(o), o) for o in (manager.placement_engine, manager.replica_selector))
        return manager

    def endpoint(self, node):
        return self.manager if node == 0 else self.clients[node]

    def senders(self):
        return [self.endpoint(node)._reliable for node in (0, *CLIENTS)]

    def ghosts(self):
        """A client hosts for a source the ledger does not book on it (its
        keepalive will make the manager ask again)."""
        return any(
            source not in {row.source for row in self.manager.ledger.hosted_by(node)}
            for node, client in self.clients.items() for source in client.hosted
        )

    def at_rest(self):
        drained = not self.fabric.flight and not any(s.pending for s in self.senders())
        return drained and (not self.ghosts() or self.clock.now + TICK_S > HORIZON_S)

    # -- actions ----------------------------------------------------------------
    def actions(self, load_falls):
        for i in range(len(self.fabric.flight)):
            yield from (("reorder" if i else "deliver", i), ("drop", i), ("duplicate", i))
        waiting = any(s.pending for s in self.senders()) or self.ghosts()
        if not self.fabric.flight and waiting and self.clock.now + TICK_S <= HORIZON_S:
            yield ("tick",)
        if not self.promoted:
            yield ("crash",)
        if load_falls and not self.fallen:
            yield ("load-falls",)

    def describe(self, action):
        if len(action) == 1:
            return action[0]
        source, destination, payload = self.fabric.flight[action[1]]
        return f"{action[0]} {type(payload).__name__} {source}->{destination}"

    def apply(self, action):
        kind = action[0]
        if kind in ("deliver", "reorder"):
            self.deliver(action[1])
        elif kind == "drop":
            self.fabric.flight.pop(action[1])
        elif kind == "duplicate":
            self.fabric.flight.append(self.fabric.flight[action[1]])
        elif kind == "tick":
            self.clock.now += TICK_S
            for node, client in self.clients.items():  # DUSTClient's keepalive beat
                if client.hosted:
                    beat = Keepalive(node, tuple(sorted(client.hosted)), self.clock.now)
                    self.fabric.send(node, 0, beat)
            for sender in self.senders():
                for key in list(sender._outstanding):
                    sender._on_timeout(key)
        elif kind == "crash":
            self.manager.crash()
            self.manager = self.new_manager()
            if self.store.load() is not None:
                self.manager.restore_snapshot(self.store.load())
            self.manager.begin_resync()
            self.promoted = True
        else:  # load-falls
            self.clients[2].base_load = 40.0
            self.clients[2]._send_stat()
            self.fallen = True
        self.settle()

    def deliver(self, i):
        source, destination, payload = self.fabric.flight.pop(i)
        now = self.clock.now
        if self.endpoint(destination).alive:
            self.endpoint(destination)._receive(Message(source, destination, payload, now, now))

    def invisible(self, destination, payload):
        """Delivered at any time, it changes nothing tracked and sends
        nothing that does — so no order of it, and no fault on it, matters."""
        if isinstance(payload, Stat):
            return payload.node_id != 2 or not self.fallen  # cannot trigger a reclaim
        if isinstance(payload, Resync):
            return destination in SOURCES  # answered by a STAT and a Receipt
        if isinstance(payload, Receipt):
            owed = {r.redirect_id for r in self.manager.ledger.rows} if destination == 0 else ()
            awaited = self.endpoint(destination)._reliable._outstanding
            return payload.acked_msg_id not in awaited and payload.acked_msg_id not in owed
        return False

    def settle(self):
        """Deliver the invisible messages, then forget dedup entries no
        delivery can hit again."""
        flight = self.fabric.flight
        while any(self.invisible(d, p) for _, d, p in flight):
            self.deliver(next(i for i, (_, d, p) in enumerate(flight) if self.invisible(d, p)))
        live = self.live_ids()
        for e in self.endpoints():
            for key in [key for key in e._dedup._seen if key[1] not in live]:
                del e._dedup._seen[key]

    # -- canonical state --------------------------------------------------------
    def endpoints(self):
        return [self.endpoint(node) for node in (0, *CLIENTS)]

    def durable(self):
        snapshot = self.store.load()
        return snapshot.ledger_rows if snapshot is not None else ()

    def live_ids(self):
        """Ids that still matter: in flight, awaiting retransmission, owed
        by a row, or a cached reply a re-delivery would replay."""
        live = {p.msg_id for _, _, p in self.fabric.flight}
        for sender in self.senders():
            live.update(sender._outstanding)
        rows = (*self.manager.ledger.rows, *self.durable())
        live.update(r.redirect_id for r in rows if r.redirect_id is not None)
        for e in self.endpoints():
            live.update(r.msg_id for (_, m), (r, _) in e._dedup._seen.items() if m in live and r)
        return live

    def fingerprint(self):
        rank = {mid: k for k, mid in enumerate(sorted(self.live_ids()))}

        def canon(value):
            if value is None:
                return None
            fields = declared_fields(value)
            for key in ("msg_id", "request_id", "acked_msg_id", "redirect_id"):
                if key in fields:
                    fields[key] = rank.get(fields[key], -1)
            return (type(value).__name__, *fields.values())

        def endpoint(e):
            seen = (
                (s, rank[m], canon(r)) for (s, m), (r, _) in e._dedup._seen.items() if m in rank
            )
            out = ((rank[k], o.attempt, o.destination) for k, o in e._reliable._outstanding.items())
            return tuple(sorted(seen)), tuple(sorted(out))

        channels = {}  # channels are independent: only the order within one counts
        for source, destination, payload in self.fabric.flight:
            channel = (source, destination)
            channels[channel] = channels.get(channel, ()) + (canon(payload),)
        return (
            self.promoted, self.fallen, self.clock.now,
            self.manager._resync_until > self.clock.now,
            tuple(self.manager.nmdb.record(n).last_stat_time for n in CLIENTS),
            tuple(map(canon, self.manager.ledger.rows)), tuple(map(canon, self.durable())),
            endpoint(self.manager),
            tuple(
                (c.base_load, tuple(sorted(c.offloaded_to.items())),
                 tuple(sorted((s, h.amount_pct) for s, h in c.hosted.items())), endpoint(c))
                for c in self.clients.values()
            ),
            tuple(sorted(channels.items())),
        )


def declared_fields(value):
    """A message's or ledger row's declared fields by name. ``vars()``
    would not do: a message keeps its fields in its tuple, not in a
    ``__dict__``, so ``vars()`` raises, or reads ``{}`` on a record that
    has an empty one — distinct states would merge and the search would
    prune silently."""
    if isinstance(value, tuple):  # a message record
        names = value._fields
    else:  # a ledger row
        names = [f.name for f in dataclasses.fields(value)]
    return {name: getattr(value, name) for name in names}


def explore(load_falls, max_faults):
    """Breadth-first over one scope: ``(states, {kind: (trace, problem)})``
    with the shortest trace of each kind of problem."""
    start = World()
    # A state met again with fewer faults spent can reach more: keep the least.
    seen, queue, found = {start.fingerprint(): 0}, deque([_dumps(start)]), {}
    while queue:
        blob = queue.popleft()
        world = pickle.loads(blob)
        for problem in _index_problems(world.manager.ledger):
            found.setdefault("ledger index", (world.trace, problem))
        if world.at_rest():
            for problem in audit_system(world.manager, world.clients).violations:
                found.setdefault(_kind(problem), (world.trace, problem))
        for action in world.actions(load_falls):
            cost = action[0] in FAULTS
            if world.faults + cost > max_faults:
                continue
            nxt = pickle.loads(blob)
            nxt.faults += cost
            nxt.trace += (nxt.describe(action),)
            try:
                nxt.apply(action)
            except Exception as exc:  # an illegal transition is a finding too
                found.setdefault(type(exc).__name__, (nxt.trace, repr(exc)))
                continue
            key = nxt.fingerprint()
            if seen.get(key, max_faults + 1) > nxt.faults:
                seen[key] = nxt.faults
                queue.append(_dumps(nxt))
    return len(seen), found


def _index_problems(ledger):
    """The ledger's per-source index of active rows against a full scan:
    ``offloaded_amount`` equal bit for bit, and no entry for a source
    without an active row."""
    problems = []
    for node in CLIENTS:
        scan = float(sum(r.amount_pct for r in ledger.active if r.source == node))
        if ledger.offloaded_amount(node) != scan:
            problems.append(f"offloaded_amount({node}) = {ledger.offloaded_amount(node)!r}, "
                            f"scan = {scan!r}")
    if set(ledger._offloaded) != set(ledger.sources):
        problems.append(f"indexed sources {sorted(ledger._offloaded)} != {ledger.sources}")
    return problems


def _kind(problem):
    """An audit violation with its numbers cut off."""
    return "".join(ch for ch in problem if not ch.isdigit())


def replay(trace):
    world = World()
    for step in trace:
        world.apply(next(a for a in world.actions(True) if world.describe(a) == step))
    return world


def test_two_faults_anywhere_find_only_the_known_kinds_of_violation():
    began = time.perf_counter()
    states, found = explore(load_falls=True, max_faults=2)
    elapsed = time.perf_counter() - began
    print(f"offload explorer: {states} states in {elapsed:.1f} s")
    for trace, problem in found.values():
        print(" ", problem, "<-", "; ".join(trace))
    known = set()
    for _, trace in KNOWN_HOLES.values():
        world = replay(trace)
        known.update(map(_kind, audit_system(world.manager, world.clients).violations))
    assert set(found) <= known
    assert elapsed < 60.0


def test_known_holes_are_the_shortest_traces_of_the_small_scopes():
    traces = {trace for scope in SCOPES for trace, _ in explore(*scope)[1].values()}
    assert traces == {trace for _, trace in KNOWN_HOLES.values()}


def test_fingerprint_tells_messages_one_field_apart():
    worlds = [pickle.loads(_dumps(World())) for _ in range(2)]
    for world, capacity in zip(worlds, (40.0, 41.0)):
        world.fabric.send(2, 0, Stat(2, capacity, 10.0, 10, world.clock.now))
    a, b = (world.fingerprint() for world in worlds)
    assert a != b
    assert a == pickle.loads(_dumps(worlds[0])).fingerprint()


def test_fault_free_round_ends_audited_and_confirmed():
    states, found = explore(load_falls=False, max_faults=0)
    assert found == {} and states > 5
    world = replay(("deliver OffloadRequest 0->3", "deliver OffloadRequest 0->4",
                    "deliver OffloadAck 3->0", "deliver OffloadAck 4->0",
                    "deliver Redirect 0->1", "deliver Redirect 0->2",
                    "deliver Receipt 1->0", "deliver Receipt 2->0"))
    assert world.at_rest()
    assert [row.state.value for row in world.manager.ledger.rows] == ["CONFIRMED"] * 2


@pytest.mark.parametrize("hole", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"{what}: " + "; ".join(trace)))
    for name, (what, trace) in KNOWN_HOLES.items()
])
def test_known_hole_trace_ends_audited(hole):
    world = replay(KNOWN_HOLES[hole][1])
    assert world.at_rest()
    assert audit_system(world.manager, world.clients).clean
