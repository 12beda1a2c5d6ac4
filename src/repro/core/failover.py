"""Manager failover: snapshots, stable storage, and a standby manager.

The DUST-Manager is the single coordination point of a deployment, so
its crash would otherwise orphan every active offload. The failover
design here is deliberately simple (one primary, one standby, shared
stable storage) but exercises the full recovery path the paper's
control plane needs:

* the primary persists a :class:`ManagerSnapshot` (NMDB records +
  offload ledger + keepalive watch set) into a :class:`SnapshotStore`
  and heartbeats the standby. Ledger rows — whose state marks a
  source still owing its Redirect Receipt — are durable before every
  Redirect and after every ledger change; NMDB and keepalive state are durable as of the last
  optimization tick, and the resync round refreshes the rest;
* the :class:`StandbyManager` watches those heartbeats. After
  ``takeover_silence_s`` of silence it spins up a fresh
  :class:`~repro.core.manager.DUSTManager` **under the primary's node
  id** (VIP-style takeover — clients keep sending to the address they
  know), restores the latest snapshot, and opens a resync window;
* during resync, clients answer the broadcast Resync with a fresh STAT
  plus one Offload-ACK per workload they actually host, letting the new
  manager rebuild any ledger rows the snapshot missed and converge back
  to the pre-crash assignments.

Split-brain guard: if the primary is in fact still registered on the
network (a false alarm — e.g. heartbeats were dropped, not the
manager), the VIP registration fails and the standby backs off instead
of double-driving the control plane.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core.messages import ControlMessage, ManagerHeartbeat
from repro.core.nmdb import NodeRecord
from repro.core.offload import ActiveOffload
from repro.core.thresholds import ThresholdPolicy
from repro.errors import SimulationError
from repro.obs import get_registry, trace_event
from repro.simulation.engine import SimulationEngine
from repro.simulation.network_sim import Message, MessageNetwork
from repro.topology.graph import Topology


@dataclass(frozen=True)
class ManagerSnapshot:
    """One persisted manager state, written on every ledger change
    (before any Redirect) and at every optimization tick."""

    version: int
    timestamp: float
    records: Dict[int, NodeRecord]
    ledger_rows: Tuple[ActiveOffload, ...]
    keepalive_watch: Dict[int, float]


#: Magic + format version framing the on-disk snapshot record.
_SNAPSHOT_MAGIC = b"DUSTSNAP"
_SNAPSHOT_HEADER = struct.Struct("<8sIQ")  # magic, crc32, payload length


class SnapshotStore:
    """Stable storage for manager snapshots (latest-wins).

    In-simulation stand-in for a replicated store: survives the
    manager's crash because it lives outside the manager object. With
    ``path`` set it additionally persists each accepted snapshot to
    disk, surviving a full *process* crash — the standby's takeover
    path reloads it through :meth:`load` after a restart.

    The on-disk write is crash-safe: the framed record (magic + CRC32 +
    length + pickle payload) is written to a sibling temp file, fsynced
    and atomically renamed over the target, so a crash mid-write leaves
    the previous good snapshot intact. A torn or corrupted file (bad
    magic, short read, CRC mismatch) is detected on load and treated as
    absent rather than poisoning the takeover (counted in
    ``failover.snapshot_load_failures``).
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._latest: Optional[ManagerSnapshot] = None
        self.path = Path(path) if path is not None else None
        self.saves = 0
        self.load_failures = 0
        self._disk_checked = False

    def save(self, snapshot: ManagerSnapshot) -> None:
        if self._latest is not None and snapshot.version < self._latest.version:
            return  # never let an out-of-date writer regress the store
        self._latest = snapshot
        self.saves += 1
        get_registry().counter("failover.snapshot_saves").inc()
        if self.path is not None:
            self.persist(snapshot)

    def persist(self, snapshot: ManagerSnapshot) -> None:
        """Write ``snapshot`` to :attr:`path` via temp file + fsync +
        atomic rename (no-op without a path)."""
        if self.path is None:
            return
        payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        header = _SNAPSHOT_HEADER.pack(
            _SNAPSHOT_MAGIC, zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
        )
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def _load_from_disk(self) -> Optional[ManagerSnapshot]:
        if self.path is None or not self.path.exists():
            return None
        try:
            raw = self.path.read_bytes()
            magic, crc, length = _SNAPSHOT_HEADER.unpack_from(raw)
            if magic != _SNAPSHOT_MAGIC:
                raise ValueError("bad snapshot magic")
            payload = raw[_SNAPSHOT_HEADER.size : _SNAPSHOT_HEADER.size + length]
            if len(payload) != length or (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                raise ValueError("torn snapshot write (length/CRC mismatch)")
            snapshot = pickle.loads(payload)
            if not isinstance(snapshot, ManagerSnapshot):
                raise ValueError(f"snapshot file holds {type(snapshot).__name__}")
            return snapshot
        except Exception:
            self.load_failures += 1
            get_registry().counter("failover.snapshot_load_failures").inc()
            return None

    def load(self) -> Optional[ManagerSnapshot]:
        if self._latest is None and not self._disk_checked:
            self._disk_checked = True  # one verdict per file, not per call
            self._latest = self._load_from_disk()
        return self._latest

    @property
    def version(self) -> int:
        latest = self.load()
        return -1 if latest is None else latest.version


class StandbyManager:
    """Hot standby: watches primary heartbeats, takes over on silence.

    Parameters
    ----------
    node_id : int
        Node the standby runs on (must differ from ``primary_node``).
    topology, engine, network, policy :
        Same collaborators a :class:`~repro.core.manager.DUSTManager`
        takes; the promoted manager is built from them.
    snapshot_store : SnapshotStore
        Stable store the primary persists into; the promoted manager
        restores the latest snapshot from it.
    primary_node : int
        Node id (and network address) of the watched primary.
    takeover_silence_s : float, optional
        Heartbeat silence that triggers a takeover attempt.
    check_period_s : float, optional
        Watchdog tick period.
    manager_kwargs : dict, optional
        Extra ``DUSTManager`` constructor options for the promoted
        instance (retry policy, periods, …), mirroring the primary.

    Attributes
    ----------
    heartbeats_seen : int
        Primary heartbeats observed (metric:
        ``failover.heartbeats_seen``).
    takeover_aborts : int
        Takeovers aborted by the split-brain guard (metric:
        ``failover.takeover_aborts``).
    took_over_at : float or None
        Simulation time of the successful promotion, if any
        (counted in ``failover.takeovers``).
    """

    def __init__(
        self,
        node_id: int,
        topology: Topology,
        engine: SimulationEngine,
        network: MessageNetwork,
        policy: ThresholdPolicy,
        snapshot_store: SnapshotStore,
        primary_node: int,
        takeover_silence_s: float = 30.0,
        check_period_s: float = 5.0,
        manager_kwargs: Optional[dict] = None,
    ) -> None:
        if node_id == primary_node:
            raise SimulationError("standby must run on a different node than the primary")
        self.node_id = node_id
        self.topology = topology
        self.engine = engine
        self.network = network
        self.policy = policy
        self.snapshot_store = snapshot_store
        self.primary_node = primary_node
        self.takeover_silence_s = takeover_silence_s
        self.check_period_s = check_period_s
        #: Extra DUSTManager ctor options for the promoted instance
        #: (retry_policy, periods, ...), mirroring the primary's config.
        self.manager_kwargs = dict(manager_kwargs or {})
        self.manager = None  # the promoted DUSTManager after takeover
        self.took_over_at: Optional[float] = None
        self.heartbeats_seen = 0
        self.takeover_aborts = 0
        self._last_heartbeat = float("-inf")
        self._started = False

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise SimulationError("standby already started")
        self._started = True
        self._last_heartbeat = self.engine.now  # grace period from start
        self.network.register(self.node_id, self._receive)
        self.engine.schedule_periodic(
            self.check_period_s,
            lambda engine: self.check(),
            label="standby-watchdog",
            condition=lambda: self.manager is None,
        )

    @property
    def promoted(self) -> bool:
        return self.manager is not None

    def _receive(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, ManagerHeartbeat):
            self.heartbeats_seen += 1
            get_registry().counter("failover.heartbeats_seen").inc()
            self._last_heartbeat = max(self._last_heartbeat, self.engine.now)
        elif not isinstance(payload, ControlMessage):
            raise SimulationError("standby received non-DUST payload")
        # Any other control message is tolerated silently: a lossy
        # fabric can deliver duplicates long after a failed takeover.

    # -- watchdog ---------------------------------------------------------------
    def check(self) -> bool:
        """One watchdog tick; returns True if a takeover happened."""
        if self.manager is not None:
            return False
        if self.engine.now - self._last_heartbeat <= self.takeover_silence_s:
            return False
        return self.takeover()

    def takeover(self) -> bool:
        """Promote: register under the primary's id, restore, resync."""
        from repro.core.manager import DUSTManager

        manager = DUSTManager(
            node_id=self.primary_node,
            topology=self.topology,
            engine=self.engine,
            network=self.network,
            policy=self.policy,
            snapshot_store=self.snapshot_store,
            **self.manager_kwargs,
        )
        try:
            manager.start()
        except SimulationError:
            # Primary still holds the VIP — heartbeat loss, not a crash.
            self.takeover_aborts += 1
            get_registry().counter("failover.takeover_aborts").inc()
            self._last_heartbeat = self.engine.now  # back off a full window
            return False
        snapshot = self.snapshot_store.load()
        if snapshot is not None:
            manager.restore_snapshot(snapshot)
        manager.begin_resync()
        self.manager = manager
        self.took_over_at = self.engine.now
        get_registry().counter("failover.takeovers").inc()
        trace_event(
            "failover.takeover", standby=self.node_id, primary=self.primary_node
        )
        return True
