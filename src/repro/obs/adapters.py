"""Bridges between legacy per-object counters and the registry.

The hot layers keep their own cheap counter objects —
``ManagerCounters`` on the DUST-Manager, plain ``int`` attributes on
clients and simulated networks. Those stay: a plain attribute add in a
pivot loop beats a locked registry update. This module folds their
*cumulative* totals into the registry at sync points (end of an
optimization round, end of a chaos run) without double counting, via
per-object delta mirroring:

* :func:`mirror_counters` keeps, on each source object itself, the last
  total it saw for each attribute and increments the registry counter
  by the growth since then. Mirroring the same object twice is a no-op;
  a *new* object (the standby's promoted manager, the next chaos run's
  network) starts from zero and contributes only its own activity. The
  baseline lives and dies with its source, so there is no process-wide
  table to prune.

To stay import-cycle-free this module never imports the mirrored
layers; the attribute lists below are plain data, validated against the
real dataclasses by ``tests/obs/test_adapters.py``.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping

from repro.obs.registry import get_registry

__all__ = [
    "mirror_counters",
    "MANAGER_COUNTERS_MIRROR",
    "CLIENT_MIRROR",
    "NETWORK_MIRROR",
    "FAULTY_NETWORK_MIRROR",
]

#: ManagerCounters field -> catalog name. The four transport/network
#: mirror fields (``retransmissions``, ``sends_gave_up``,
#: ``network_messages_dropped``, ``network_duplicates_delivered``) are
#: deliberately absent: their ground truth already reaches the registry
#: from ReliableSender and the network mirrors, and mirroring the copy
#: would double-count.
MANAGER_COUNTERS_MIRROR: Dict[str, str] = {
    field: f"manager.{field}"
    for field in (
        "acks_sent",
        "stats_received",
        "optimization_rounds",
        "infeasible_rounds",
        "heuristic_fallbacks",
        "offload_requests_sent",
        "offloads_established",
        "offloads_rejected",
        "keepalives_received",
        "destinations_failed",
        "replicas_installed",
        "workloads_returned",
        "reclaims_issued",
        "duplicates_ignored",
        "stale_stats_dropped",
        "stats_rejected",
        "stale_acks_ignored",
        "acks_reconfirmed",
        "probes_sent",
        "orphans_reclaimed",
        "destinations_quarantined",
        "sources_abandoned",
        "resync_rounds",
        "resync_recovered",
        "redirects_unwound",
        "snapshots_persisted",
        "rounds_frozen",
        "placements_reset",
    )
}

#: DUSTClient attribute -> catalog name (retransmissions excluded for
#: the same double-count reason: the client's ReliableSender reports
#: into ``transport.retransmissions`` directly).
CLIENT_MIRROR: Dict[str, str] = {
    "stats_sent": "client.stats_sent",
    "keepalives_sent": "client.keepalives_sent",
    "requests_rejected": "client.requests_rejected",
    "duplicates_ignored": "client.duplicates_ignored",
    "announce_give_ups": "client.announce_give_ups",
}

#: MessageNetwork attribute -> catalog name.
NETWORK_MIRROR: Dict[str, str] = {
    "messages_sent": "network.messages_sent",
    "messages_delivered": "network.messages_delivered",
    "messages_dropped": "network.messages_dropped",
}

#: FaultyNetwork extras (on top of NETWORK_MIRROR).
FAULTY_NETWORK_MIRROR: Dict[str, str] = dict(
    NETWORK_MIRROR,
    faults_dropped="network.faults_dropped",
    partition_dropped="network.partition_dropped",
    duplicates_injected="network.duplicates_injected",
    reordered="network.reordered",
)

_MIRROR_LOCK = threading.Lock()


def mirror_counters(source: object, mapping: Mapping[str, str]) -> None:
    """Fold ``source``'s cumulative counter attributes into the registry.

    Parameters
    ----------
    source :
        Any object carrying cumulative numeric counter attributes
        (a ``ManagerCounters``, client, network, …). It must accept
        attribute assignment: the totals last mirrored are kept on it
        as ``_mirrored_totals``.
    mapping :
        Attribute name -> registry counter name, e.g.
        :data:`MANAGER_COUNTERS_MIRROR`.

    Notes
    -----
    Only the *growth* of each attribute since this object was last
    mirrored is added, which makes the call idempotent at a given state
    and correct across any number of short-lived source objects mapping
    onto the same metric. Missing attributes count as zero, so mappings
    stay forward-compatible.
    """
    registry = get_registry()
    with _MIRROR_LOCK:
        last = getattr(source, "_mirrored_totals", None)
        if last is None:
            last = source._mirrored_totals = {}
        for attr, metric_name in mapping.items():
            current = float(getattr(source, attr, 0) or 0)
            grown = current - last.get(attr, 0.0)
            if grown > 0:
                registry.counter(metric_name).inc(grown)
                last[attr] = current
