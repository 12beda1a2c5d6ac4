"""In-memory subscription database — the NOS state DB analogue.

The paper's monitor agents "continuously monitor updates within
specific database (DB) tables on network devices" (Section III-A); the
reference platform is a database-driven network OS (AOS-CX style).
:class:`StateDatabase` reproduces the interaction pattern that matters
for the resource model: named tables whose update counts reach the
subscribed agents, which the device cost model converts into CPU time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Set

from repro.errors import TelemetryError

#: Signature of a bulk subscriber: (table, update_count) -> None. Bulk
#: notifications let synthetic workload drivers account for thousands
#: of updates per interval in O(1) instead of O(count) — agents only
#: *count* updates, so the aggregate is lossless for them.
BulkSubscriber = Callable[[str, int], None]


class StateDatabase:
    """Named tables with synchronous update-count notification.

    Every recorded update batch invokes the table's subscribers in
    registration order.
    """

    def __init__(self, name: str = "statedb") -> None:
        self.name = name
        self._tables: Set[str] = set()
        self._bulk_subscribers: Dict[str, List[BulkSubscriber]] = defaultdict(list)

    # -- schema ------------------------------------------------------------------
    def create_table(self, table: str) -> None:
        """Create an empty table; idempotent re-creation is an error."""
        if table in self._tables:
            raise TelemetryError(f"table {table!r} already exists in {self.name!r}")
        self._tables.add(table)

    def ensure_table(self, table: str) -> None:
        """Create ``table`` unless it already exists."""
        if table not in self._tables:
            self.create_table(table)

    def _check_table(self, table: str) -> None:
        if table not in self._tables:
            raise TelemetryError(f"unknown table {table!r} in {self.name!r}")

    # -- writes -------------------------------------------------------------------
    def record_synthetic_updates(self, table: str, count: int) -> None:
        """Account ``count`` updates to ``table`` without materializing
        rows. Used by workload drivers to model high-rate churn (e.g.
        interface counters under line-rate VxLAN traffic) with O(1)
        bookkeeping; bulk subscribers are notified with the aggregate."""
        if count < 0:
            raise TelemetryError(f"update count must be non-negative, got {count}")
        if count == 0:
            return
        self._check_table(table)
        for callback in self._bulk_subscribers.get(table, ()):
            callback(table, count)

    # -- subscriptions ---------------------------------------------------------------
    def subscribe_bulk(self, table: str, callback: BulkSubscriber) -> None:
        """Register an aggregate-count subscriber for ``table``."""
        self._check_table(table)
        self._bulk_subscribers[table].append(callback)

    def unsubscribe_bulk(self, table: str, callback: BulkSubscriber) -> None:
        """Remove a bulk subscriber (no-op if absent)."""
        try:
            self._bulk_subscribers[table].remove(callback)
        except ValueError:
            pass
