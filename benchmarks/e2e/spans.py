"""Benchmark-owned span recorder (deliberately not ``repro.obs``).

Under ``--trace 1`` the pass process calls :func:`install`, which wraps
*public* callables of each layer at run time; every call then records a
span ``(name, start, end, parent, unit)`` in memory. :func:`restore`
puts the originals back. The untraced pass never imports this module,
so the end-to-end numbers carry no tracing cost at all.

Besides spans the wrappers collect the counts the per-layer metrics
need at the same boundaries (rows/pairs priced, LP pivots read from the
public ``PlacementReport`` fields, engine-stat deltas, ledger changes).
Only spans and facts recorded while ``Recorder.unit >= 0`` (a measured
unit) enter the per-layer metrics; set-up and warm-up spans carry unit
``-1`` and show up in the Chrome trace only.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Receiver class name -> span name, applied at ``MessageNetwork.register``.
_RECEIVER_SPANS = {
    "DUSTManager": "core.manager.receive",
    "DUSTClient": "core.client.receive",
    "StandbyManager": "core.failover.standby_receive",
}

_ENGINE_STAT_FIELDS = (
    "cache_hits",
    "full_computes",
    "incremental_updates",
    "gate_fallbacks",
)


class Recorder:
    """In-memory span store; one per traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: One row per finished span: (id, name_id, start, end, parent_id, unit).
        self.rows: List[Tuple[int, int, float, float, int, int]] = []
        self._stack: List[int] = []
        #: Name ids of the open spans, innermost last.
        self.open_names: List[int] = []
        self._next_id = 0
        #: Measured-unit index, or -1 outside the measured units.
        self.unit = -1
        #: Summed counts (measured units only).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Per-observation values (measured units only).
        self.facts: Dict[str, List[float]] = defaultdict(list)

    # -- recording ------------------------------------------------------------
    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[["Recorder", tuple, dict, object, object], None]] = None,
        before: Optional[Callable[["Recorder", tuple, dict], object]] = None,
    ) -> Callable:
        """``fn`` recording one span per call. ``before(rec, args, kwargs)``
        may return a token; ``after(rec, args, kwargs, result, token)``
        runs once the call returned (measured units only)."""
        nid = self.name_id(name)
        rows, stack, open_names = self.rows, self._stack, self.open_names

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            measured = self.unit >= 0
            token = before(self, args, kwargs) if before and measured else None
            stack.append(span_id)
            open_names.append(nid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_names.pop()
                rows.append((span_id, nid, start, end, parent, self.unit))
            if after and measured:
                after(self, args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable, amount: Callable[[object], float]) -> Callable:
        """``fn`` adding ``amount(result)`` to ``counts[name]`` — no span."""

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.unit >= 0:
                self.counts[name] += amount(result)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- analysis -------------------------------------------------------------
    def summarize(self) -> Dict[str, dict]:
        """Per span name over measured units: ``calls``, ``total_s``,
        ``self_s`` (duration minus the part child spans cover),
        ``durations`` and ``self_durations`` of *outermost* spans (a
        span whose parent has the same name is folded into it), and
        ``top_s`` — time of spans with no parent, for the unattributed
        share."""
        child_time: Dict[int, float] = defaultdict(float)
        name_of: Dict[int, int] = {}
        for span_id, nid, start, end, parent, _unit in self.rows:
            name_of[span_id] = nid
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, dict] = {}
        for span_id, nid, start, end, parent, unit in self.rows:
            if unit < 0:
                continue
            entry = out.setdefault(
                self.names[nid],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0,
                 "durations": [], "self_durations": []},
            )
            duration = end - start
            own = duration - child_time.get(span_id, 0.0)
            entry["self_s"] += own
            if parent >= 0 and name_of.get(parent) == nid:
                continue  # nested re-entry of the same layer call
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["durations"].append(duration)
            entry["self_durations"].append(own)
            if parent < 0:
                entry["top_s"] += duration
        return out

    def write_chrome_trace(self, path: str, origin: float) -> None:
        """Chrome ``trace_event`` JSON (complete events, microseconds)."""
        events = [
            {
                "name": self.names[nid],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"unit": unit, "id": span_id, "parent": parent},
            }
            for span_id, nid, start, end, parent, unit in self.rows
        ]
        events.sort(key=lambda e: e["ts"])
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- hooks: counts taken at the same boundaries as the spans --------------------
def _before_price(rec: Recorder, args, kwargs):
    engine = args[0]
    return tuple(getattr(engine.stats, f) for f in _ENGINE_STAT_FIELDS)


def _after_price(rec: Recorder, args, kwargs, result, token) -> None:
    engine = args[0]
    sources = args[2] if len(args) > 2 else kwargs["sources"]
    destinations = args[3] if len(args) > 3 else kwargs["destinations"]
    rec.counts["routing.rows"] += len(sources)
    rec.counts["routing.pairs"] += len(sources) * len(destinations)
    for field, old in zip(_ENGINE_STAT_FIELDS, token):
        rec.counts["routing." + field] += getattr(engine.stats, field) - old


def _before_placement(rec: Recorder, args, kwargs):
    # Outermost placement solve only: zone presolves nest inside a
    # distributed solve and would count its rows twice.
    return rec.name_id("core.placement.solve") not in rec.open_names


def _after_placement(rec: Recorder, args, kwargs, report, outermost) -> None:
    problem = args[1] if len(args) > 1 else kwargs["problem"]
    if outermost:
        rec.counts["placement.rows"] += len(problem.busy)
        rec.counts["placement.idle_rows"] += int((problem.cs <= 1e-9).sum())
    if hasattr(report, "critical_path_seconds"):
        zones = report.zone_seconds
        rec.facts["dist.epochs"].append(report.rounds)
        rec.facts["dist.pivots"].append(report.pivots)
        rec.facts["dist.messages"].append(report.dsolve_messages)
        rec.facts["dist.coordinator_s"].append(report.coordinator_seconds)
        rec.facts["dist.slowest_zone_s"].append(max(zones.values()) if zones else 0.0)
        rec.facts["dist.critical_path_s"].append(report.critical_path_seconds)
        rec.counts["dist.presolve_warm_hits"] += report.presolve_warm_hits
        rec.counts["dist.zone_slots"] += report.zones
        return
    # A centralized LP solve (or one zone's presolve).
    rec.counts["lp.solves"] += 1
    rec.counts["lp.pivots"] += report.lp_iterations
    rec.counts["lp.warm_hits"] += bool(report.lp_warm_started)
    rec.counts["lp.infeasible"] += not report.feasible
    # Public report fields vs. the outer span: both are nested inside
    # this wrapper's span, so they can only be smaller.
    rec.counts["report.trmin_s"] += report.trmin_seconds
    rec.counts["report.lp_s"] += report.lp_seconds
    rec.counts["report.total_s"] += report.total_seconds


def _after_heuristic(rec: Recorder, args, kwargs, report, token) -> None:
    rec.facts["heuristic.hfr_pct"].append(report.hfr_pct)


def _before_round(rec: Recorder, args, kwargs):
    counters = args[0].counters
    return counters.offload_requests_sent, counters.heuristic_fallbacks


def _after_round(rec: Recorder, args, kwargs, report, token) -> None:
    counters = args[0].counters
    rec.counts["manager.requests"] += counters.offload_requests_sent - token[0]
    rec.counts["manager.fallbacks"] += counters.heuristic_fallbacks - token[1]


def _after_run_until(rec: Recorder, args, kwargs, processed, token) -> None:
    rec.counts["engine.events"] += processed


def _resolve(target: str):
    """``"pkg.mod:attr"`` or ``"pkg.mod:Class.method"`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


#: (target, span name, before hook, after hook). Module-level names are
#: patched in every module that bound them at import time.
_SPAN_TARGETS = (
    ("repro.topology.fattree:build_fat_tree", "topology.build", None, None),
    ("repro.simulation.soak:build_fat_tree", "topology.build", None, None),
    ("repro.routing.engine:TrminEngine.trmin_matrix", "routing.price", _before_price, _after_price),
    ("repro.core.placement:solve_transportation", "lp.solve", None, None),
    ("repro.core.zoning:run_protocol", "lp.distributed.protocol", None, None),
    ("repro.core.placement:PlacementEngine.solve", "core.placement.solve", _before_placement, _after_placement),
    ("repro.core.zoning:DistributedPlacementEngine.solve", "core.placement.solve", _before_placement, _after_placement),
    ("repro.core.heuristic:solve_heuristic", "core.heuristic.solve", None, _after_heuristic),
    ("repro.core.manager:solve_heuristic", "core.heuristic.solve", None, _after_heuristic),
    ("repro.simulation.soak:solve_heuristic", "core.heuristic.solve", None, _after_heuristic),
    ("repro.core.manager:DUSTManager.run_optimization_round", "core.manager.decide", _before_round, _after_round),
    ("repro.core.manager:DUSTManager.run_keepalive_sweep", "core.manager.keepalive_sweep", None, None),
    ("repro.core.manager:DUSTManager.export_snapshot", "core.failover.export_snapshot", None, None),
    ("repro.core.failover:SnapshotStore.save", "core.failover.save", None, None),
    ("repro.core.nmdb:NMDB.apply_stat", "core.nmdb.apply_stat", None, None),
    ("repro.core.nmdb:NMDB.snapshot", "core.nmdb.snapshot", None, None),
    ("repro.simulation.engine:SimulationEngine.run_until", "simulation.engine.run_until", None, _after_run_until),
    ("repro.simulation.network_sim:MessageNetwork.send", "simulation.network_sim.send", None, None),
    ("repro.simulation.network_sim:FaultyNetwork.send", "simulation.network_sim.send", None, None),
    ("repro.simulation.soak:run_soak", "simulation.soak.run", None, None),
)

#: (target, count name, amount(result)) — counted, not timed.
_COUNT_TARGETS = (
    ("repro.core.offload:OffloadLedger.add", "ledger.changes", lambda _r: 1),
    ("repro.core.offload:OffloadLedger.reclaim", "ledger.changes", len),
    ("repro.core.offload:OffloadLedger.evict_destination", "ledger.changes", len),
)


def install(rec: Recorder) -> List[Tuple[object, str, object]]:
    """Wrap every target; returns the undo list for :func:`restore`."""
    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attr, replacement) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for target, name, before, after in _SPAN_TARGETS:
        owner, attr = _resolve(target)
        patch(owner, attr, rec.wrap(name, getattr(owner, attr), after=after, before=before))
    for target, name, amount in _COUNT_TARGETS:
        owner, attr = _resolve(target)
        patch(owner, attr, rec.count(name, getattr(owner, attr), amount))

    # Receivers: wrapped where they enter the fabric, named by owner.
    network_cls, _ = _resolve("repro.simulation.network_sim:MessageNetwork.register")
    original_register = network_cls.__dict__["register"]

    def register(self, node_id, receiver):
        owner_cls = type(getattr(receiver, "__self__", None)).__name__
        span = _RECEIVER_SPANS.get(owner_cls, "core.other.receive")
        return original_register(self, node_id, rec.wrap(span, receiver))

    patch(network_cls, "register", register)
    return undo


def restore(undo: List[Tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
