"""Versioned, incrementally repaired cache around Trmin route pricing.

Pricing the ``Trmin_ij`` matrix dominates every quantitative result in
the paper (the ILP itself is cheap; Figs. 8–12 measure the route
pricing). There is one pricing pipeline —
:meth:`ResponseTimeModel.resistance_matrix
<repro.routing.response_time.ResponseTimeModel.resistance_matrix>`: the
all-sources matrix DP for a dp model, the frontier-expansion kernel
feeding the canonical fold for an enumeration model — and
:class:`TrminEngine` is only the state around that call:

* a :class:`TrminCache` keyed on the
  :class:`~repro.topology.graph.Topology` version counter. When only a
  few link weights changed, it re-prices just the pairs whose cached
  optimal route touches a dirty edge, plus the pairs that a
  weight-*decrease* could improve (screened by an exact lower bound
  through the decreased edge, computed from two layered DPs — the
  transportation-pricing idea of screening columns by reduced cost).
  For the dp engine, a *cost gate* first estimates the repair bill in
  source-row units and falls back to the flat full recompute whenever
  the dirty set makes repair a loss (``EngineStats.gate_fallbacks``);
* :class:`EngineStats` and the ``trmin.*`` metrics / ``trmin.price``
  span.

A repair re-prices through the same kernels as a fresh compute (one
matrix DP over the flagged source rows; the enumeration kernel per
flagged pair), so fresh, cache-warm and repaired ``(R, hops)`` matrices
are bit-identical — the property suite asserts exact equality against
the oracles in ``tests/oracles``.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs import ENGINE_STATS_MIRROR, get_registry, mirror_counters, trace_span
from repro.routing.response_time import (
    PathEngine,
    ResponseTimeModel,
    _best_enum_route,
    _dp_matrix,
    validate_data_volumes,
)
from repro.routing.routes import _TIE_TOL, Path
from repro.routing.shortest import hop_constrained_shortest
from repro.topology.graph import Topology

#: Estimated cost of one screening DP (a hop-layered sweep with no path
#: recovery, see :meth:`TrminEngine._improvable_pairs`) relative to one
#: with-paths DP source-row re-solve — the unit the dp cost gate counts
#: in. Path materialization dominates a row re-solve, so a pathless
#: sweep is far cheaper; 0.25 is deliberately pessimistic (biases the
#: gate toward the always-sound full recompute).
_SCREEN_ROW_COST = 0.25

Pair = Tuple[int, int]


@dataclass
class EngineStats:
    """Observable engine activity (reset with :meth:`TrminEngine.reset_stats`)."""

    cache_hits: int = 0
    full_computes: int = 0
    incremental_updates: int = 0
    pairs_repriced: int = 0
    #: Incremental repairs abandoned by the dp cost gate because the
    #: dirty set made repair at least as expensive as a full recompute.
    gate_fallbacks: int = 0


@dataclass
class _CacheEntry:
    """One cached ``(R, hops, paths)`` matrix plus the bookkeeping the
    incremental re-pricer needs."""

    topo_ref: "weakref.ref[Topology]"
    version: int
    weights: np.ndarray  # per-edge 1/Lu_e the matrices were priced with
    sources: Tuple[int, ...]
    destinations: Tuple[int, ...]
    R: np.ndarray
    hops: np.ndarray
    paths: Dict[Pair, Path]
    #: edge id -> pairs whose cached optimal route crosses it.
    edge_to_pairs: Dict[int, Set[Pair]] = field(default_factory=dict)
    src_index: Dict[int, int] = field(default_factory=dict)
    dst_index: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.src_index = {s: a for a, s in enumerate(self.sources)}
        self.dst_index = {d: b for b, d in enumerate(self.destinations)}
        self.edge_to_pairs = {}
        for pair, path in self.paths.items():
            self._index_path(pair, path)

    def _index_path(self, pair: Pair, path: Path) -> None:
        for e in path.edges:
            self.edge_to_pairs.setdefault(e, set()).add(pair)

    def _unindex_path(self, pair: Pair, path: Path) -> None:
        for e in path.edges:
            bucket = self.edge_to_pairs.get(e)
            if bucket is not None:
                bucket.discard(pair)
                if not bucket:
                    del self.edge_to_pairs[e]

    def replace_pair(self, pair: Pair, path: Optional[Path]) -> None:
        old = self.paths.pop(pair, None)
        if old is not None:
            self._unindex_path(pair, old)
        if path is not None:
            self.paths[pair] = path
            self._index_path(pair, path)


class TrminCache:
    """LRU cache of Trmin matrices keyed on
    ``(topology, convention, engine, max_hops, sources, destinations)``
    and validated against the topology version counter."""

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(
        topology: Topology,
        model: ResponseTimeModel,
        sources: Tuple[int, ...],
        destinations: Tuple[int, ...],
    ) -> tuple:
        return (
            id(topology),
            model.convention,
            model.engine,
            model.max_hops,
            sources,
            destinations,
        )

    def get(self, key: tuple, topology: Topology) -> Optional[_CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.topo_ref() is not topology:
            # id() was recycled by a new Topology object: stale entry.
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, entry: _CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


class TrminEngine:
    """Resource-aware front end for Trmin matrix pricing.

    Parameters
    ----------
    model:
        Default :class:`ResponseTimeModel`; every method also accepts a
        per-call ``model=`` override (cache entries are keyed per
        model, so one engine serves many configurations).
    cache:
        Enable the versioned :class:`TrminCache`.
    max_cache_entries:
        LRU capacity of that cache.
    dirty_fraction_threshold:
        Incremental re-pricing is abandoned for a full recompute once
        more than this fraction of edges changed weight.

    Attributes
    ----------
    stats : EngineStats
        Cumulative per-engine counters (cache hits, full computes,
        incremental repairs, …). After every pricing call they
        are mirrored into the process-wide ``trmin.*`` metrics, the
        call's wall time lands in ``trmin.price_seconds``, and — when
        tracing is on — the call records a ``trmin.price`` span (see
        ``docs/observability.md``).
    """

    def __init__(
        self,
        model: Optional[ResponseTimeModel] = None,
        *,
        cache: bool = True,
        max_cache_entries: int = 16,
        dirty_fraction_threshold: float = 0.25,
        # Accepted and ignored: the only caller is benchmarks/e2e/workloads.py;
        # deleted with that call site in the next [benchmark] PR.
        workers: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> None:
        self.model = model if model is not None else ResponseTimeModel()
        self.cache_enabled = cache
        self.dirty_fraction_threshold = dirty_fraction_threshold
        self._cache = TrminCache(max_entries=max_cache_entries)
        self.stats = EngineStats()

    # A pickled engine (e.g. shipped to a zoned-placement worker) drops
    # its cache: entries hold weakrefs and are keyed on object ids that
    # mean nothing in another process.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache = TrminCache()

    # -- public API -----------------------------------------------------------------
    def resistance_matrix(
        self,
        topology: Topology,
        sources: Sequence[int],
        destinations: Sequence[int],
        with_paths: bool = False,
        model: Optional[ResponseTimeModel] = None,
    ) -> Tuple[np.ndarray, np.ndarray, Dict[Pair, Path]]:
        """Drop-in replacement for
        :meth:`ResponseTimeModel.resistance_matrix` — same contract,
        same bits, cache-aware."""
        model = model if model is not None else self.model
        src = tuple(int(s) for s in sources)
        dst = tuple(int(d) for d in destinations)
        start = time.perf_counter()
        with trace_span("trmin.price", sources=len(src), destinations=len(dst)):
            if (
                not self.cache_enabled
                or not src
                or not dst
                # Duplicate ids would alias rows/columns in the per-pair
                # bookkeeping; such requests bypass the cache.
                or len(set(src)) != len(src)
                or len(set(dst)) != len(dst)
            ):
                result = model.resistance_matrix(topology, src, dst, with_paths)
            else:
                result = self._cached(model, topology, src, dst, with_paths)
        get_registry().histogram("trmin.price_seconds").observe(
            time.perf_counter() - start
        )
        mirror_counters(self.stats, ENGINE_STATS_MIRROR)
        return result

    def trmin_matrix(
        self,
        topology: Topology,
        sources: Sequence[int],
        destinations: Sequence[int],
        data_mb: Sequence[float],
        with_paths: bool = False,
        model: Optional[ResponseTimeModel] = None,
    ) -> Tuple[np.ndarray, np.ndarray, Dict[Pair, Path]]:
        """Eq. 2 as a matrix (``T[a, b] = D_a * R[a, b]``) through the
        cached pricing path."""
        data = validate_data_volumes(data_mb, len(sources))
        R, hops, paths = self.resistance_matrix(
            topology, sources, destinations, with_paths, model=model
        )
        return data[:, None] * R, hops, paths

    def invalidate(self) -> None:
        """Drop every cached matrix."""
        self._cache.clear()

    def reset_stats(self) -> None:
        self.stats = EngineStats()

    # -- cache layer ------------------------------------------------------------------
    def _cached(
        self,
        model: ResponseTimeModel,
        topology: Topology,
        sources: Tuple[int, ...],
        destinations: Tuple[int, ...],
        with_paths: bool,
    ) -> Tuple[np.ndarray, np.ndarray, Dict[Pair, Path]]:
        key = TrminCache.key(topology, model, sources, destinations)
        entry = self._cache.get(key, topology)
        if entry is not None and topology.num_edges == entry.weights.shape[0]:
            if entry.version == topology.version:
                self.stats.cache_hits += 1
                return self._export(entry, with_paths)
            if self._reprice_incremental(model, topology, entry):
                return self._export(entry, with_paths)
        # Full (re)compute. Paths are always materialized into the
        # entry: the incremental re-pricer needs each pair's optimal
        # route to know which cached results a dirty edge invalidates.
        version = topology.version
        weights = model.edge_weights(topology)
        R, hops, paths = model.resistance_matrix(
            topology, sources, destinations, with_paths=True
        )
        self.stats.full_computes += 1
        entry = _CacheEntry(
            topo_ref=weakref.ref(topology),
            version=version,
            weights=weights,
            sources=sources,
            destinations=destinations,
            R=R,
            hops=hops,
            paths=paths,
        )
        self._cache.put(key, entry)
        return self._export(entry, with_paths)

    @staticmethod
    def _export(
        entry: _CacheEntry, with_paths: bool
    ) -> Tuple[np.ndarray, np.ndarray, Dict[Pair, Path]]:
        return (
            entry.R.copy(),
            entry.hops.copy(),
            dict(entry.paths) if with_paths else {},
        )

    def _reprice_incremental(
        self, model: ResponseTimeModel, topology: Topology, entry: _CacheEntry
    ) -> bool:
        """Bring ``entry`` up to date by re-pricing only affected pairs;
        returns False when a full recompute is the better (or only
        sound) option."""
        dirty_hint = topology.dirty_edges_since(entry.version)
        if dirty_hint is None:
            # Structural change or journal horizon exceeded.
            return False
        if dirty_hint:
            new_weights = entry.weights.copy()
            for e in dirty_hint:
                new_weights[e] = 1.0 / topology.link(e).effective_mbps(model.convention)
        else:
            new_weights = entry.weights
        changed = np.flatnonzero(new_weights != entry.weights)
        if changed.size == 0:
            # Version bumps without weight effect (e.g. a no-op write).
            entry.version = topology.version
            self.stats.cache_hits += 1
            return True
        if changed.size > self.dirty_fraction_threshold * max(topology.num_edges, 1):
            return False

        flagged: Set[Pair] = set()
        # (a) pairs whose cached optimal route crosses a dirty edge —
        # their cost is stale no matter which way the weight moved.
        for e in changed:
            flagged.update(entry.edge_to_pairs.get(int(e), ()))
        # (b) pairs a weight-decrease could improve: screen with an
        # exact lower bound on any hop-bounded route through the edge.
        decreased = changed[new_weights[changed] < entry.weights[changed]]

        # Cost gate (dp only): repair re-solves whole source rows, so
        # its cost is |flagged rows| row-solves plus 2 screening DPs per
        # decreased edge — while the fallback is a flat |sources| row
        # recompute. Bail out as soon as the estimate says repair cannot
        # win; rows touched by dirty routes are a lower bound on the
        # flagged rows, so this pre-gate never rejects a repair that the
        # post-screen gate below would have accepted.
        if model.engine is PathEngine.DP:
            total_rows = len(entry.sources)
            screen_cost = _SCREEN_ROW_COST * 2 * decreased.size
            rows_dirty = {pair[0] for pair in flagged}
            if screen_cost + len(rows_dirty) >= total_rows:
                self.stats.gate_fallbacks += 1
                return False

        for e in decreased:
            flagged.update(
                self._improvable_pairs(topology, entry, int(e), new_weights, model)
            )

        # Post-screen gate: screening may have flagged more rows than
        # the dirty-route lower bound promised. The screening work is
        # sunk either way; only the remaining row re-solves matter.
        if model.engine is PathEngine.DP:
            rows_flagged = {pair[0] for pair in flagged}
            if len(rows_flagged) >= len(entry.sources):
                self.stats.gate_fallbacks += 1
                return False

        if flagged:
            self._reprice_pairs(model, topology, entry, flagged, new_weights)
        entry.weights = new_weights
        entry.version = topology.version
        self.stats.incremental_updates += 1
        self.stats.pairs_repriced += len(flagged)
        return True

    def _improvable_pairs(
        self,
        topology: Topology,
        entry: _CacheEntry,
        edge_id: int,
        weights: np.ndarray,
        model: ResponseTimeModel,
    ) -> List[Pair]:
        """Pairs whose optimum might improve through ``edge_id``.

        For edge ``e = {u, v}`` any route through it splits into a
        prefix to one endpoint, the edge, and a suffix from the other;
        two layered DPs rooted at ``u`` and ``v`` give the cheapest
        hop-feasible split, i.e. an exact lower bound on every simple
        path through ``e``. Pairs whose cached optimum already beats
        the bound cannot improve and are skipped.
        """
        H = model.max_hops if model.max_hops is not None else topology.num_nodes - 1
        if H < 1:
            return []
        u, v = topology.edges[edge_id]
        du = hop_constrained_shortest(topology, u, H, weights).dist  # (H+1, n)
        dv = hop_constrained_shortest(topology, v, H, weights).dist
        # cummin over layers: cheapest reach within <= h hops.
        du_cm = np.minimum.accumulate(du, axis=0)
        dv_cm = np.minimum.accumulate(dv, axis=0)
        src = np.asarray(entry.sources)
        dst = np.asarray(entry.destinations)
        w_e = weights[edge_id]
        best_bound = np.full((src.size, dst.size), np.inf)
        for h1 in range(H):  # h1 hops to the near endpoint, <= H-1-h1 after
            h2 = H - 1 - h1
            np.minimum(
                best_bound,
                du_cm[h1, src][:, None] + w_e + dv_cm[h2, dst][None, :],
                out=best_bound,
            )
            np.minimum(
                best_bound,
                dv_cm[h1, src][:, None] + w_e + du_cm[h2, dst][None, :],
                out=best_bound,
            )
        # The finite check keeps inf <= inf from flagging pairs that are
        # unreachable within the hop budget (they can never improve:
        # reachability is weight-independent).
        improvable = np.isfinite(best_bound) & (best_bound <= entry.R + _TIE_TOL)
        return [
            (int(src[a]), int(dst[b])) for a, b in zip(*np.nonzero(improvable))
        ]

    def _reprice_pairs(
        self,
        model: ResponseTimeModel,
        topology: Topology,
        entry: _CacheEntry,
        flagged: Set[Pair],
        weights: np.ndarray,
    ) -> None:
        if model.engine is PathEngine.DP:
            # The DP prices a whole source row at once; re-solve every
            # source with at least one flagged pair in one matrix DP.
            rows = sorted({pair[0] for pair in flagged})
            R, hops, paths = _dp_matrix(
                topology, rows, entry.destinations, model.max_hops, weights, True
            )
            for i, s in enumerate(rows):
                a = entry.src_index[s]
                entry.R[a, :] = R[i]
                entry.hops[a, :] = hops[i]
                for d in entry.destinations:
                    entry.replace_pair((s, d), paths.get((s, d)))
            return
        # Shared backward bound-DP cache for the enumeration kernel:
        # weights and hop budget are fixed across the flagged pairs, so
        # each distinct destination's plane is computed once.
        bound_cache: Dict[int, np.ndarray] = {}
        for s, d in sorted(flagged):
            a, b = entry.src_index[s], entry.dst_index[d]
            res, nh, raw = _best_enum_route(
                topology, s, d, model.max_hops, weights, bound_cache=bound_cache
            )
            if raw is None:
                entry.R[a, b] = np.inf
                entry.hops[a, b] = -1
                entry.replace_pair((s, d), None)
            else:
                entry.R[a, b] = res
                entry.hops[a, b] = nh
                entry.replace_pair((s, d), Path(nodes=raw[0], edges=raw[1]))
