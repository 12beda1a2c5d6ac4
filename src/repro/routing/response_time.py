"""Response-time computation (Eqs. 1 and 2) and pairwise Trmin matrices.

``Tr_{i,j}(r) = sum_{e in r} D_i / Lu_e`` and
``Trmin_{i,j} = min_{r in p} Tr_{i,j}(r)`` over all hop-bounded paths.
Because ``D_i`` is a common factor, the minimization runs on the path
"resistance" ``sum_e 1/Lu_e``; the matrix builders return both the
scaled times and the hop counts of the chosen routes (the paper
tie-breaks equal response times by fewer hops).

Two engines are provided, selected by :class:`PathEngine`:

* ``ENUMERATION`` — exhaustive hop-bounded enumeration
  (:mod:`repro.routing.enumkernel`), the source of the paper's measured
  ILP-time blowup with max-hop (Figs. 8/10);
* ``DP`` — layered Bellman–Ford over all sources at once (the kernel
  in :mod:`repro.routing.matrix`), polynomial and exactly equivalent
  in optimum value. :mod:`repro.routing.shortest` is its per-source
  reference, reached only by tests and ``bench_trmin_matrix.py``.

All matrix pricing goes through two canonical primitives:

* :func:`_dp_matrix` — per-source rows of the all-sources matrix DP
  (:func:`repro.routing.matrix.matrix_hop_constrained`), priced once
  per link state: the topology keeps each row until its ``version``
  moves, and a call relaxes only the sources it lacks, in one block.
  A row carries its parent-edge planes when paths were asked for,
  walked into a route only for the pairs a caller looks up;
* :func:`repro.routing.enumkernel.best_routes_matrix` — one frontier
  expansion for every pair of the call, pruning provably
  non-influential paths with an admissible lower bound, then picking
  each pair's winner among its DFS-ordered survivors by the judge's
  fold rule.

Summation order is part of the contract, and the two engines differ:

* enumeration ``R`` is ``np.add.reduceat`` over the winner's edge ids,
  which NumPy evaluates as ``w0 + (w1 + ...)`` (the tail summed
  pairwise past 8 edges) — the price the exhaustive-DFS fold in
  ``tests/oracles`` computes, bit for bit;
* DP ``R`` is the left fold ``((w0 + w1) + ...)`` along its walked
  route, bit-identical to the per-source DP oracle.

The two therefore agree only to within the prune's margin, never
assumed bitwise.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.obs import get_registry
from repro.routing import enumkernel
from repro.routing.matrix import matrix_hop_constrained
from repro.routing.routes import Path
from repro.topology.graph import Topology
from repro.topology.links import BandwidthConvention


class _DPRow(NamedTuple):
    """One source's matrix-DP row at one link state, read-only.

    ``best[v]`` and ``hops[v]`` are the source's row of
    :class:`~repro.routing.matrix.MatrixDPResult`. ``parent_edge`` is
    ``None`` when the row was priced without routes, else ``(layers,
    n)``: ``parent_edge[h, v]`` is the edge through which layer ``h``
    improved ``v``, ``-1`` where it did not. That is all a route walk
    reads: the parent node is the edge's other endpoint, and a cell
    improved at ``h`` exactly when it has a parent edge there."""

    best: np.ndarray
    hops: np.ndarray
    parent_edge: Optional[np.ndarray]


def _walk(topology: Topology, source: int, row: _DPRow, destination: int) -> Path:
    """The route from ``source`` to a reachable ``destination`` that
    :meth:`~repro.routing.matrix.MatrixDPResult.path_to` walks, read
    from one :class:`_DPRow`."""
    us, vs = topology.edge_endpoint_arrays()
    parent_edge = row.parent_edge
    h = int(row.hops[destination])
    nodes: List[int] = [destination]
    edges: List[int] = []
    v = destination
    while h > 0:
        e = int(parent_edge[h, v])
        if e >= 0:
            v = int(us[e]) + int(vs[e]) - v
            edges.append(e)
            nodes.append(v)
        h -= 1
    if v != source:  # pragma: no cover - DP invariant guards this
        raise RoutingError("path reconstruction walked past layer 0")
    nodes.reverse()
    edges.reverse()
    return Path(nodes=tuple(nodes), edges=tuple(edges))


class _DPRoutes(Mapping):
    """Read-only ``(source, destination) -> Path`` view over one call's
    DP rows: a route is walked (:func:`_walk`) only when it is looked up,
    so a caller that reports a handful of flows pays for a handful of
    routes.

    Keys are the pairs with a finite ``R`` entry. The id -> index maps
    are built on the first lookup, so a call whose routes are never read
    builds neither."""

    def __init__(
        self,
        topology: Topology,
        sources: List[int],
        rows: List[_DPRow],
        destinations: np.ndarray,
        R: np.ndarray,
    ) -> None:
        self._topology = topology
        self._sources = sources
        self._rows = rows
        self._destinations = destinations
        self._reachable = np.isfinite(R)
        self._row: Optional[Dict[int, int]] = None
        self._col: Optional[Dict[int, int]] = None

    def _index(self, key) -> Optional[int]:
        """Source index of a reachable ``key``, else ``None``."""
        if self._col is None:
            self._row = {s: a for a, s in enumerate(self._sources)}
            self._col = {d: b for b, d in enumerate(self._destinations.tolist())}
        try:
            source, destination = key
            a, b = self._row.get(source), self._col.get(destination)
        except (TypeError, ValueError):
            return None
        if a is None or b is None or not self._reachable[a, b]:
            return None
        return a

    def __getitem__(self, key) -> Path:
        a = self._index(key)
        if a is None:
            raise KeyError(key)
        return _walk(self._topology, self._sources[a], self._rows[a], int(key[1]))

    def __contains__(self, key) -> bool:
        return self._index(key) is not None

    def _keys(self) -> Dict[Tuple[int, int], None]:
        sources, destinations = self._sources, self._destinations.tolist()
        return dict.fromkeys(
            (sources[a], destinations[b]) for a, b in zip(*np.nonzero(self._reachable))
        )

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._keys())

    def __len__(self) -> int:
        return len(self._keys())


def _price_rows(
    model: ResponseTimeModel,
    topology: Topology,
    sources: List[int],
    with_paths: bool,
) -> Dict[int, _DPRow]:
    """One matrix DP over ``sources`` (distinct ids), split into
    read-only per-source rows."""
    result = matrix_hop_constrained(
        topology,
        sources,
        model.max_hops,
        model.edge_weights(topology),
        with_parents=with_paths,
    )
    planes: List[Optional[np.ndarray]] = [None] * len(sources)
    if with_paths:
        # (S, layers, n): each source's parent-edge planes contiguous.
        stacked = np.stack(result.parent_edge).astype(np.int32)
        stacked = np.ascontiguousarray(stacked.transpose(2, 0, 1))
        stacked.setflags(write=False)
        planes = list(stacked)
    result.best.setflags(write=False)
    result.hops.setflags(write=False)
    return {
        s: _DPRow(best, hops, parent_edge)
        for s, best, hops, parent_edge in zip(sources, result.best, result.hops, planes)
    }


def _dp_matrix(
    model: ResponseTimeModel,
    topology: Topology,
    sources: Sequence[int],
    destinations: Sequence[int],
    with_paths: bool,
) -> Tuple[np.ndarray, np.ndarray, Mapping[Tuple[int, int], Path]]:
    """Trmin rows of ``sources`` from the per-source DP rows the topology
    keeps for this link state (:meth:`Topology.link_state_memo
    <repro.topology.graph.Topology.link_state_memo>`), optionally with a
    lazy view that walks one optimal path per reachable pair on lookup
    (weight-minimal, then hop-minimal; tie witnesses are the kernel's).

    The sources the memo lacks — or holds without parent planes, when
    routes are asked for — are priced in one matrix DP. Source columns
    of the DP are independent (block boundaries change no bit, and a
    witness lane depends only on its own column), so a kept row equals
    the one a fresh call would compute."""
    memo = topology.link_state_memo(("dp_rows", model.convention, model.max_hops))
    src = [int(s) for s in sources]
    missing = [
        s
        for s in dict.fromkeys(src)
        if s not in memo or (with_paths and memo[s].parent_edge is None)
    ]
    if missing or not src:
        # An empty call still runs the kernel's argument checks.
        memo.update(_price_rows(model, topology, missing, with_paths))
    registry = get_registry()
    registry.counter("trmin.rows_priced").inc(len(missing))
    registry.counter("trmin.rows_reused").inc(len(src) - len(missing))

    rows = [memo[s] for s in src]
    dest_arr = np.asarray(destinations, dtype=int)
    if rows:
        R = np.stack([row.best for row in rows])[:, dest_arr]
        hops = np.stack([row.hops for row in rows])[:, dest_arr]
    else:
        R = np.empty((0, topology.num_nodes))[:, dest_arr]
        hops = np.empty((0, topology.num_nodes), dtype=np.int64)[:, dest_arr]
    if not with_paths:
        return R, hops, {}
    return R, hops, _DPRoutes(topology, src, rows, dest_arr, R)


class PathEngine(enum.Enum):
    """Route-search strategy for Trmin."""

    ENUMERATION = "enumeration"
    DP = "dp"


@dataclass
class ResponseTimeModel:
    """Configuration bundle for Trmin computation.

    Attributes
    ----------
    convention:
        How ``Lu_e`` derives from link state (see
        :class:`~repro.topology.links.BandwidthConvention`).
    engine:
        :class:`PathEngine` used for the minimization.
    max_hops:
        Hop budget (``None`` = unbounded), the paper's ``max-hop``.
    """

    convention: BandwidthConvention = BandwidthConvention.AVAILABLE
    engine: PathEngine = PathEngine.ENUMERATION
    max_hops: Optional[int] = None

    def edge_weights(self, topology: Topology) -> np.ndarray:
        """Per-edge resistance ``1 / Lu_e``."""
        return 1.0 / topology.effective_bandwidths(self.convention)

    # -- pairwise matrices --------------------------------------------------------
    def resistance_matrix(
        self,
        topology: Topology,
        sources: Sequence[int],
        destinations: Sequence[int],
        with_paths: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, Mapping[Tuple[int, int], Path]]:
        """Pairwise minimum resistances.

        Returns ``(R, hops, paths)`` where ``R[a, b]`` is the minimum
        ``sum 1/Lu_e`` from ``sources[a]`` to ``destinations[b]``
        (``inf`` when unreachable within ``max_hops``), ``hops[a, b]``
        the chosen route's hop count (``-1`` unreachable), and
        ``paths`` maps every reachable (source, destination) node-id
        pair to an optimal :class:`Path` when ``with_paths``. Without
        it both engines build no route and return an empty mapping.
        For a dp model ``paths`` is a read-only mapping that walks a
        route from the DP's predecessor planes only when it is looked
        up; the enumeration kernel builds every reachable pair's winner
        in the call, so it returns a plain dict.
        """
        if self.engine is PathEngine.DP:
            return _dp_matrix(self, topology, sources, destinations, with_paths)

        # One kernel call expands every pair and picks each winner.
        R, hops, winners = enumkernel.best_routes_matrix(
            topology,
            sources,
            destinations,
            self.max_hops,
            self.edge_weights(topology),
            with_paths,
        )
        paths: Dict[Tuple[int, int], Path] = {}
        for (a, b), (nodes, edges) in winners.items():
            paths[(int(sources[a]), int(destinations[b]))] = Path(
                nodes=nodes, edges=edges
            )
        return R, hops, paths


def validate_data_volumes(data_mb: Sequence[float], num_sources: int) -> np.ndarray:
    """Eq.-2 input validation for :meth:`TrminEngine.trmin_matrix
    <repro.routing.engine.TrminEngine.trmin_matrix>`: one finite,
    non-negative ``D_i`` per source."""
    data = np.asarray(data_mb, dtype=float)
    if data.shape != (num_sources,):
        raise RoutingError(
            f"need one data volume per source: got {data.shape} for "
            f"{num_sources} sources"
        )
    if not np.isfinite(data).all():
        raise RoutingError("data volumes must be finite")
    if (data < 0).any():
        raise RoutingError("data volumes must be non-negative")
    return data


def scale_by_data_volume(data: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Eq. 2's row scaling ``T[a, b] = D_a * R[a, b]``. An unreachable
    pair stays ``inf`` — the forbidden-lane marker downstream — even
    for ``D_a == 0``, where the plain product would be ``NaN``."""
    T = np.full(R.shape, np.inf)
    np.multiply(data[:, None], R, out=T, where=np.isfinite(R))
    return T
