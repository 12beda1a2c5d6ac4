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
* ``DP`` — layered Bellman–Ford (:mod:`repro.routing.shortest`),
  polynomial and exactly equivalent in optimum value.

All matrix pricing goes through two canonical primitives:

* :func:`_dp_matrix` — one all-sources matrix DP
  (:func:`repro.routing.matrix.matrix_hop_constrained`), with parent
  planes when paths are asked for, walked into a route only for the
  pairs a caller looks up;
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
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.routing import enumkernel
from repro.routing.matrix import MatrixDPResult, matrix_hop_constrained
from repro.routing.routes import Path
from repro.topology.graph import Topology
from repro.topology.links import BandwidthConvention

class _DPRoutes(Mapping):
    """Read-only ``(source, destination) -> Path`` view over a matrix
    DP's predecessor planes: a route is walked
    (:meth:`MatrixDPResult.path_to`) only when it is looked up, so a
    caller that reports a handful of flows pays for a handful of routes.

    Keys are the pairs with a finite ``R`` entry; a source id listed
    more than once resolves to its last index."""

    def __init__(
        self, result: MatrixDPResult, destinations: Sequence[int], R: np.ndarray
    ) -> None:
        self._result = result
        self._sources = result.sources
        self._destinations = tuple(int(d) for d in destinations)
        self._reachable = np.isfinite(R)
        self._row = {s: a for a, s in enumerate(self._sources)}
        self._col = {d: b for b, d in enumerate(self._destinations)}

    def _index(self, key) -> Optional[int]:
        """Source index of a reachable ``key``, else ``None``."""
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
        return self._result.path_to(a, int(key[1]))

    def __contains__(self, key) -> bool:
        return self._index(key) is not None

    def _keys(self) -> Dict[Tuple[int, int], None]:
        return dict.fromkeys(
            (self._sources[a], self._destinations[b])
            for a, b in zip(*np.nonzero(self._reachable))
        )

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._keys())

    def __len__(self) -> int:
        return len(self._keys())


def _dp_matrix(
    topology: Topology,
    sources: Sequence[int],
    destinations: Sequence[int],
    max_hops: Optional[int],
    edge_weights: np.ndarray,
    with_paths: bool,
) -> Tuple[np.ndarray, np.ndarray, Mapping[Tuple[int, int], Path]]:
    """Trmin rows of ``sources`` via one all-sources matrix DP,
    optionally with a lazy view that walks one optimal path per
    reachable pair on lookup (weight-minimal, then hop-minimal; tie
    witnesses are the kernel's)."""
    result = matrix_hop_constrained(
        topology, sources, max_hops, edge_weights, with_parents=with_paths
    )
    dest_arr = np.asarray(destinations, dtype=int)
    R = result.best[:, dest_arr]
    hops = result.hops[:, dest_arr]
    if not with_paths:
        return R, hops, {}
    return R, hops, _DPRoutes(result, destinations, R)


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
        weights = self.edge_weights(topology)
        if self.engine is PathEngine.DP:
            return _dp_matrix(
                topology, sources, destinations, self.max_hops, weights, with_paths
            )

        # One kernel call expands every pair and picks each winner.
        R, hops, winners = enumkernel.best_routes_matrix(
            topology, sources, destinations, self.max_hops, weights, with_paths
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
