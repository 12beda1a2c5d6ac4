"""Path/route value types.

The paper writes a route as an edge sequence, e.g.
``r_1 = {e_1 - e_2}``, and the set of all routes between a Busy node
and an Offload-candidate as ``p = {r_1, ..., r_n}``. :class:`Path`
stores both node and edge views and knows how to price itself against
a vector of per-edge effective bandwidths (Eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import RoutingError

#: Two route resistances within this of each other are a tie (the paper
#: then prefers fewer hops). The one definition: the canonical pricing
#: fold, the enumeration kernel's prune margin and the cache's
#: decreased-edge screen must all agree on it.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class Path:
    """A simple path through the topology.

    Attributes
    ----------
    nodes:
        Node ids from source to destination (inclusive); at least 1.
    edges:
        Edge ids, ``len(edges) == len(nodes) - 1``.
    """

    nodes: Tuple[int, ...]
    edges: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) == 0:
            raise RoutingError("a path needs at least one node")
        if len(self.edges) != len(self.nodes) - 1:
            raise RoutingError(
                f"edge count {len(self.edges)} inconsistent with "
                f"{len(self.nodes)} nodes"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise RoutingError(f"path revisits a node: {self.nodes}")

    @classmethod
    def one_hop(cls, u: int, v: int, edge_id: int) -> "Path":
        """Build a two-node path without the generic validation pass.

        The invariants checked in ``__post_init__`` reduce to ``u != v``
        for a single hop, so hot callers (the vectorized Algorithm-1
        kernel emits one path per assignment) can skip the rest.
        """
        if u == v:
            raise RoutingError(f"path revisits a node: {(u, v)}")
        path = object.__new__(cls)
        object.__setattr__(path, "nodes", (u, v))
        object.__setattr__(path, "edges", (edge_id,))
        return path

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def destination(self) -> int:
        return self.nodes[-1]

    @property
    def num_hops(self) -> int:
        """Number of edges traversed."""
        return len(self.edges)

    @property
    def relay_nodes(self) -> Tuple[int, ...]:
        """Intermediate nodes (the paper's zero-cost relay nodes)."""
        return self.nodes[1:-1]

    def response_time(self, data_mb: float, edge_bandwidths_mbps: np.ndarray) -> float:
        """Eq. 1: ``sum_e D_i / Lu_e`` in seconds for this path."""
        if data_mb < 0:
            raise RoutingError(f"data volume must be non-negative, got {data_mb}")
        if not self.edges:
            return 0.0
        lus = edge_bandwidths_mbps[list(self.edges)]
        return float(data_mb * np.sum(1.0 / lus))

    def inverse_bandwidth_sum(self, edge_bandwidths_mbps: np.ndarray) -> float:
        """``sum_e 1/Lu_e`` — the data-independent path "resistance"."""
        if not self.edges:
            return 0.0
        return float(np.sum(1.0 / edge_bandwidths_mbps[list(self.edges)]))

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return "Path(" + "->".join(map(str, self.nodes)) + ")"


@dataclass(frozen=True)
class RouteChoice:
    """The selected route between one (busy, candidate) pair: the
    controllable-routing output of the optimizer."""

    path: Path
    response_time_s: float

    @property
    def num_hops(self) -> int:
        return self.path.num_hops
