"""The :class:`Topology` graph type used across the reproduction.

A thin, explicit undirected multigraph-free graph: integer node ids,
node metadata (kind/name/pod), one :class:`~repro.topology.links.Link`
per edge, adjacency lists, and vectorized accessors for the routing
layer. The hot paths (path enumeration, hop-constrained shortest path)
run on plain arrays and adjacency lists, not generic-object traversal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.links import (
    MIN_EFFECTIVE_BANDWIDTH_MBPS,
    BandwidthConvention,
    Link,
)


@dataclass(frozen=True)
class CSRAdjacency:
    """Compressed-sparse-row view of a topology's adjacency.

    ``indices[indptr[v]:indptr[v + 1]]`` are ``v``'s neighbors in
    adjacency-list (insertion) order, ``edge_ids`` the matching edge
    ids, and ``edge_costs`` the per-*edge* resistance ``1 / Lu_e``
    (indexed by edge id, not by lane — gather with ``edge_ids``).
    The arrays are read-only; the vectorized heuristic kernel slices
    them instead of walking :meth:`Topology.incident` dicts.
    """

    version: int
    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray
    edge_costs: np.ndarray


@dataclass(frozen=True)
class TopologyArrays:
    """Snapshot of a topology as plain arrays, no objects.

    The fat-tree blueprint LRU memoizes one of these per parameter
    tuple, and :meth:`Topology.from_arrays` materializes a fresh,
    independently mutable topology from it without re-running the
    wiring. Node ``attrs`` are not carried — they are display metadata
    only.
    """

    name: str
    num_nodes: int
    node_names: Tuple[str, ...]
    node_kinds: Tuple[str, ...]
    node_pods: np.ndarray  # -1 encodes "no pod"
    us: np.ndarray
    vs: np.ndarray
    capacity_mbps: np.ndarray
    utilization: np.ndarray
    latency_ms: np.ndarray
    #: Shared CSR wiring (see :class:`CSRAdjacency`): computed once at
    #: export, so every :meth:`Topology.from_arrays` build prefills its
    #: CSR structure cache instead of re-deriving it.
    csr_indptr: Optional[np.ndarray] = None
    csr_indices: Optional[np.ndarray] = None
    csr_edge_ids: Optional[np.ndarray] = None


class NodeKind(enum.Enum):
    """Hardware persona of a node — DUST is hardware-agnostic, so every
    kind can host monitoring agents; the kind only affects capacity
    profiles and reporting."""

    CORE_SWITCH = "core-switch"
    AGG_SWITCH = "agg-switch"
    EDGE_SWITCH = "edge-switch"
    SWITCH = "switch"
    SERVER = "server"
    DPU = "dpu"
    SMARTNIC = "smartnic"


@dataclass
class Node:
    """A network node: id, display name, hardware kind, optional pod."""

    node_id: int
    name: str
    kind: NodeKind = NodeKind.SWITCH
    pod: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)


class Topology:
    """Undirected graph of :class:`Node` connected by :class:`Link`.

    Nodes are dense integers ``0..n-1``. Parallel edges and self-loops
    are rejected — neither occurs in the paper's fat-tree testbeds and
    allowing them would complicate path semantics for no modeling gain.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: List[Node] = []
        self._links_store: List[Link] = []
        # Deferred link state set by from_arrays(): (capacity, utilization,
        # latency) plain lists. Link objects are only materialized when a
        # caller actually needs them — sweep workers that run the CSR
        # kernel never do, which keeps from_arrays() allocation-light.
        self._lazy_links: Optional[Tuple[List[float], List[float], List[float]]] = None
        self._endpoints: List[Tuple[int, int]] = []
        # node -> [(neighbor, edge_id)]; may also be deferred, backed by
        # the CSR wiring carried inside TopologyArrays.
        self._adjacency_store: List[List[Tuple[int, int]]] = []
        self._lazy_adjacency: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._edge_index: Dict[Tuple[int, int], int] = {}
        self._version = 0
        # CSR export caches: structure arrays keyed on (nodes, edges) —
        # the graph is append-only, so those two counts pin the wiring —
        # and one costed view per bandwidth convention keyed on version.
        self._csr_structure: Optional[
            Tuple[
                Tuple[int, int],
                np.ndarray, np.ndarray, np.ndarray,  # indptr, indices, edge_ids
                np.ndarray, np.ndarray,  # edge endpoints us, vs
            ]
        ] = None
        self._csr_cache: Dict[object, CSRAdjacency] = {}
        # Version-cached (capacity, utilization) edge vectors backing
        # the vectorized effective_bandwidths().
        self._link_state_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    # -- lazy materialization -----------------------------------------------------
    @property
    def _links(self) -> List[Link]:
        """Link objects, materialized from deferred arrays on first use."""
        if self._lazy_links is not None:
            caps, utils, lats = self._lazy_links
            trusted = Link.trusted
            self._links_store = [
                trusted(caps[e], utils[e], lats[e]) for e in range(len(caps))
            ]
            self._lazy_links = None
        return self._links_store

    @_links.setter
    def _links(self, value: List[Link]) -> None:
        self._links_store = value
        self._lazy_links = None

    @property
    def _adjacency(self) -> List[List[Tuple[int, int]]]:
        """Adjacency lists, materialized from the CSR wiring on first use."""
        if self._lazy_adjacency is not None:
            ptr_a, nbrs_a, eids_a = self._lazy_adjacency
            ptr, nbrs, eids = ptr_a.tolist(), nbrs_a.tolist(), eids_a.tolist()
            self._adjacency_store = [
                list(zip(nbrs[ptr[i] : ptr[i + 1]], eids[ptr[i] : ptr[i + 1]]))
                for i in range(len(ptr) - 1)
            ]
            self._lazy_adjacency = None
        return self._adjacency_store

    @_adjacency.setter
    def _adjacency(self, value: List[List[Tuple[int, int]]]) -> None:
        self._adjacency_store = value
        self._lazy_adjacency = None

    # -- versioning ---------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter. Every structural
        change (node/edge added) and every link-state change made
        through the topology mutation API bumps it; the CSR and
        link-state caches key their entries on this value."""
        return self._version

    def _bump(self) -> None:
        self._version += 1

    # -- link-state mutation API --------------------------------------------------
    # Writing through these (rather than mutating Link objects in
    # place) is what keeps ``version`` truthful — the contract the
    # version-keyed CSR / link-state caches depend on.
    def set_utilization(self, edge_id: int, utilization: float) -> None:
        """Set one link's utilization and bump the version."""
        link = self.link(edge_id)
        if not 0.0 <= utilization <= 1.0:
            raise TopologyError(
                f"link utilization must be in [0, 1], got {utilization}"
            )
        link.utilization = float(utilization)
        self._bump()

    def set_capacity(self, edge_id: int, capacity_mbps: float) -> None:
        """Set one link's capacity and bump the version."""
        link = self.link(edge_id)
        if capacity_mbps <= 0:
            raise TopologyError(
                f"link capacity must be positive, got {capacity_mbps}"
            )
        link.capacity_mbps = float(capacity_mbps)
        self._bump()

    def set_link_utilizations(self, utilizations: Sequence[float]) -> None:
        """Bulk utilization update (one value per edge, by edge id);
        bumps the version once."""
        values = np.asarray(utilizations, dtype=float)
        if values.shape != (self.num_edges,):
            raise TopologyError(
                f"need {self.num_edges} utilizations, got shape {values.shape}"
            )
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise TopologyError("link utilizations must be in [0, 1]")
        prev = self._link_state_cache
        prev_current = prev is not None and prev[0] == self._version
        if self._lazy_links is not None:
            caps, _, lats = self._lazy_links
            self._lazy_links = (caps, values.tolist(), lats)
        else:
            for link, value in zip(self._links_store, values.tolist()):
                link.utilization = value
        self._bump()
        # The new state is already in hand — when the cached capacity
        # vector was current, refresh the cache in place instead of
        # re-walking every Link on the next read.
        if prev_current:
            self._link_state_cache = (self._version, prev[1], values.copy())

    def touch_links(self, edge_ids: Optional[Iterable[int]] = None) -> None:
        """Declare that the given links (all, when ``None``) were
        mutated out of band — e.g. by writing ``Link`` fields directly —
        so the version-keyed caches drop their view of them."""
        if edge_ids is not None:
            for edge_id in edge_ids:
                self.link(edge_id)  # validates existence
        self._bump()

    # -- construction -----------------------------------------------------------
    def add_node(
        self,
        name: Optional[str] = None,
        kind: NodeKind = NodeKind.SWITCH,
        pod: Optional[int] = None,
        **attrs: object,
    ) -> int:
        """Add a node; returns its integer id."""
        node_id = len(self._nodes)
        self._nodes.append(
            Node(node_id=node_id, name=name or f"n{node_id}", kind=kind, pod=pod, attrs=attrs)
        )
        self._adjacency.append([])
        self._bump()
        return node_id

    def add_edge(self, u: int, v: int, link: Optional[Link] = None) -> int:
        """Connect ``u`` and ``v``; returns the edge id."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise TopologyError(f"self-loop on node {u} is not allowed")
        key = (min(u, v), max(u, v))
        if key in self._edge_index:
            raise TopologyError(f"duplicate edge between {u} and {v}")
        edge_id = len(self._links)
        self._links.append(link if link is not None else Link())
        self._endpoints.append(key)
        self._edge_index[key] = edge_id
        self._adjacency[u].append((v, edge_id))
        self._adjacency[v].append((u, edge_id))
        self._bump()
        return edge_id

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < len(self._nodes):
            raise TopologyError(
                f"node {node_id} does not exist in topology {self.name!r} "
                f"({len(self._nodes)} nodes)"
            )

    # -- basic queries ------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        if self._lazy_links is not None:
            return len(self._lazy_links[0])
        return len(self._links_store)

    @property
    def nodes(self) -> Sequence[Node]:
        return tuple(self._nodes)

    @property
    def links(self) -> Sequence[Link]:
        return tuple(self._links)

    @property
    def edges(self) -> Sequence[Tuple[int, int]]:
        """Edge endpoint pairs ``(u, v)`` with ``u < v``, indexed by edge id."""
        return tuple(self._endpoints)

    def node(self, node_id: int) -> Node:
        self._check_node(node_id)
        return self._nodes[node_id]

    def link(self, edge_id: int) -> Link:
        if not 0 <= edge_id < len(self._links):
            raise TopologyError(f"edge {edge_id} does not exist")
        return self._links[edge_id]

    def link_between(self, u: int, v: int) -> Link:
        """Link on the edge {u, v}; raises if absent."""
        return self._links[self.edge_id(u, v)]

    def edge_id(self, u: int, v: int) -> int:
        self._check_node(u)
        self._check_node(v)
        key = (min(u, v), max(u, v))
        try:
            return self._edge_index[key]
        except KeyError:
            raise TopologyError(f"no edge between {u} and {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_index

    def neighbors(self, node_id: int) -> List[int]:
        self._check_node(node_id)
        return [nbr for nbr, _ in self._adjacency[node_id]]

    def incident(self, node_id: int) -> List[Tuple[int, int]]:
        """``(neighbor, edge_id)`` pairs around ``node_id``."""
        self._check_node(node_id)
        return list(self._adjacency[node_id])

    def degree(self, node_id: int) -> int:
        self._check_node(node_id)
        return len(self._adjacency[node_id])

    def nodes_of_kind(self, kind: NodeKind) -> List[int]:
        return [n.node_id for n in self._nodes if n.kind is kind]

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __repr__(self) -> str:
        return f"Topology({self.name!r}, nodes={self.num_nodes}, edges={self.num_edges})"

    # -- vectorized views -----------------------------------------------------------
    def _link_state_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Version-cached ``(capacity_mbps, utilization)`` edge vectors.

        Rebuilt lazily from the ``Link`` objects when the version moved;
        the versioned mutation API keeps them truthful the same way it
        keeps the CSR cache truthful.
        """
        cached = self._link_state_cache
        if cached is not None and cached[0] == self._version:
            return cached[1], cached[2]
        if self._lazy_links is not None:
            caps, utils, _ = self._lazy_links
            capacity = np.asarray(caps, dtype=float)
            utilization = np.asarray(utils, dtype=float)
        else:
            links = self._links_store
            n = len(links)
            capacity = np.fromiter(
                (link.capacity_mbps for link in links), dtype=float, count=n
            )
            utilization = np.fromiter(
                (link.utilization for link in links), dtype=float, count=n
            )
        self._link_state_cache = (self._version, capacity, utilization)
        return capacity, utilization

    def _effective_bandwidths_cached(
        self, convention: BandwidthConvention
    ) -> np.ndarray:
        """Vectorized ``Lu_e`` from the version-cached state arrays.

        Elementwise identical to ``Link.effective_mbps`` per edge (same
        IEEE multiply and floor). Only version-keyed consumers (the CSR
        export) may use this: out-of-band ``Link`` writes are invisible
        until ``touch_links`` bumps the version — exactly the staleness
        contract ``csr_adjacency`` already documents.
        """
        capacity, utilization = self._link_state_arrays()
        if convention is BandwidthConvention.AVAILABLE:
            raw = capacity * (1.0 - utilization)
        else:
            raw = capacity * utilization
        return np.maximum(raw, MIN_EFFECTIVE_BANDWIDTH_MBPS)

    def effective_bandwidths(
        self, convention: BandwidthConvention = BandwidthConvention.AVAILABLE
    ) -> np.ndarray:
        """Per-edge ``Lu_e`` vector (Mbps), indexed by edge id.

        Always re-reads the ``Link`` objects so that direct field
        writes (no version bump) stay visible, matching the historical
        contract relied on by rerouting and the LP pricing paths.
        """
        if self._lazy_links is not None:
            # No Link objects exist yet, so no out-of-band writes can
            # have happened; compute straight from the deferred arrays.
            caps, utils, _ = self._lazy_links
            capacity = np.asarray(caps, dtype=float)
            utilization = np.asarray(utils, dtype=float)
            if convention is BandwidthConvention.AVAILABLE:
                raw = capacity * (1.0 - utilization)
            else:
                raw = capacity * utilization
            return np.maximum(raw, MIN_EFFECTIVE_BANDWIDTH_MBPS)
        return np.array(
            [link.effective_mbps(convention) for link in self._links_store]
        )

    def edge_endpoint_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only endpoint arrays ``(us, vs)`` for all edges, cached
        with the CSR wiring (the layered DP asks once per source)."""
        self._ensure_csr_structure()
        *_, us, vs = self._csr_structure
        return us, vs

    def _ensure_csr_structure(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(indptr, indices, edge_ids)`` wiring arrays,
        rebuilt only when the node/edge counts changed (the graph is
        append-only, so those two counts pin the wiring)."""
        structure_key = (self.num_nodes, self.num_edges)
        if self._csr_structure is None or self._csr_structure[0] != structure_key:
            n = self.num_nodes
            degrees = np.fromiter(
                (len(adj) for adj in self._adjacency), dtype=np.int64, count=n
            )
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            total = int(indptr[-1])
            indices = np.fromiter(
                (nbr for adj in self._adjacency for nbr, _ in adj),
                dtype=np.int64,
                count=total,
            )
            edge_ids = np.fromiter(
                (eid for adj in self._adjacency for _, eid in adj),
                dtype=np.int64,
                count=total,
            )
            endpoints = np.asarray(self._endpoints, dtype=np.int64).reshape(-1, 2)
            us, vs = endpoints[:, 0].copy(), endpoints[:, 1].copy()
            for arr in (indptr, indices, edge_ids, us, vs):
                arr.setflags(write=False)
            self._csr_structure = (structure_key, indptr, indices, edge_ids, us, vs)
        _, indptr, indices, edge_ids, _, _ = self._csr_structure
        return indptr, indices, edge_ids

    def csr_structure(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only CSR wiring ``(indptr, indices, edge_ids)`` without
        costs — for kernels that bring their own edge-weight vector
        (e.g. the matrix Trmin DP)."""
        return self._ensure_csr_structure()

    def csr_adjacency(
        self, convention: BandwidthConvention = BandwidthConvention.AVAILABLE
    ) -> CSRAdjacency:
        """Cached CSR adjacency export (see :class:`CSRAdjacency`).

        Keyed on the topology :attr:`version`, so any mutation made
        through the versioned API invalidates the costed view for
        free; the structure arrays survive pure link-state changes.
        Cache traffic is reported on the ``topology.csr_cache_hits`` /
        ``_misses`` counters.
        """
        from repro.obs import get_registry

        cached = self._csr_cache.get(convention)
        if cached is not None and cached.version == self._version:
            get_registry().counter("topology.csr_cache_hits").inc()
            return cached
        get_registry().counter("topology.csr_cache_misses").inc()

        indptr, indices, edge_ids = self._ensure_csr_structure()

        with np.errstate(divide="ignore"):
            edge_costs = 1.0 / self._effective_bandwidths_cached(convention)
        edge_costs.setflags(write=False)
        csr = CSRAdjacency(
            version=self._version,
            indptr=indptr,
            indices=indices,
            edge_ids=edge_ids,
            edge_costs=edge_costs,
        )
        self._csr_cache[convention] = csr
        return csr

    # -- bulk array import/export ---------------------------------------------------
    def to_arrays(self) -> TopologyArrays:
        """Export the full graph state as :class:`TopologyArrays`."""
        us, vs = self.edge_endpoint_arrays()
        indptr, indices, edge_ids = self._ensure_csr_structure()
        return TopologyArrays(
            name=self.name,
            num_nodes=self.num_nodes,
            node_names=tuple(n.name for n in self._nodes),
            node_kinds=tuple(n.kind.value for n in self._nodes),
            node_pods=np.array(
                [-1 if n.pod is None else n.pod for n in self._nodes], dtype=np.int64
            ),
            us=us,
            vs=vs,
            capacity_mbps=np.array([l.capacity_mbps for l in self._links]),
            utilization=np.array([l.utilization for l in self._links]),
            latency_ms=np.array([l.latency_ms for l in self._links]),
            csr_indptr=indptr,
            csr_indices=indices,
            csr_edge_ids=edge_ids,
        )

    @classmethod
    def from_arrays(cls, arrays: TopologyArrays) -> "Topology":
        """Materialize a fresh topology from :class:`TopologyArrays`.

        Bulk construction: one version bump instead of one per
        ``add_node``/``add_edge`` call, no per-edge duplicate checks
        (the arrays came from a validated topology). Each call returns
        an independent, freely mutable graph.
        """
        topo = cls(name=arrays.name)
        topo._nodes = [
            Node(
                node_id=i,
                name=arrays.node_names[i],
                kind=NodeKind(arrays.node_kinds[i]),
                pod=None if arrays.node_pods[i] < 0 else int(arrays.node_pods[i]),
            )
            for i in range(arrays.num_nodes)
        ]
        caps = arrays.capacity_mbps.tolist()
        utils = arrays.utilization.tolist()
        lats = arrays.latency_ms.tolist()
        m = len(caps)
        us = np.minimum(arrays.us, arrays.vs)
        vs = np.maximum(arrays.us, arrays.vs)
        endpoints = list(zip(us.tolist(), vs.tolist()))
        edge_index = dict(zip(endpoints, range(m)))
        # Link objects and adjacency lists are deferred: the properties
        # materialize them on first access, and sweep workers running
        # the CSR kernel never need either.
        topo._lazy_links = (caps, utils, lats)
        topo._endpoints = endpoints
        topo._edge_index = edge_index
        if arrays.csr_indptr is not None:
            # The blueprint carries the CSR wiring: prefill the structure
            # cache and back the deferred adjacency with it.
            for arr in (
                arrays.csr_indptr, arrays.csr_indices, arrays.csr_edge_ids, us, vs
            ):
                arr.setflags(write=False)
            topo._csr_structure = (
                (arrays.num_nodes, m),
                arrays.csr_indptr,
                arrays.csr_indices,
                arrays.csr_edge_ids,
                us,
                vs,
            )
            topo._lazy_adjacency = (
                arrays.csr_indptr,
                arrays.csr_indices,
                arrays.csr_edge_ids,
            )
        else:
            adjacency: List[List[Tuple[int, int]]] = [
                [] for _ in range(arrays.num_nodes)
            ]
            for eid, (u, v) in enumerate(endpoints):
                adjacency[u].append((v, eid))
                adjacency[v].append((u, eid))
            topo._adjacency = adjacency
        topo._bump()
        topo._link_state_cache = (
            topo._version,
            arrays.capacity_mbps.astype(float, copy=True),
            arrays.utilization.astype(float, copy=True),
        )
        return topo
