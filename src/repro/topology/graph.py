"""The :class:`Topology` graph type used across the reproduction.

A thin, explicit undirected graph without multi-edges: integer node
ids, node metadata (kind/name/pod), adjacency lists, and per-edge link
state — capacity, utilization and latency — held in three NumPy arrays
indexed by edge id. Those arrays are the only store of link state: the
:class:`~repro.topology.links.Link` objects a topology hands out are
views of them, and the routing layer's ``Lu_e`` vector is one NumPy
expression over them. The hot paths (path enumeration, hop-constrained
shortest path) run on plain arrays and adjacency lists, not
generic-object traversal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.errors import TopologyError
from repro.topology.links import (
    MIN_EFFECTIVE_BANDWIDTH_MBPS,
    BandwidthConvention,
    Link,
    validate_link_state,
)

_T = TypeVar("_T")


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


class _LinkView(Link):
    """A topology's link: a :class:`Link` bound to ``(topology, edge_id)``.

    Reading a field reads the topology's arrays; writing capacity or
    utilization goes through :meth:`Topology.set_capacity` /
    :meth:`Topology.set_utilization`, so the write is validated, visible
    at once and bumps :attr:`Topology.version`. Latency is fixed once the
    link is in a topology (the control network caches its latencies).
    """

    def __init__(self, topology: "Topology", edge_id: int) -> None:
        self._topology = topology
        self._edge_id = edge_id

    @property
    def capacity_mbps(self) -> float:
        return float(self._topology._capacity[self._edge_id])

    @capacity_mbps.setter
    def capacity_mbps(self, value: float) -> None:
        self._topology.set_capacity(self._edge_id, value)

    @property
    def utilization(self) -> float:
        return float(self._topology._utilization[self._edge_id])

    @utilization.setter
    def utilization(self, value: float) -> None:
        self._topology.set_utilization(self._edge_id, value)

    @property
    def latency_ms(self) -> float:
        return float(self._topology._latency[self._edge_id])

    @latency_ms.setter
    def latency_ms(self, value: float) -> None:
        raise TopologyError("a link's latency is fixed once it is in a topology")


class Topology:
    """Undirected graph of :class:`Node` connected by links.

    Nodes are dense integers ``0..n-1`` and edges dense integers
    ``0..m-1``, both in insertion order. Per-edge capacity, utilization
    and latency live in NumPy arrays; :meth:`set_utilization`,
    :meth:`set_capacity` and :meth:`set_link_utilizations` are their
    validated writers and each bumps :attr:`version`. :meth:`link`,
    :attr:`links` and :meth:`link_between` return views of the arrays
    (see :class:`~repro.topology.links.Link`). Parallel edges and
    self-loops are rejected — neither occurs in the paper's fat-tree
    testbeds and allowing them would complicate path semantics for no
    modeling gain.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: List[Node] = []
        # Link state by edge id. ``add_edge`` grows these buffers by
        # doubling, so only the first ``num_edges`` entries are edges.
        self._capacity = np.empty(0)
        self._utilization = np.empty(0)
        self._latency = np.empty(0)
        self._endpoints: List[Tuple[int, int]] = []
        # node -> [(neighbor, edge_id)]; may also be deferred, backed by
        # the CSR wiring carried inside TopologyArrays.
        self._adjacency_store: List[List[Tuple[int, int]]] = []
        self._lazy_adjacency: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._edge_index: Dict[Tuple[int, int], int] = {}
        self._version = 0
        # CSR export caches: structure arrays keyed on (nodes, edges) —
        # the graph is append-only, so those two counts pin the wiring —
        # and, per bandwidth convention, the costed view and the Lu_e
        # vector keyed on version.
        self._csr_structure: Optional[
            Tuple[
                Tuple[int, int],
                np.ndarray, np.ndarray, np.ndarray,  # indptr, indices, edge_ids
                np.ndarray, np.ndarray,  # edge endpoints us, vs
            ]
        ] = None
        self._csr_cache: Dict[object, CSRAdjacency] = {}
        # Kernel tables derived from the wiring alone (see csr_memo),
        # held with the ``indptr`` array they were built from.
        self._csr_memo: Optional[Tuple[np.ndarray, Dict[str, object]]] = None
        self._lu_cache: Dict[BandwidthConvention, Tuple[int, np.ndarray]] = {}
        # Results derived from the link state (see link_state_memo), held
        # with the version they were computed at.
        self._link_state_memo: Tuple[int, Dict[Hashable, dict]] = (0, {})

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
        change (node/edge added) and every link-state write — through
        the setters or through a :class:`Link` view, which calls them —
        bumps it; the ``Lu_e`` and CSR caches and :meth:`link_state_memo`
        key their entries on it."""
        return self._version

    def _bump(self) -> None:
        self._version += 1

    # -- link-state mutation API --------------------------------------------------
    def set_utilization(self, edge_id: int, utilization: float) -> None:
        """Set one link's utilization and bump the version."""
        self._check_edge(edge_id)
        validate_link_state(utilization=utilization)
        self._utilization[edge_id] = utilization
        self._bump()

    def set_capacity(self, edge_id: int, capacity_mbps: float) -> None:
        """Set one link's capacity and bump the version."""
        self._check_edge(edge_id)
        validate_link_state(capacity_mbps=capacity_mbps)
        self._capacity[edge_id] = capacity_mbps
        self._bump()

    def set_link_utilizations(self, utilizations: Sequence[float]) -> None:
        """Bulk utilization update (one value per edge, by edge id);
        bumps the version once."""
        values = np.asarray(utilizations, dtype=float)
        if values.shape != (self.num_edges,):
            raise TopologyError(
                f"need {self.num_edges} utilizations, got shape {values.shape}"
            )
        validate_link_state(utilization=values)
        self._utilization[: self.num_edges] = values
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
        """Connect ``u`` and ``v``; returns the edge id. The edge's state
        is copied out of ``link`` (a default :class:`Link` when omitted)."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise TopologyError(f"self-loop on node {u} is not allowed")
        key = (min(u, v), max(u, v))
        if key in self._edge_index:
            raise TopologyError(f"duplicate edge between {u} and {v}")
        link = link if link is not None else Link()
        capacity, utilization, latency = link.capacity_mbps, link.utilization, link.latency_ms
        validate_link_state(capacity, utilization, latency)
        edge_id = self.num_edges
        if edge_id == self._capacity.size:
            self._capacity, self._utilization, self._latency = (
                np.concatenate([buffer, np.empty(max(16, edge_id))])
                for buffer in (self._capacity, self._utilization, self._latency)
            )
        self._capacity[edge_id] = capacity
        self._utilization[edge_id] = utilization
        self._latency[edge_id] = latency
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

    def _check_edge(self, edge_id: int) -> None:
        if not 0 <= edge_id < self.num_edges:
            raise TopologyError(f"edge {edge_id} does not exist")

    # -- basic queries ------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._endpoints)

    @property
    def nodes(self) -> Sequence[Node]:
        return tuple(self._nodes)

    @property
    def links(self) -> Sequence[Link]:
        """A view of every link, indexed by edge id."""
        return tuple(_LinkView(self, e) for e in range(self.num_edges))

    @property
    def edges(self) -> Sequence[Tuple[int, int]]:
        """Edge endpoint pairs ``(u, v)`` with ``u < v``, indexed by edge id."""
        return tuple(self._endpoints)

    def node(self, node_id: int) -> Node:
        self._check_node(node_id)
        return self._nodes[node_id]

    def link(self, edge_id: int) -> Link:
        """A view of edge ``edge_id``'s link."""
        self._check_edge(edge_id)
        return _LinkView(self, edge_id)

    def link_between(self, u: int, v: int) -> Link:
        """A view of the link on the edge {u, v}; raises if absent."""
        return _LinkView(self, self.edge_id(u, v))

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
    def effective_bandwidths(
        self, convention: BandwidthConvention = BandwidthConvention.AVAILABLE
    ) -> np.ndarray:
        """Per-edge ``Lu_e`` vector (Mbps), indexed by edge id.

        One NumPy expression over the state arrays, elementwise equal to
        ``Link.effective_mbps`` (same IEEE multiply and floor). Cached
        per convention on :attr:`version` and returned read-only.
        """
        cached = self._lu_cache.get(convention)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        m = self.num_edges
        capacity, utilization = self._capacity[:m], self._utilization[:m]
        if convention is BandwidthConvention.AVAILABLE:
            raw = capacity * (1.0 - utilization)
        else:
            raw = capacity * utilization
        lu = np.maximum(raw, MIN_EFFECTIVE_BANDWIDTH_MBPS)
        lu.setflags(write=False)
        self._lu_cache[convention] = (self._version, lu)
        return lu

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

    def csr_memo(self, key: str, build: Callable[["Topology"], _T]) -> _T:
        """``build(self)``, memoized with the CSR wiring under ``key``.

        For kernel tables that depend on the wiring alone (the routing
        DP's degree classes): an entry lives as long as this topology and
        is rebuilt exactly when :meth:`csr_structure` rebuilds, i.e. after
        a node or edge is added. Link-state writes keep it.
        """
        indptr = self._ensure_csr_structure()[0]
        if self._csr_memo is None or self._csr_memo[0] is not indptr:
            self._csr_memo = (indptr, {})
        memo = self._csr_memo[1]
        if key not in memo:
            memo[key] = build(self)
        return memo[key]

    def link_state_memo(self, key: Hashable) -> dict:
        """The dict kept under ``key`` for the current link state.

        For results that depend on the wiring and the link state alone
        (the routing DP's per-source rows): every entry is dropped when
        :attr:`version` moves, i.e. after any link-state write or added
        node or edge. Callers store only read-only values in it.
        """
        version, memos = self._link_state_memo
        if version != self._version:
            memos = {}
            self._link_state_memo = (self._version, memos)
        return memos.setdefault(key, {})

    def csr_adjacency(
        self, convention: BandwidthConvention = BandwidthConvention.AVAILABLE
    ) -> CSRAdjacency:
        """Cached CSR adjacency export (see :class:`CSRAdjacency`).

        Keyed on the topology :attr:`version`, so any link-state write
        invalidates the costed view for free; the structure arrays
        survive pure link-state changes. Cache traffic is reported on
        the ``topology.csr_cache_hits`` / ``_misses`` counters.
        """
        from repro.obs import get_registry

        cached = self._csr_cache.get(convention)
        if cached is not None and cached.version == self._version:
            get_registry().counter("topology.csr_cache_hits").inc()
            return cached
        get_registry().counter("topology.csr_cache_misses").inc()

        indptr, indices, edge_ids = self._ensure_csr_structure()
        edge_costs = 1.0 / self.effective_bandwidths(convention)
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
        m = self.num_edges
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
            capacity_mbps=self._capacity[:m].copy(),
            utilization=self._utilization[:m].copy(),
            latency_ms=self._latency[:m].copy(),
            csr_indptr=indptr,
            csr_indices=indices,
            csr_edge_ids=edge_ids,
        )

    @classmethod
    def from_arrays(cls, arrays: TopologyArrays) -> "Topology":
        """Materialize a fresh topology from :class:`TopologyArrays`.

        Bulk construction: one version bump instead of one per
        ``add_node``/``add_edge`` call, no per-edge duplicate checks
        (the wiring came from a validated topology; the link state is
        validated as a whole). Each call returns an independent, freely
        mutable graph.
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
        topo._capacity, topo._utilization, topo._latency = (
            np.array(values, dtype=float)
            for values in (arrays.capacity_mbps, arrays.utilization, arrays.latency_ms)
        )
        validate_link_state(topo._capacity, topo._utilization, topo._latency)
        m = topo._capacity.size
        us = np.minimum(arrays.us, arrays.vs)
        vs = np.maximum(arrays.us, arrays.vs)
        endpoints = list(zip(us.tolist(), vs.tolist()))
        topo._endpoints = endpoints
        topo._edge_index = dict(zip(endpoints, range(m)))
        if arrays.csr_indptr is not None:
            # The blueprint carries the CSR wiring: prefill the structure
            # cache and back the deferred adjacency with it (sweep
            # workers running the CSR kernel never materialize the lists).
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
        return topo
