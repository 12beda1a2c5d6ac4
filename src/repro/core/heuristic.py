"""Algorithm 1 — the cheapest-first min-cost heuristic.

For every Busy node the heuristic restricts the candidate set to the
Offload-candidate nodes within ``hop_radius`` hops (the paper fixes
``max-hop = 1``: *directly connected* candidates) and solves the
per-node min-cost fill; with a single supply the optimal fill is
cheapest-lane-first greedy, which is what the implementation does.
Candidate spare capacity is a shared pool: busy nodes are processed in
ascending node-id order (deterministic) and each consumes capacity its
successors no longer see — exactly the partial failure mode the paper
quantifies with the Heuristic Failure Rate

    HFR(%) = Σ_i Cse_i / Σ_i Cs_i · 100          (Eq. 4)

where ``Cse_i`` is the load node *i* could not place within the radius.

:func:`solve_heuristic` is one pipeline at every radius: a *lane
producer* yields flat ``(busy row, candidate slot, cost, hops, route
handle)`` arrays, a single stable ``np.lexsort`` orders them (row, then
cost, then hops, ties in candidate order), and one scalar pass fills
cheapest-first against the shared residual-capacity pool. Only the
producer depends on the radius:

* ``hop_radius == 1`` — every busy node's one-hop lanes come from one
  ``indptr`` slice of the topology's cached CSR adjacency, no route
  pricing at all. On the 16-k fat-tree this is the difference between
  milliseconds and a per-node Python lane loop
  (``benchmarks/bench_heuristic_kernel.py`` gates the speedup at ≥ 5×).
* ``hop_radius > 1`` — the finite entries of the Trmin pricing
  pipeline's dp matrix with ``max_hops = hop_radius``
  (:meth:`TrminEngine.resistance_matrix
  <repro.routing.engine.TrminEngine.resistance_matrix>`), scaled by
  ``data_mb`` per Eq. 2.

The readable per-node loop the pipeline is held bit-identical to lives
with the other oracles in ``tests/oracles`` and judges every radius
(``tests/core/test_heuristic_kernel.py``).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.placement import PlacementAssignment, PlacementProblem
from repro.errors import PlacementError
from repro.obs import get_registry, trace_span
from repro.routing.engine import TrminEngine
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.routing.routes import Path
from repro.topology.links import BandwidthConvention

_TOL = 1e-9


class _LazyAssignments(Sequence):
    """Tuple-compatible view over the fill's raw placement records.

    The sweep experiments (fig10-12) call the solver thousands of times
    and only ever read the aggregate HFR fields, so the fill's hot loop
    records each placement as one small tuple and defers building the
    :class:`Path` / :class:`PlacementAssignment` objects until a
    consumer (zoning relief, the manager, tests) actually touches the
    sequence. Materialization happens once and is cached; iteration,
    indexing, ``len()``, truthiness and ``==`` against plain tuples all
    behave exactly like a tuple of assignments.
    """

    __slots__ = ("_records", "_candidates", "_route_of", "_built")

    def __init__(
        self,
        records: List[Tuple[int, int, float, float, int, int]],
        candidates: Tuple[int, ...],
        route_of: Callable[[int, int, int], Path],
    ) -> None:
        # records: (busy_node, candidate_slot, take, cost, hops, handle);
        # route_of(busy_node, candidate_node, handle) is the producer's
        # resolver for its route handles.
        self._records = records
        self._candidates = candidates
        self._route_of = route_of
        self._built: Optional[Tuple[PlacementAssignment, ...]] = None

    def _materialize(self) -> Tuple[PlacementAssignment, ...]:
        built = self._built
        if built is None:
            candidates = self._candidates
            route_of = self._route_of
            new = object.__new__
            out = []
            for busy_node, b, take, cost, hops, handle in self._records:
                candidate = candidates[b]
                # Trusted fast construction, skipping validation: same
                # field values and ordering as a PlacementAssignment(...)
                # call.
                assignment = new(PlacementAssignment)
                assignment.__dict__.update(
                    busy=busy_node,
                    candidate=candidate,
                    amount_pct=take,
                    response_time_s=cost,
                    hops=hops,
                    route=route_of(busy_node, candidate, handle),
                )
                out.append(assignment)
            built = self._built = tuple(out)
        return built

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, _LazyAssignments):
            other = other._materialize()
        if isinstance(other, tuple):
            return self._materialize() == other
        return NotImplemented

    __hash__ = None  # has interior mutable state (the cache)

    def __repr__(self) -> str:
        return repr(self._materialize())


@dataclass(frozen=True)
class HeuristicReport:
    """Outcome of one heuristic run (Algorithm 1)."""

    # A _LazyAssignments (or ``()``): compares equal to the
    # corresponding tuple but defers object construction.
    assignments: Sequence[PlacementAssignment]
    offloaded_per_busy: Dict[int, float]
    failed_per_busy: Dict[int, float]  # the Cse_i of Eq. 4
    total_seconds: float
    hop_radius: int

    @property
    def total_offloaded(self) -> float:
        return float(sum(self.offloaded_per_busy.values()))

    @property
    def total_failed(self) -> float:
        return float(sum(self.failed_per_busy.values()))

    @property
    def total_required(self) -> float:
        return self.total_offloaded + self.total_failed

    @property
    def hfr_pct(self) -> float:
        """Eq. 4; 0 when there was nothing to offload."""
        required = self.total_required
        if required <= _TOL:
            return 0.0
        return 100.0 * self.total_failed / required

    @property
    def fully_offloaded(self) -> bool:
        return self.total_failed <= _TOL

    @property
    def nothing_offloaded(self) -> bool:
        return self.total_offloaded <= _TOL and self.total_failed > _TOL


#: A lane producer's output: flat (busy row, candidate slot, cost, hops,
#: route handle) arrays and the ``route_of(busy, candidate, handle)``
#: resolver that turns a handle into its :class:`Path` on demand.
_Lanes = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, Callable]


def _one_hop_lanes(
    problem: PlacementProblem, convention: BandwidthConvention
) -> _Lanes:
    """Radius-1 producer: every busy node's directly connected
    candidates, gathered from the topology's CSR wiring. The route
    handle is the lane's edge id."""
    topology = problem.topology
    n_busy = len(problem.busy)
    indptr, indices, edge_ids = topology.csr_structure()
    # Same arithmetic as ResponseTimeModel.edge_weights, so lane costs
    # match the oracle bit-for-bit.
    weights = 1.0 / topology.effective_bandwidths(convention)

    cand_of = np.full(topology.num_nodes, -1, dtype=np.int64)
    cand_of[np.asarray(problem.candidates, dtype=np.int64)] = np.arange(
        len(problem.candidates), dtype=np.int64
    )
    busy_arr = np.asarray(problem.busy, dtype=np.int64)

    # Ragged indptr slices flattened into lane arrays; busy nodes with
    # nothing to place contribute no lanes.
    starts = indptr[busy_arr]
    counts = (indptr[busy_arr + 1] - starts) * (problem.cs > _TOL)
    total = int(counts.sum())
    before = np.concatenate(([0], np.cumsum(counts)[:-1]))
    pos = np.repeat(starts - before, counts) + np.arange(total)
    row = np.repeat(np.arange(n_busy), counts)
    cand_idx = cand_of[indices[pos]]
    keep = cand_idx >= 0
    row, cand_idx = row[keep], cand_idx[keep]
    eid = edge_ids[pos[keep]]
    cost = problem.data_mb[row] * weights[eid]
    return row, cand_idx, cost, np.ones(len(row), dtype=np.int64), eid, Path.one_hop


def _priced_lanes(
    problem: PlacementProblem,
    hop_radius: int,
    convention: BandwidthConvention,
    trmin_engine: Optional[TrminEngine],
) -> _Lanes:
    """Radius-r producer: the reachable pairs of the pricing pipeline's
    dp matrix at ``max_hops = hop_radius``, in row-major (candidate)
    order. The route handle is the pair's flat matrix index; routes are
    the matrix kernel's tie witnesses."""
    model = ResponseTimeModel(
        convention=convention, engine=PathEngine.DP, max_hops=hop_radius
    )
    R, hops, paths = (trmin_engine or TrminEngine()).resistance_matrix(
        problem.topology, problem.busy, problem.candidates, with_paths=True, model=model
    )
    flat = np.flatnonzero(np.isfinite(R) & (problem.cs > _TOL)[:, None])
    row, cand_idx = np.divmod(flat, len(problem.candidates))
    cost = problem.data_mb[row] * R[row, cand_idx]
    return row, cand_idx, cost, hops[row, cand_idx], flat, (
        lambda busy_node, candidate, _flat: paths[(busy_node, candidate)]
    )


def solve_heuristic(
    problem: PlacementProblem,
    hop_radius: int = 1,
    convention: BandwidthConvention = BandwidthConvention.AVAILABLE,
    trmin_engine: Optional[TrminEngine] = None,
) -> HeuristicReport:
    """Run Algorithm 1 (generalized to ``hop_radius``) on ``problem``.

    The problem's ``max_hops`` is ignored: the heuristic's whole point
    is the fixed small radius. ``trmin_engine`` prices the lanes for
    ``hop_radius > 1`` (a fresh :class:`TrminEngine` when omitted); it
    is unused at radius 1, whose lanes are single edges.
    """
    if hop_radius < 1:
        raise PlacementError(f"hop_radius must be >= 1, got {hop_radius}")
    problem.check_current()
    start = time.perf_counter()
    busy = problem.busy
    candidates = problem.candidates
    n_busy, n_cand = len(busy), len(candidates)

    # Dicts in busy order; busy nodes that place nothing keep their
    # full need as Eq. 4 failure.
    need_l = problem.cs.tolist()
    offloaded: Dict[int, float] = {node: 0.0 for node in busy}
    failed: Dict[int, float] = {
        node: (need_a if need_a > _TOL else 0.0)
        for node, need_a in zip(busy, need_l)
    }
    records: List[Tuple[int, int, float, float, int, int]] = []
    route_of = None

    with trace_span("heuristic.kernel", busy=n_busy, candidates=n_cand):
        get_registry().histogram(
            "heuristic.kernel.batch_size", unit="busy-nodes"
        ).observe(float(n_busy))
        if n_busy and n_cand and problem.topology.num_edges:
            if hop_radius == 1:
                lanes = _one_hop_lanes(problem, convention)
            else:
                lanes = _priced_lanes(problem, hop_radius, convention, trmin_engine)
            row, cand_idx, cost, hops, handle, route_of = lanes
            # Group by busy row, cheapest first, fewer hops on a cost
            # tie; lexsort is stable, so full ties keep the producer's
            # candidate order like the oracle's list sort does.
            order = np.lexsort((hops, cost, row))

            # The cheapest-first fill is a single linear pass over the
            # sorted lanes. It runs on plain Python lists — tolist() is
            # one C call, and per-lane list indexing is ~10x cheaper
            # than numpy scalar indexing — with the oracle's exact
            # scalar arithmetic (sequential min/subtract, not a
            # cumsum), so amounts, lane order and residual capacity are
            # bit-identical.
            cand_l = cand_idx[order].tolist()
            cost_l = cost[order].tolist()
            hops_l = hops[order].tolist()
            handle_l = handle[order].tolist()
            remaining_l = problem.cd.tolist()
            # Per-row lane boundaries, so a busy node whose need is
            # exhausted jumps straight to its next row instead of
            # walking (and no-op'ing over) its remaining lanes.
            ends_l = np.searchsorted(
                row[order], np.arange(1, n_busy + 1)
            ).tolist()
            append = records.append
            i = 0
            for a in range(n_busy):
                end = ends_l[a]
                if i == end:
                    continue  # preset failed[] already holds the need
                busy_node = busy[a]
                need = need_l[a]
                placed = 0.0
                while i < end and need > _TOL:
                    b = cand_l[i]
                    r = remaining_l[b]
                    if r > _TOL:
                        take = need if need < r else r
                        remaining_l[b] = r - take
                        need -= take
                        placed += take
                        # Raw record only; PlacementAssignment objects
                        # are built lazily on first access (see
                        # _LazyAssignments).
                        append(
                            (busy_node, b, take, cost_l[i], hops_l[i], handle_l[i])
                        )
                    i += 1
                i = end
                # Same accumulation order as the oracle's
                # `offloaded[busy] += take` (starts at 0.0, adds the
                # takes in lane order), so the sum is bit-identical.
                offloaded[busy_node] = placed
                failed[busy_node] = need if need > 0.0 else 0.0

    return HeuristicReport(
        assignments=_LazyAssignments(records, candidates, route_of) if records else (),
        offloaded_per_busy=offloaded,
        failed_per_busy=failed,
        total_seconds=time.perf_counter() - start,
        hop_radius=hop_radius,
    )
