"""Network zoning — the paper's scaling recommendation, implemented.

The conclusion of the evaluation section: *"we suggest dividing
large-scale networks into zones containing a maximum of 80 nodes. This
approach has an acceptable optimization cost of 0.8 seconds for a
max-hop value of 7"*. This module implements that zoned deployment:

* :func:`partition_by_pod` — natural fat-tree zoning (a pod plus a
  share of the core layer); other fabrics pass their own zones;
* :class:`ZonedPlacementEngine` — runs an independent Eq. 3 placement
  *inside each zone* and reports the per-zone and aggregate outcome,
  including the load that could not be placed inside its own zone
  (the zoning analogue of the heuristic's HFR).

Zoning trades optimality (no inter-zone offloading) for per-zone solve
times that stay within the paper's sub-second budget;
``examples/zoned_deployment.py`` prints the trade (global vs zoned
solve time and the stranded share).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.placement import (
    PlacementAssignment,
    PlacementEngine,
    PlacementProblem,
    PlacementReport,
)
from repro.errors import PlacementError, TopologyError
from repro.lp.distributed import DistributedSolveResult, ZoneWorker, run_protocol
from repro.topology.graph import NodeKind, Topology

_TOL = 1e-9


@dataclass(frozen=True)
class Zone:
    """One zone: a node subset treated as an independent DUST domain."""

    zone_id: int
    nodes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise PlacementError(f"zone {self.zone_id} is empty")
        if len(set(self.nodes)) != len(self.nodes):
            raise PlacementError(f"zone {self.zone_id} repeats nodes")

    def __len__(self) -> int:
        return len(self.nodes)


def partition_by_pod(topology: Topology) -> List[Zone]:
    """Fat-tree zoning: one zone per pod, with the core switches
    round-robined across zones so every zone can relay through cores.

    Requires pod annotations (set by the fat-tree builder); raises on
    topologies without them.
    """
    pods: Dict[int, List[int]] = {}
    core: List[int] = []
    for node in topology.nodes:
        if node.pod is not None:
            pods.setdefault(node.pod, []).append(node.node_id)
        elif node.kind is NodeKind.CORE_SWITCH:
            core.append(node.node_id)
        else:
            raise TopologyError(
                f"node {node.node_id} has no pod annotation and is not a core "
                "switch; pod zoning needs a fat-tree"
            )
    if not pods:
        raise TopologyError("topology has no pod annotations")
    zones: List[Zone] = []
    pod_ids = sorted(pods)
    for idx, pod in enumerate(pod_ids):
        members = sorted(pods[pod])
        members += [c for j, c in enumerate(core) if j % len(pod_ids) == idx]
        zones.append(Zone(zone_id=idx, nodes=tuple(sorted(members))))
    return zones


def validate_partition(topology: Topology, zones: Sequence[Zone]) -> None:
    """Every node in exactly one zone."""
    seen: Dict[int, int] = {}
    for zone in zones:
        for node in zone.nodes:
            topology.node(node)
            if node in seen:
                raise PlacementError(
                    f"node {node} appears in zones {seen[node]} and {zone.zone_id}"
                )
            seen[node] = zone.zone_id
    missing = set(range(topology.num_nodes)) - set(seen)
    if missing:
        raise PlacementError(f"nodes {sorted(missing)} belong to no zone")


def _zone_owner(topology: Topology, zones: Sequence[Zone]) -> Dict[int, int]:
    """Node → zone id of a zoning :func:`validate_partition` accepts,
    checked and built once per zoning with the topology's wiring
    (:meth:`~repro.topology.graph.Topology.csr_memo`): nodes are only
    ever added, and adding one rebuilds the memo."""
    owners = topology.csr_memo("zone_owners", lambda _: {})
    zoning = tuple(zones)
    owner = owners.get(zoning)
    if owner is None:
        validate_partition(topology, zoning)
        owner = owners[zoning] = {node: zone.zone_id for zone in zoning for node in zone.nodes}
    return owner


@dataclass(frozen=True)
class ZonedPlacementReport:
    """Aggregate outcome of per-zone placement."""

    zone_reports: Tuple[Tuple[Zone, PlacementReport], ...]
    unplaced_per_zone: Dict[int, float]  # excess stuck in an infeasible zone
    total_seconds: float

    @property
    def total_offloaded(self) -> float:
        return float(
            sum(r.total_offloaded for _, r in self.zone_reports if r.feasible)
        )

    @property
    def total_unplaced(self) -> float:
        return float(sum(self.unplaced_per_zone.values()))

    @property
    def total_excess(self) -> float:
        return float(sum(r.total_excess for _, r in self.zone_reports))

    @property
    def zone_failure_rate_pct(self) -> float:
        """Share of total excess stuck inside infeasible zones — the
        price of forbidding inter-zone offloading."""
        excess = self.total_excess
        if excess <= _TOL:
            return 0.0
        return 100.0 * self.total_unplaced / excess

    @property
    def objective_beta(self) -> float:
        """Sum of per-zone betas over feasible zones."""
        return float(
            sum(r.objective_beta for _, r in self.zone_reports if r.feasible)
        )

    @property
    def max_zone_seconds(self) -> float:
        """Slowest zone solve — the paper's per-zone latency budget; in
        a real deployment zones solve in parallel, so this is the
        effective wall-clock."""
        if not self.zone_reports:
            return 0.0
        return max(r.total_seconds for _, r in self.zone_reports)

    def assignments(self) -> List[PlacementAssignment]:
        out: List[PlacementAssignment] = []
        for _, report in self.zone_reports:
            out.extend(report.assignments)
        return out


class ZonedPlacementEngine:
    """Per-zone Eq. 3 placement."""

    def __init__(
        self,
        engine: Optional[PlacementEngine] = None,
        max_hops: Optional[int] = 7,
    ) -> None:
        self.engine = engine or PlacementEngine(with_routes=False)
        self.max_hops = max_hops

    def solve(
        self,
        topology: Topology,
        zones: Sequence[Zone],
        busy: Sequence[int],
        candidates: Sequence[int],
        cs: Sequence[float],
        cd: Sequence[float],
        data_mb: Sequence[float],
    ) -> ZonedPlacementReport:
        """Solve each zone independently; busy/candidate nodes outside
        their zone's membership never exchange load."""
        validate_partition(topology, zones)
        start = time.perf_counter()
        cs_of = dict(zip(busy, map(float, cs)))
        cd_of = dict(zip(candidates, map(float, cd)))
        data_of = dict(zip(busy, map(float, data_mb)))

        problems: List[PlacementProblem] = []
        for zone in zones:
            members = set(zone.nodes)
            zone_busy = tuple(b for b in busy if b in members)
            zone_cands = tuple(c for c in candidates if c in members)
            problems.append(
                PlacementProblem(
                    topology=topology,
                    busy=zone_busy,
                    candidates=zone_cands,
                    cs=np.array([cs_of[b] for b in zone_busy]),
                    cd=np.array([cd_of[c] for c in zone_cands]),
                    data_mb=np.array([data_of[b] for b in zone_busy]),
                    max_hops=self.max_hops,
                )
            )
        reports = [self.engine.solve(p) for p in problems]

        zone_reports: List[Tuple[Zone, PlacementReport]] = []
        unplaced: Dict[int, float] = {}
        for zone, problem, report in zip(zones, problems, reports):
            zone_reports.append((zone, report))
            if not report.feasible:
                unplaced[zone.zone_id] = float(problem.total_excess)
        return ZonedPlacementReport(
            zone_reports=tuple(zone_reports),
            unplaced_per_zone=unplaced,
            total_seconds=time.perf_counter() - start,
        )


@dataclass(frozen=True)
class DistributedPlacementReport(PlacementReport):
    """A :class:`~repro.core.placement.PlacementReport` solved by the
    distributed protocol, with the protocol's statistics attached.

    Drop-in wherever a ``PlacementReport`` is expected (the manager's
    history, divergence metrics, experiment tables); the extra fields
    describe the coordination work.

    Attributes
    ----------
    zones : int
        Participating zone managers.
    rounds : int
        Price-exchange rounds until termination.
    pivots : int
        Coordinator pivots across all rounds.
    dsolve_messages : int
        Protocol messages exchanged.
    presolve_warm_hits : int
        Never set (see the field's comment).
    coordinator_seconds : float
        Coordinator-side setup/pivot wall time.
    zone_seconds : dict of int to float
        Per-zone wall time (Trmin pricing + profile + lane pricing).
    critical_path_seconds : float
        Coordinator time plus the slowest zone (see the field's
        comment).
    """

    zones: int = 0
    rounds: int = 0
    pivots: int = 0
    dsolve_messages: int = 0
    # Never set: the only reader is benchmarks/e2e/spans.py; deleted with
    # that reader in the next [benchmark] PR.
    presolve_warm_hits: int = 0
    coordinator_seconds: float = 0.0
    zone_seconds: Dict[int, float] = field(default_factory=dict)
    # Read only by benchmarks/e2e/spans.py; deleted with that reader in
    # the next [benchmark] PR.
    critical_path_seconds: float = 0.0


class DistributedPlacementEngine:
    """Zone-decomposed Eq. 3 placement: one solve, many zone managers.

    Unlike :class:`ZonedPlacementEngine` — which forbids inter-zone
    offloading and accepts the stranded-excess cost — this engine
    reaches the *global* optimum: each zone manager prices its own busy
    rows once (the Θ(m_z·n) Trmin + reduced-cost work, which dominates)
    and prices them against the duals
    (:class:`~repro.lp.distributed.ZoneWorker`), while the thin
    coordinator from :mod:`repro.lp.distributed` starts from its
    artificial basis and exchanges consensus prices until no zone can
    improve. The
    returned objective equals the centralized
    :class:`~repro.core.placement.PlacementEngine` solve on the same
    problem (same LP optimum, different pivot order). Every solve is a
    pure function of its problem: nothing is carried between calls.

    Parameters
    ----------
    zones : sequence of Zone
        The zone partition (must cover the topology; see
        :func:`validate_partition`, run once per topology wiring with
        the node → zone map the solves share).
    engine : PlacementEngine, optional
        Supplies the Trmin engine and response model the zones price
        with. A route-less engine is built when omitted.
    """

    def __init__(
        self,
        zones: Sequence[Zone],
        engine: Optional[PlacementEngine] = None,
    ) -> None:
        if not zones:
            raise PlacementError("DistributedPlacementEngine needs at least one zone")
        self.zones = list(zones)
        self.engine = engine or PlacementEngine(with_routes=False)

    def solve(self, problem: PlacementProblem) -> DistributedPlacementReport:
        """Solve one placement instance via the distributed protocol.

        Parameters
        ----------
        problem : PlacementProblem
            Same contract as :meth:`PlacementEngine.solve`.

        Returns
        -------
        DistributedPlacementReport
            Globally optimal assignments (identical objective to the
            centralized solve) plus protocol statistics. Routes are not
            attached; pair with the response model to materialize them.
        """
        owner = _zone_owner(problem.topology, self.zones)
        start = time.perf_counter()
        model = self.engine._model_for(problem)
        m, n = len(problem.busy), len(problem.candidates)

        rows_of: Dict[int, List[int]] = {z.zone_id: [] for z in self.zones}
        cols_of: Dict[int, List[int]] = {z.zone_id: [] for z in self.zones}
        for i, b in enumerate(problem.busy):
            rows_of[owner[b]].append(i)
        for j, c in enumerate(problem.candidates):
            cols_of[owner[c]].append(j)

        # Phase 0 per zone: full-width Trmin rows, priced inside
        # run_protocol against the coordinator's duals.
        workers: List[ZoneWorker] = []
        trmin_seconds: Dict[int, float] = {}
        full_trmin = np.zeros((m, n))
        full_hops = np.zeros((m, n), dtype=int)
        all_cands = list(problem.candidates)
        for zone in self.zones:
            rows = rows_of[zone.zone_id]
            cols = cols_of[zone.zone_id]
            t0 = time.perf_counter()
            if rows and n:
                trmin_rows, hops_rows, _ = self.engine.trmin_engine.trmin_matrix(
                    problem.topology,
                    [problem.busy[i] for i in rows],
                    all_cands,
                    problem.data_mb[rows],
                    with_paths=False,
                    model=model,
                )
                full_trmin[rows, :] = trmin_rows
                full_hops[rows, :] = hops_rows
            else:
                trmin_rows = np.zeros((len(rows), n))
            trmin_seconds[zone.zone_id] = time.perf_counter() - t0
            workers.append(
                ZoneWorker(
                    zone_id=zone.zone_id,
                    rows=rows,
                    cols=cols,
                    cost_rows=trmin_rows,
                    supplies=problem.cs[rows],
                    capacities=problem.cd[cols],
                )
            )

        result: DistributedSolveResult = run_protocol(workers)

        assignments: List[PlacementAssignment] = []
        if result.status.is_optimal:
            for i, j in zip(*np.nonzero(result.flow > _TOL)):
                assignments.append(
                    PlacementAssignment(
                        busy=problem.busy[int(i)],
                        candidate=problem.candidates[int(j)],
                        amount_pct=float(result.flow[i, j]),
                        response_time_s=float(full_trmin[i, j]),
                        hops=int(full_hops[i, j]),
                    )
                )

        zone_totals = {
            z.zone_id: trmin_seconds[z.zone_id]
            + result.zone_seconds.get(z.zone_id, 0.0)
            for z in self.zones
        }
        return DistributedPlacementReport(
            status=result.status,
            objective_beta=(
                float(result.objective) if result.status.is_optimal else float("nan")
            ),
            assignments=tuple(assignments),
            trmin_seconds=float(sum(trmin_seconds.values())),
            lp_seconds=float(
                sum(result.zone_seconds.values()) + result.coordinator_seconds
            ),
            total_seconds=time.perf_counter() - start,
            path_engine=model.engine,
            max_hops=problem.max_hops,
            total_excess=problem.total_excess,
            total_spare=problem.total_spare,
            capacity_duals=(
                {} if result.v is None
                else dict(zip(problem.candidates, result.v.tolist()))
            ),
            lp_iterations=result.pivots,
            zones=len(self.zones),
            rounds=result.rounds,
            pivots=result.pivots,
            dsolve_messages=result.messages,
            coordinator_seconds=result.coordinator_seconds,
            zone_seconds=zone_totals,
            critical_path_seconds=result.coordinator_seconds
            + (max(zone_totals.values()) if zone_totals else 0.0),
        )
