"""Tests for the zoned deployment (paper's <= 80-node-zone guidance)."""

import numpy as np
import pytest

from repro.core import (
    DUSTManager,
    PlacementEngine,
    PlacementProblem,
    ThresholdPolicy,
    Zone,
    ZonedPlacementEngine,
    classify_network,
    partition_by_pod,
    validate_partition,
)
from repro.errors import PlacementError, TopologyError
from repro.routing import PathEngine, ResponseTimeModel
from repro.simulation import MessageNetwork, SimulationEngine
from repro.topology import CapacityModel, LinkUtilizationModel, build_fat_tree
from tests.topologies import build_line


def _problem(topo, busy, cands, cs, cd, max_hops):
    """Eq. 3 instance with ``D_i = 10`` Mb for every busy node."""
    return PlacementProblem(
        topology=topo, busy=tuple(busy), candidates=tuple(cands),
        cs=np.asarray(cs), cd=np.asarray(cd),
        data_mb=np.full(len(busy), 10.0), max_hops=max_hops,
    )


class TestPartitioning:
    def test_pod_partition_covers_fat_tree(self):
        topo = build_fat_tree(4)
        zones = partition_by_pod(topo)
        assert len(zones) == 4  # one per pod
        validate_partition(topo, zones)
        # Each zone: 4 pod switches + 1 core (4 cores round-robined).
        assert sorted(len(z) for z in zones) == [5, 5, 5, 5]

    def test_pod_partition_requires_annotations(self):
        topo = build_line(5)
        with pytest.raises(TopologyError):
            partition_by_pod(topo)

    def test_validate_partition_catches_overlap(self):
        topo = build_line(3)
        with pytest.raises(PlacementError, match="appears in zones"):
            validate_partition(topo, [Zone(0, (0, 1)), Zone(1, (1, 2))])

    def test_validate_partition_catches_missing(self):
        topo = build_line(3)
        with pytest.raises(PlacementError, match="belong to no zone"):
            validate_partition(topo, [Zone(0, (0, 1))])

    def test_zone_validation(self):
        with pytest.raises(PlacementError):
            Zone(0, ())
        with pytest.raises(PlacementError):
            Zone(0, (1, 1))


class TestZonedPlacement:
    def setup_case(self, seed=0, k=4):
        topo = build_fat_tree(k)
        LinkUtilizationModel(0.2, 0.8, seed=seed).apply(topo)
        policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
        caps = CapacityModel(x_min=10.0, seed=seed + 1).sample(topo.num_nodes)
        roles = classify_network(caps, policy)
        busy, cands = roles.busy, roles.candidates
        cs = [policy.excess_load(caps[b]) for b in busy]
        cd = [policy.spare_capacity(caps[c]) for c in cands]
        return topo, busy, cands, cs, cd

    def test_zoned_solve_places_load_in_zone(self):
        topo, busy, cands, cs, cd = self.setup_case(seed=3)
        if not busy:
            pytest.skip("no busy nodes in this draw")
        zones = partition_by_pod(topo)
        engine = ZonedPlacementEngine()
        report = engine.solve(_problem(topo, busy, cands, cs, cd, max_hops=7), zones)
        # Every assignment stays inside one zone.
        zone_of = {}
        for zone in zones:
            for node in zone.nodes:
                zone_of[node] = zone.zone_id
        for a in report.assignments():
            assert zone_of[a.busy] == zone_of[a.candidate]
        # Conservation: offloaded + unplaced == excess.
        assert report.total_offloaded + report.total_unplaced == pytest.approx(
            sum(cs)
        )

    def test_zones_solve_in_the_calling_process(self, monkeypatch):
        """No worker pool per solve, whatever ``REPRO_WORKERS`` says."""
        import repro.parallel

        def no_pool(*args, **kwargs):
            raise AssertionError("zoned placement started a worker pool")

        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setattr(repro.parallel, "map_with_pool_retry", no_pool)
        monkeypatch.setattr(repro.parallel, "ProcessPoolExecutor", no_pool)
        topo, busy, cands, cs, cd = self.setup_case(seed=3, k=8)
        zones = partition_by_pod(topo)
        report = ZonedPlacementEngine().solve(
            _problem(topo, busy, cands, cs, cd, max_hops=7), zones
        )
        assert len(report.zone_reports) == len(zones) == 8
        assert report.total_offloaded + report.total_unplaced == pytest.approx(
            sum(cs)
        )

    def test_zoning_never_beats_global_optimum(self):
        topo, busy, cands, cs, cd = self.setup_case(seed=5)
        if not busy:
            pytest.skip("no busy nodes in this draw")
        problem = _problem(topo, busy, cands, cs, cd, max_hops=None)
        global_report = PlacementEngine(
            response_model=ResponseTimeModel(engine=PathEngine.DP),
            with_routes=False,
        ).solve(problem)
        zoned = ZonedPlacementEngine(
            engine=PlacementEngine(
                response_model=ResponseTimeModel(engine=PathEngine.DP),
                with_routes=False,
            ),
        ).solve(problem, partition_by_pod(topo))
        if global_report.feasible:
            assert zoned.total_offloaded <= global_report.total_offloaded + 1e-9

    def test_zone_failure_rate_zero_when_all_fit(self):
        topo = build_fat_tree(4)
        for link in topo.links:
            link.utilization = 0.5
        zones = partition_by_pod(topo)
        # Busy node 4 (pod 0 agg) with abundant candidates in its own pod.
        busy, cands = [4], [5, 6, 7]
        report = ZonedPlacementEngine().solve(
            _problem(topo, busy, cands, [5.0], [10.0, 10.0, 10.0], max_hops=4), zones
        )
        assert report.zone_failure_rate_pct == 0.0
        assert report.total_offloaded == pytest.approx(5.0)

    def test_zone_failure_when_candidates_elsewhere(self):
        """Busy node whose only candidate lives in another zone."""
        topo = build_fat_tree(4)
        for link in topo.links:
            link.utilization = 0.5
        zones = partition_by_pod(topo)
        # Node 4 is pod 0; node 16 is pod 3.
        report = ZonedPlacementEngine().solve(
            _problem(topo, [4], [16], [5.0], [10.0], max_hops=None), zones
        )
        assert report.total_unplaced == pytest.approx(5.0)
        assert report.zone_failure_rate_pct == pytest.approx(100.0)

    def test_max_zone_seconds_below_total(self):
        topo, busy, cands, cs, cd = self.setup_case(seed=7)
        if not busy:
            pytest.skip("no busy nodes in this draw")
        report = ZonedPlacementEngine().solve(
            _problem(topo, busy, cands, cs, cd, max_hops=5), partition_by_pod(topo)
        )
        assert report.max_zone_seconds <= report.total_seconds + 1e-9


class TestHeuristicRelief:
    """An infeasible zone gets no relief: its whole excess is stranded."""

    def infeasible_zone_case(self):
        # One 2-node zone: busy node 0 needs 20% but its only candidate
        # has 5% spare -> Eq. 3 is infeasible.
        topo = build_line(2)
        for link in topo.links:
            link.utilization = 0.2
        zones = [Zone(zone_id=0, nodes=(0, 1))]
        return topo, zones

    def test_relief_off_by_default(self):
        topo, zones = self.infeasible_zone_case()
        report = ZonedPlacementEngine().solve(
            _problem(topo, [0], [1], [20.0], [5.0], max_hops=7), zones
        )
        assert not report.zone_reports[0][1].feasible
        assert report.unplaced_per_zone[0] == pytest.approx(20.0)
        assert report.total_offloaded == 0.0
        assert report.assignments() == []


class TestDistributedManagerZones:
    def test_non_fat_tree_needs_explicit_zones(self):
        """The manager's distributed mode zones a fat-tree by pod; any
        other fabric has to pass its zones."""
        topology = build_line(4)

        def manager(**kwargs):
            engine = SimulationEngine()
            return DUSTManager(
                node_id=0,
                topology=topology,
                engine=engine,
                network=MessageNetwork(topology, engine),
                policy=ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0),
                solve_mode="distributed",
                **kwargs,
            )

        with pytest.raises(TopologyError, match="pass zones="):
            manager()
        zones = [Zone(0, (0, 1)), Zone(1, (2, 3))]
        assert manager(zones=zones).distributed_engine.zones == zones


class TestDistributedPartitionCheck:
    """``DistributedPlacementEngine`` checks its zoning and builds its
    node → zone map once per topology wiring, not on every solve."""

    def solve(self, topology, zones):
        from repro.core import DistributedPlacementEngine, PlacementProblem

        problem = PlacementProblem(
            topology=topology, busy=(0,), candidates=(1, 2),
            cs=np.array([5.0]), cd=np.array([4.0, 4.0]),
            data_mb=np.array([1.0]), max_hops=3,
        )
        return DistributedPlacementEngine(zones=zones).solve(problem)

    @pytest.fixture
    def checks(self, monkeypatch):
        import repro.core.zoning as zoning

        calls = []
        check = zoning.validate_partition
        monkeypatch.setattr(
            zoning, "validate_partition",
            lambda topology, zones: (calls.append(topology), check(topology, zones)),
        )
        return calls

    def test_once_per_topology(self, checks):
        topology = build_line(3)
        zones = [Zone(0, (0, 1)), Zone(1, (2,))]
        assert self.solve(topology, zones).feasible
        assert self.solve(topology, zones).feasible
        assert checks == [topology]
        fresh = build_line(3)
        assert self.solve(fresh, zones).feasible
        assert checks == [topology, fresh]

    def test_owner_map_built_once_per_topology(self, monkeypatch):
        import repro.core.zoning as zoning

        owners = []
        build = zoning._zone_owner
        monkeypatch.setattr(
            zoning, "_zone_owner",
            lambda topology, zones: owners.append(build(topology, zones)) or owners[-1],
        )
        topology = build_line(3)
        zones = [Zone(0, (0, 1)), Zone(1, (2,))]
        assert self.solve(topology, zones).feasible
        assert self.solve(topology, zones).feasible
        assert owners[0] == {0: 0, 1: 0, 2: 1}
        assert owners[1] is owners[0]
        assert self.solve(build_line(3), zones).feasible
        assert owners[2] == owners[0] and owners[2] is not owners[0]

    def test_a_node_added_after_a_solve_still_needs_a_zone(self, checks):
        topology = build_line(3)
        zones = [Zone(0, (0, 1)), Zone(1, (2,))]
        assert self.solve(topology, zones).feasible
        topology.add_node()
        with pytest.raises(PlacementError, match="belong to no zone"):
            self.solve(topology, zones)
        assert checks == [topology, topology]

    def test_a_fresh_topology_is_checked_afresh(self):
        zones = [Zone(0, (0, 1)), Zone(1, (2,))]
        assert self.solve(build_line(3), zones).feasible
        with pytest.raises(PlacementError, match="belong to no zone"):
            self.solve(build_line(4), zones)
