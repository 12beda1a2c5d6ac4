"""Integration tests: DUST-Manager + DUST-Clients on the event engine."""

import pytest

from repro.core import DUSTClient, DUSTManager, RetryPolicy, ThresholdPolicy
from repro.core.audit import audit_system
from repro.routing import ResponseTimeModel
from repro.simulation import MessageNetwork, SimulationEngine
from repro.topology import LinkUtilizationModel, build_fat_tree

POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
FAST_RETRY = RetryPolicy(base_timeout_s=1.0, backoff=2.0, max_timeout_s=4.0, max_retries=2)


def build_system(
    hot_nodes=(5,),
    hot_capacity=92.0,
    cool_capacity=30.0,
    optimization_period_s=60.0,
    keepalive_timeout_s=30.0,
    seed=3,
    retry_policy=None,
):
    topology = build_fat_tree(4)
    LinkUtilizationModel(0.2, 0.7, seed=seed).apply(topology)
    engine = SimulationEngine()
    network = MessageNetwork(topology, engine)
    manager = DUSTManager(
        node_id=0,
        topology=topology,
        engine=engine,
        network=network,
        policy=POLICY,
        update_interval_s=30.0,
        optimization_period_s=optimization_period_s,
        keepalive_timeout_s=keepalive_timeout_s,
        retry_policy=retry_policy,
    )
    manager.start()
    clients = {}
    for node in range(1, topology.num_nodes):
        client = DUSTClient(
            node_id=node,
            engine=engine,
            network=network,
            manager_node=0,
            policy=POLICY,
            base_capacity=hot_capacity if node in hot_nodes else cool_capacity,
            data_mb=10.0,
            keepalive_period_s=10.0,
            retry_policy=retry_policy,
        )
        client.start()
        clients[node] = client
    return engine, manager, clients


class TestAdmission:
    def test_clients_receive_ack_and_start_stats(self):
        engine, manager, clients = build_system()
        engine.run_until(120.0)
        assert manager.counters.acks_sent == len(clients)
        assert manager.counters.stats_received > 0
        for client in clients.values():
            assert client.update_interval_s == 30.0
            assert client.stats_sent > 0

    def test_non_capable_client_recorded(self):
        engine, manager, clients = build_system()
        # Recreate node 7 as non-capable on a fresh system instead:
        engine2 = SimulationEngine()
        topology = manager.topology
        # simpler: check NMDB after manual capability message
        from repro.core import OffloadCapable

        manager.nmdb.register_capability(
            OffloadCapable(node_id=7, capable=False, c_max=80.0, co_max=50.0)
        )
        assert not manager.nmdb.record(7).capable


class TestOffloadWorkflow:
    def test_busy_node_gets_offloaded_to_cmax(self):
        engine, manager, clients = build_system(hot_nodes=(5,))
        engine.run_until(600.0)
        hot = clients[5]
        assert hot.offloaded_amount == pytest.approx(12.0)  # 92 - 80
        assert hot.current_capacity(engine.now) == pytest.approx(80.0)
        assert manager.counters.offloads_established >= 1

    def test_destinations_stay_within_co_max(self):
        engine, manager, clients = build_system(hot_nodes=(5, 9, 14))
        engine.run_until(900.0)
        for client in clients.values():
            if client.hosted_amount > 0:
                assert client.current_capacity(engine.now) <= POLICY.co_max + 1e-6

    def test_ledger_matches_client_state(self):
        engine, manager, clients = build_system(hot_nodes=(5,))
        engine.run_until(600.0)
        for offload in manager.ledger.active:
            src = clients[offload.source]
            dst = clients[offload.destination]
            assert src.offloaded_to.get(offload.destination, 0.0) >= offload.amount_pct - 1e-9
            assert dst.hosted.get(offload.source) is not None

    def test_no_offload_when_nothing_busy(self):
        engine, manager, clients = build_system(hot_nodes=())
        engine.run_until(400.0)
        assert manager.counters.offload_requests_sent == 0
        assert len(manager.ledger) == 0

    def test_keepalives_flow_from_destinations(self):
        engine, manager, clients = build_system(hot_nodes=(5,))
        engine.run_until(600.0)
        assert manager.counters.keepalives_received > 0


class TestFailureRecovery:
    def test_destination_failure_triggers_replica(self):
        engine, manager, clients = build_system(hot_nodes=(5,))
        engine.run_until(300.0)
        assert manager.ledger.active
        failed = manager.ledger.active[0].destination
        clients[failed].fail()
        engine.run_until(900.0)
        assert manager.counters.destinations_failed >= 1
        # Workload was either re-homed or returned — never left dangling.
        assert manager.counters.replicas_installed + manager.counters.workloads_returned >= 1
        assert all(o.destination != failed for o in manager.ledger.active)

    def test_replica_receives_workload(self):
        engine, manager, clients = build_system(hot_nodes=(5,))
        engine.run_until(300.0)
        first = manager.ledger.active[0]
        clients[first.destination].fail()
        engine.run_until(900.0)
        if manager.counters.replicas_installed:
            replicas = [o for o in manager.ledger.active if o.via_replica]
            assert replicas
            for offload in replicas:
                host = clients[offload.destination]
                assert host.hosted_amount >= offload.amount_pct - 1e-9


    def test_recovery_within_one_interval_runs_one_stat_chain(self):
        """``recover`` resets the update interval, so the new ACK starts a
        chain; the old one used to keep ticking beside it because it only
        stopped on a tick that found the client dead."""
        topology = build_fat_tree(4)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        DUSTManager(
            node_id=0, topology=topology, engine=engine, network=network, policy=POLICY,
            update_interval_s=10.0, optimization_period_s=1000.0,
        ).start()
        client = DUSTClient(node_id=5, engine=engine, network=network, manager_node=0,
                            policy=POLICY)
        client.start()
        engine.run_until(35.0)
        client.fail()
        engine.run_until(36.0)
        client.recover()
        before = client.stats_sent
        engine.run_until(100.0)
        assert client.stats_sent - before == 7  # t ≈ 36, 46, …, 96
        assert sum(event.label == "stat-5" for _, _, event in engine._heap) == 1

    def test_recovery_within_one_period_runs_one_keepalive_loop(self):
        """``recover`` used to clear the loop's running flag without
        stopping it, so hosting again started a second loop beside the
        old one, which had not yet found the client dead."""
        topology = build_fat_tree(4)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        client = DUSTClient(node_id=5, engine=engine, network=network, manager_node=0,
                            policy=POLICY, keepalive_period_s=10.0)
        client.start()
        engine.run_until(30.0)
        client._accept_hosting(7, 5.0, 1.0, via_replica=False)
        engine.run_until(35.0)
        client.fail()
        engine.run_until(36.0)
        client.recover()
        engine.run_until(37.0)
        client._accept_hosting(7, 5.0, 1.0, via_replica=False)
        before = client.keepalives_sent
        engine.run_until(100.0)
        assert client.keepalives_sent - before == 7  # t = 37, 47, …, 97
        assert sum(event.label == "ka-5" for _, _, event in engine._heap) == 1

class TestReclaim:
    @staticmethod
    def check_reclaimed(retry_policy):
        engine, manager, clients = build_system(hot_nodes=(5,), retry_policy=retry_policy)
        engine.run_until(300.0)
        hot = clients[5]
        assert hot.offloaded_amount > 0
        # Load subsides far below C_max (hysteresis-safe).
        hot.base_load = 40.0
        engine.run_until(900.0)
        assert manager.counters.reclaims_issued >= 1
        assert hot.offloaded_amount == 0.0
        assert manager.ledger.offloaded_amount(5) == 0.0
        # Nobody still hosts for node 5.
        for client in clients.values():
            assert 5 not in client.hosted
        assert audit_system(manager, clients)

    def test_recovered_source_reclaims_workload(self):
        self.check_reclaimed(retry_policy=None)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 2(a): _maybe_reclaim sends one Reclaim to both endpoints; "
        "the reliable sender drops the second send as already in flight, so the "
        "source keeps its offload",
    )
    def test_recovered_source_reclaims_workload_with_retries(self):
        """Both endpoints must take the Reclaim under a retry policy too."""
        self.check_reclaimed(retry_policy=FAST_RETRY)


#: Busy base loads around C_max = 80: exactly relieved, an excess below
#: the 1e-9 flow tolerance, and a real excess of 5 points.
RELIEVED, BARELY, HOT = 80.0, 80.0 + 1e-12, 85.0


@pytest.fixture
def priced_sources(monkeypatch):
    """Sources of every call into the one pricing pipeline."""
    seen = []
    original = ResponseTimeModel.resistance_matrix

    def spy(self, topology, sources, destinations, with_paths=False):
        seen.append(tuple(int(s) for s in sources))
        return original(self, topology, sources, destinations, with_paths)

    monkeypatch.setattr(ResponseTimeModel, "resistance_matrix", spy)
    return seen


@pytest.mark.parametrize("solve_mode", ["centralized", "distributed"])
class TestRelievedRows:
    """A Busy node with no excess left (Cs_i = C_i - C_max within 1e-9
    of 0) can carry no flow: a round neither prices nor solves its row,
    and a round with only such nodes is no round at all."""

    @staticmethod
    def build(loads, solve_mode):
        topology = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.7, seed=3).apply(topology)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        manager = DUSTManager(
            node_id=0,
            topology=topology,
            engine=engine,
            network=network,
            policy=POLICY,
            update_interval_s=30.0,
            optimization_period_s=1e9,  # rounds are driven by the test
            solve_mode=solve_mode,
        )
        manager.start()
        clients = {}
        for node in range(1, topology.num_nodes):
            clients[node] = DUSTClient(
                node_id=node,
                engine=engine,
                network=network,
                manager_node=0,
                policy=POLICY,
                base_capacity=loads.get(node, 30.0),
            )
            clients[node].start()
        engine.run_until(45.0)  # admission + first STATs
        assert set(loads) <= set(manager.nmdb.snapshot(engine.now).busy)
        return engine, manager, clients

    def test_only_rows_with_excess_are_priced_and_solved(
        self, solve_mode, priced_sources, monkeypatch
    ):
        engine, manager, clients = self.build(
            {5: RELIEVED, 9: BARELY, 14: HOT}, solve_mode
        )
        solver = manager.distributed_engine or manager.placement_engine
        solved = []
        solve = solver.solve
        monkeypatch.setattr(
            solver, "solve", lambda problem: solved.append(problem.busy) or solve(problem)
        )

        report = manager.run_optimization_round()
        assert report is not None and report.feasible
        assert solved == [(14,)]
        assert priced_sources and set(priced_sources) == {(14,)}
        assert {a.busy for a in report.assignments} == {14}
        assert sum(a.amount_pct for a in report.assignments) == pytest.approx(5.0)

        # Once node 14 has shed its excess every Busy node is relieved.
        engine.run_until(200.0)
        assert clients[14].current_capacity(engine.now) == pytest.approx(RELIEVED)
        priced_sources.clear()
        assert manager.run_optimization_round() is None
        assert priced_sources == []
        assert solved == [(14,)]

    def test_round_with_only_relieved_busy_nodes_prices_nothing(
        self, solve_mode, priced_sources
    ):
        engine, manager, clients = self.build({5: RELIEVED, 9: BARELY}, solve_mode)
        assert manager.run_optimization_round() is None
        assert priced_sources == []
        assert manager.placement_history == []


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        outcomes = []
        for _ in range(2):
            engine, manager, clients = build_system(hot_nodes=(5, 9), seed=4)
            engine.run_until(600.0)
            outcomes.append(
                (
                    manager.counters.offloads_established,
                    tuple(
                        (o.source, o.destination, round(o.amount_pct, 9))
                        for o in manager.ledger.active
                    ),
                )
            )
        assert outcomes[0] == outcomes[1]
