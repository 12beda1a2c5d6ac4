"""Chaos harness: lossy-run convergence, determinism, acceptance."""

import json
from types import SimpleNamespace

import pytest

from repro.simulation import (
    ChaosScenario,
    FaultConfig,
    FaultSchedule,
    default_scenario,
    evaluate_scenario,
    run_scenario,
)
from repro.simulation.chaos import production_loss_audit
from repro.topology.fattree import build_fat_tree
from repro.topology.links import LinkUtilizationModel

#: The satellite property: up to 20% drop plus duplication/reordering.
LOSSY = FaultConfig(
    drop_probability=0.20,
    duplicate_probability=0.10,
    jitter_s=0.25,
    reorder_probability=0.20,
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lossy_run_converges_to_reliable_ledger(seed):
    """Dropping up to 20% of control messages (with duplication and
    reordering) must still converge to the exact OffloadLedger the
    fault-free run produces from the same seed."""
    scenario = ChaosScenario(seed=seed, horizon_s=1800.0, chaos=FaultSchedule(faults=LOSSY))
    comparison = evaluate_scenario(scenario)
    assert comparison.converged
    assert comparison.divergence == 0.0
    assert comparison.faulty.signature == comparison.reference.signature
    assert comparison.faulty.signature  # the scenario actually offloads
    # The faults were real: messages died and the protocol paid for it.
    assert comparison.faulty.faults_dropped > 0
    assert comparison.faulty.duplicates_injected > 0


def test_same_seed_is_bit_identical():
    """A chaos run is a pure function of (scenario, seed): the fault
    event log, checkpoints and final signature all replay exactly."""
    scenario = default_scenario(seed=1)
    a = run_scenario(scenario)
    b = run_scenario(scenario)
    assert a.event_log == b.event_log
    assert a.checkpoints == b.checkpoints
    assert a.signature == b.signature
    assert a.messages_sent == b.messages_sent
    assert a.took_over_at == b.took_over_at


def test_different_seeds_diverge():
    log0 = run_scenario(default_scenario(seed=0)).event_log
    log1 = run_scenario(default_scenario(seed=1)).event_log
    assert log0 != log1


class TestDefaultScenarioAcceptance:
    """The PR's acceptance scenario: 10% drop, dup+reorder, one mid-run
    manager crash — reconverges with zero production-class loss."""

    @pytest.fixture(scope="class")
    def comparison(self):
        return evaluate_scenario(default_scenario(seed=0))

    def test_reconverges_to_fault_free_placement(self, comparison):
        assert comparison.converged
        assert comparison.divergence == 0.0

    def test_failover_happened_and_recovery_is_reported(self, comparison):
        faulty = comparison.faulty
        crash_at = faulty.scenario.chaos.manager_crash_at
        assert faulty.took_over_at is not None
        assert faulty.took_over_at > crash_at
        assert comparison.recovery_s is not None
        promoted = faulty.standby.manager
        assert promoted is not None and promoted is not faulty.manager
        assert promoted.counters.resync_rounds == 1

    def test_zero_production_loss(self, comparison):
        qos = comparison.faulty.qos
        assert qos.offloads_audited > 0
        assert qos.production_loss_mb == 0.0
        assert qos.monitoring_delivered_mb > 0.0

    def test_overhead_is_reported(self, comparison):
        # Retransmissions happened; the overhead metric is finite.
        counters = comparison.faulty.counters
        total_retx = counters.retransmissions + comparison.faulty.client_retransmissions
        assert total_retx > 0
        assert comparison.overhead_pct == comparison.overhead_pct  # not NaN


class TestZeroFaultTransparency:
    """With zero faults the hardened stack must be invisible: no
    retransmissions, no fault events, no reliability counter activity."""

    def test_reference_run_is_clean(self):
        result = run_scenario(default_scenario(seed=0).reference())
        assert result.event_log == ()
        assert result.faults_dropped == 0
        assert result.duplicates_injected == 0
        assert result.counters.retransmissions == 0
        assert result.counters.sends_gave_up == 0
        assert result.counters.duplicates_ignored == 0
        assert result.counters.stale_stats_dropped == 0
        assert result.client_retransmissions == 0
        assert result.client_duplicates_ignored == 0
        assert result.took_over_at is None


class TestScenarioValidation:
    def test_crash_outside_horizon_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="inside the horizon"):
            ChaosScenario(horizon_s=100.0, chaos=FaultSchedule(manager_crash_at=200.0))

    def test_crash_without_standby_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="needs a standby"):
            ChaosScenario(standby_node=None, chaos=FaultSchedule(manager_crash_at=100.0))

    def test_reference_strips_all_disruptions(self):
        reference = default_scenario(seed=3).reference()
        assert reference.chaos is None
        assert reference.seed == 3  # same wiring, same seed


class TestProductionLossAudit:
    """A route hop the fabric has no link for is skipped; any other
    error from the link lookup surfaces instead of shrinking the audit."""

    @pytest.fixture()
    def fabric(self):
        topology = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.7, seed=0).apply(topology)
        us, vs = topology.edge_endpoint_arrays()
        u, v = int(us[0]), int(vs[0])
        w = next(
            n for n in range(topology.num_nodes) if n not in (u, v) and not topology.has_edge(v, n)
        )
        return topology, (u, v, w)

    @staticmethod
    def audit(topology, route):
        offload = SimpleNamespace(
            source=route[0], destination=route[-1], route=route, amount_pct=40.0
        )
        manager = SimpleNamespace(ledger=SimpleNamespace(active=[offload]))
        return production_loss_audit(manager, topology, clients={})

    def test_elided_hop_audits_the_remaining_links(self, fabric):
        topology, (u, v, w) = fabric
        elided = self.audit(topology, (u, v, w))
        assert elided.offloads_audited == 1
        assert elided == self.audit(topology, (u, v))

    def test_other_lookup_errors_propagate(self, fabric, monkeypatch):
        topology, route = fabric

        def broken(u, v):
            raise RuntimeError("broken link view")

        monkeypatch.setattr(topology, "link_between", broken)
        with pytest.raises(RuntimeError, match="broken link view"):
            self.audit(topology, route)


def test_resilience_experiment_writes_artifact(tmp_path):
    from repro.experiments.extra_resilience import run

    artifact = tmp_path / "resilience.json"
    result = run(seeds=(0,), horizon_s=900.0, json_path=str(artifact))
    assert result.experiment_id == "resilience"
    assert len(result.rows) == 1
    payload = json.loads(artifact.read_text())
    (record,) = payload["runs"]
    assert record["converged"] is True
    assert record["production_loss_mb"] == 0.0
    assert {"recovery_time_s", "message_overhead_pct", "counters",
            "manager_took_over_at"} <= set(record)
    # Per-run counters use the metric-catalog vocabulary, nothing else
    # (regression guard for the retransmits/retransmissions drift).
    assert {"transport.retransmissions", "network.messages_dropped",
            "network.faults_dropped",
            "network.duplicates_injected"} <= set(record["counters"])
    assert not any("retransmit" in key for key in record)
    # The artifact carries the observability bundle: registry snapshot
    # with catalog metrics, span summary, profile numbers.
    obs = payload["observability"]
    assert {"metrics", "spans", "profile"} <= set(obs)
    assert "transport.retransmissions" in obs["metrics"]["metrics"]
