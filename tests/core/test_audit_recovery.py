"""Tests for the system auditor and client crash/recover cycles."""

import pytest

from repro.core import audit_system
from repro.core.audit import AuditReport
from repro.errors import ProtocolError
from tests.core.test_manager_client import build_system


class TestAuditClean:
    def test_steady_state_audits_clean(self):
        engine, manager, clients = build_system(hot_nodes=(5, 9))
        engine.run_until(600.0)
        report = audit_system(manager, clients)
        assert report.clean, report

    def test_no_offloads_audits_clean(self):
        engine, manager, clients = build_system(hot_nodes=())
        engine.run_until(300.0)
        assert audit_system(manager, clients)

    def test_audit_clean_after_failure_recovery_settles(self):
        engine, manager, clients = build_system(hot_nodes=(5,))
        engine.run_until(300.0)
        failed = manager.ledger.active[0].destination
        clients[failed].fail()
        engine.run_until(1200.0)
        report = audit_system(manager, clients)
        assert report.clean, report

    def test_audit_clean_after_reclaim(self):
        engine, manager, clients = build_system(hot_nodes=(5,))
        engine.run_until(300.0)
        clients[5].base_load = 30.0
        engine.run_until(900.0)
        assert audit_system(manager, clients)


class TestAuditDetectsCorruption:
    def test_ghost_hosting_flagged(self):
        engine, manager, clients = build_system(hot_nodes=(5,))
        engine.run_until(600.0)
        # Corrupt: a client claims to host load nobody assigned.
        from repro.core.client import HostedWorkload

        clients[3].hosted[17] = HostedWorkload(source=17, amount_pct=5.0, data_mb=1.0)
        report = audit_system(manager, clients)
        assert not report.clean
        assert any("ghost" not in v and "ledger knows only" in v for v in report.violations)

    def test_lost_redirect_flagged(self):
        engine, manager, clients = build_system(hot_nodes=(5,))
        engine.run_until(600.0)
        source = manager.ledger.active[0].source
        clients[source].offloaded_to.clear()  # simulate lost state
        report = audit_system(manager, clients)
        assert not report.clean

    def test_report_repr(self):
        report = AuditReport(violations=())
        assert "clean" in repr(report)
        bad = AuditReport(violations=("problem",))
        assert "problem" in repr(bad)
        assert not bad


class TestClientRecovery:
    def test_recover_rejoins_and_reports(self):
        engine, manager, clients = build_system(hot_nodes=(5,))
        engine.run_until(300.0)
        victim = manager.ledger.active[0].destination
        clients[victim].fail()
        engine.run_until(600.0)
        stats_before = clients[victim].stats_sent
        clients[victim].recover()
        engine.run_until(900.0)
        assert clients[victim].alive
        assert clients[victim].stats_sent > stats_before
        # Fresh boot: no stale hosted state survived the crash.
        hosted_in_ledger = manager.ledger.hosted_amount(victim)
        assert clients[victim].hosted_amount == pytest.approx(hosted_in_ledger, abs=1e-6)

    def test_recover_when_alive_rejected(self):
        engine, manager, clients = build_system()
        engine.run_until(60.0)
        with pytest.raises(ProtocolError, match="not failed"):
            clients[3].recover()

    def test_recovered_node_can_host_again(self):
        engine, manager, clients = build_system(hot_nodes=(5,))
        engine.run_until(300.0)
        victim = manager.ledger.active[0].destination
        clients[victim].fail()
        engine.run_until(700.0)
        clients[victim].recover()
        engine.run_until(2000.0)
        assert audit_system(manager, clients).clean
