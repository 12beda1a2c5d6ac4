"""Protocol edge-case tests for DUSTClient message handling."""

import pytest

from repro.core import (
    Ack,
    DUSTClient,
    OffloadRequest,
    Reclaim,
    Redirect,
    Rep,
    Stat,
    ThresholdPolicy,
)
from repro.errors import ProtocolError
from repro.simulation import MessageNetwork, SimulationEngine
from repro.simulation.network_sim import Message
from tests.topologies import build_line

POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)


def make_client(node_id=1, base=30.0):
    topology = build_line(3)
    engine = SimulationEngine()
    network = MessageNetwork(topology, engine)
    client = DUSTClient(
        node_id=node_id, engine=engine, network=network, manager_node=0,
        policy=POLICY, base_capacity=base,
    )
    return client, engine, network


def deliver(client, payload):
    client._receive(Message(
        source=0, destination=client.node_id, payload=payload,
        sent_at=0.0, delivered_at=0.0,
    ))


class TestMisaddressedMessages:
    def test_ack_for_other_node_rejected(self):
        client, _, _ = make_client()
        with pytest.raises(ProtocolError, match="addressed to"):
            deliver(client, Ack(node_id=9, update_interval_s=60.0))

    def test_offload_request_for_other_destination(self):
        client, _, _ = make_client()
        with pytest.raises(ProtocolError, match="Offload-Request"):
            deliver(client, OffloadRequest(
                destination=9, source=2, amount_pct=1.0, data_mb=1.0, route=(2, 9),
            ))

    def test_rep_for_other_replica(self):
        client, _, _ = make_client()
        with pytest.raises(ProtocolError, match="REP"):
            deliver(client, Rep(
                replica=9, failed_destination=2, source=1, amount_pct=1.0,
                route=(1, 9),
            ))

    def test_redirect_for_other_source(self):
        client, _, _ = make_client()
        with pytest.raises(ProtocolError, match="Redirect"):
            deliver(client, Redirect(
                source=9, destination=2, amount_pct=1.0, route=(9, 2),
            ))

    def test_reclaim_for_unrelated_pair(self):
        client, _, _ = make_client()
        with pytest.raises(ProtocolError, match="Reclaim"):
            deliver(client, Reclaim(source=8, destination=9, amount_pct=1.0))

    def test_stat_is_not_a_client_message(self):
        client, _, _ = make_client()
        with pytest.raises(ProtocolError, match="cannot handle"):
            deliver(client, Stat(
                node_id=1, capacity_pct=1.0, data_mb=1.0, num_agents=1, timestamp=0.0,
            ))

    def test_non_dust_payload_rejected(self):
        client, _, _ = make_client()
        with pytest.raises(ProtocolError, match="non-DUST"):
            deliver(client, {"hello": "world"})


class TestHostingDecisions:
    def test_rejects_when_projection_exceeds_co_max(self):
        client, engine, _ = make_client(base=45.0)  # spare = 5
        deliver(client, OffloadRequest(
            destination=1, source=2, amount_pct=10.0, data_mb=1.0, route=(2, 1),
        ))
        assert client.hosted_amount == 0.0
        assert client.requests_rejected == 1

    def test_accepts_exactly_to_co_max(self):
        client, engine, _ = make_client(base=40.0)  # spare = 10
        deliver(client, OffloadRequest(
            destination=1, source=2, amount_pct=10.0, data_mb=1.0, route=(2, 1),
        ))
        assert client.hosted_amount == pytest.approx(10.0)
        assert client.current_capacity(engine.now) == pytest.approx(50.0)

    def test_repeated_hosting_accumulates(self):
        client, _, _ = make_client(base=30.0)
        for _ in range(2):
            deliver(client, OffloadRequest(
                destination=1, source=2, amount_pct=5.0, data_mb=1.0, route=(2, 1),
            ))
        assert client.hosted.get(2).amount_pct == pytest.approx(10.0)

    def test_partial_reclaim_keeps_remainder(self):
        client, _, _ = make_client(base=30.0)
        deliver(client, OffloadRequest(
            destination=1, source=2, amount_pct=10.0, data_mb=1.0, route=(2, 1),
        ))
        deliver(client, Reclaim(source=2, destination=1, amount_pct=4.0))
        assert client.hosted[2].amount_pct == pytest.approx(6.0)
        deliver(client, Reclaim(source=2, destination=1, amount_pct=6.0))
        assert 2 not in client.hosted

    def test_source_side_partial_reclaim(self):
        client, _, _ = make_client(base=90.0)
        deliver(client, Redirect(source=1, destination=2, amount_pct=10.0, route=(1, 2)))
        assert client.offloaded_amount == pytest.approx(10.0)
        deliver(client, Reclaim(source=1, destination=2, amount_pct=4.0))
        assert client.offloaded_amount == pytest.approx(6.0)


class TestCapacityClamping:
    def test_reported_capacity_clamped_to_bounds(self):
        client, engine, _ = make_client(base=95.0)
        deliver(client, Redirect(source=1, destination=2, amount_pct=90.0, route=(1, 2)))
        # 95 - 90 = 5 < x_min: clamps up to x_min.
        assert client.current_capacity(engine.now) == POLICY.x_min
        client2, engine2, _ = make_client(base=95.0)
        deliver(client2, OffloadRequest(
            destination=1, source=2, amount_pct=1.0, data_mb=1.0, route=(2, 1),
        ))
        # 95 + rejected (over CO_max) => nothing hosted.
        assert client2.current_capacity(engine2.now) == pytest.approx(95.0)

    @pytest.mark.parametrize("x_min", [10.0, 0.0, 10])
    @pytest.mark.parametrize(
        "base", [-5.0, -0.0, 0.0, 9.999, 10.0, 10.001, 55.5, 100.0, 100.5, float("nan")]
    )
    def test_clamp_returns_what_min_of_max_returns(self, base, x_min):
        # current_capacity clamps with two comparisons; the builtins'
        # form is the reference, bit for bit (NaN, signed zero, an int floor).
        policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=x_min)
        client, engine, _ = make_client()
        client.policy, client.base_load = policy, base
        got = client.current_capacity(engine.now)
        want = float(min(100.0, max(policy.x_min, float(base))))
        assert type(got) is float
        assert repr(got) == repr(want)

    def test_callable_base_capacity(self):
        client, engine, _ = make_client(base=30.0)
        client.base_load = lambda t: 20.0 + t / 100.0
        assert client.base_capacity(1000.0) == pytest.approx(30.0)
        assert client.current_capacity(0.0) == pytest.approx(20.0)


class TestDeadClientSilent:
    def test_failed_client_ignores_messages(self):
        client, _, _ = make_client(base=30.0)
        client.network.register(client.node_id, client._receive)
        client.alive = False
        deliver(client, OffloadRequest(
            destination=1, source=2, amount_pct=5.0, data_mb=1.0, route=(2, 1),
        ))
        assert client.hosted_amount == 0.0
