"""Tests for the round planner: who takes part in a round, and why not."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OffloadCapable, PlacementEngine, RowState, Stat, ThresholdPolicy
from repro.core.nmdb import NMDB
from repro.core.placement import Exclusion, RoundView, plan_round
from repro.errors import PlacementError
from repro.lp import SolveStatus
from repro.topology import CapacityModel, LinkUtilizationModel, build_fat_tree
from tests.core.test_manager_client import build_system
from tests.topologies import build_line

POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
NOW = 100.0

#: Node 0 neutral, 1 and 3 Busy, 2 and 4 candidates, 5 neutral.
BASE_LOADS = (60.0, 90.0, 30.0, 85.0, 20.0, 60.0)


def make_view(
    loads=BASE_LOADS,
    topology=None,
    participating=None,
    last_stat=None,
    manager_node=0,
    max_hops=None,
    **fields,
):
    topology = topology or build_line(len(loads))
    nmdb = NMDB(topology, POLICY)
    for node, capable in enumerate(participating or ()):
        nmdb.register_capability(
            OffloadCapable(node_id=node, capable=capable, c_max=80.0, co_max=50.0)
        )
    for node, load in enumerate(loads):
        nmdb.apply_stat(
            Stat(node_id=node, capacity_pct=load, data_mb=node + 1.0, num_agents=0, timestamp=NOW)
        )
    view = dict(
        topology=topology,
        snapshot=nmdb.snapshot(NOW),
        last_stat=np.full(len(loads), NOW) if last_stat is None else np.asarray(last_stat, float),
        now=NOW,
        stale_after_s=50.0,
        manager_node=manager_node,
        max_hops=max_hops,
        quarantined=frozenset(),
        in_flight=frozenset(),
        unconfirmed=frozenset(),
        fresh_after={},
        offloaded={},
        hosted={},
    )
    view.update(fields)
    return RoundView(**view)


def plan_key(plan):
    """Everything a plan decides, in a form ``==`` can compare."""
    problem = plan.problem
    if problem is None:
        return dict(plan.excluded), None
    return dict(plan.excluded), (
        problem.busy,
        problem.candidates,
        problem.cs.tolist(),
        problem.cd.tolist(),
        problem.data_mb.tolist(),
        problem.max_hops,
    )


class TestPlanRound:
    def test_every_busy_node_and_candidate_takes_part(self):
        plan = plan_round(make_view(), POLICY, "incremental")
        assert plan.excluded == {}
        assert plan.problem.busy == (1, 3)
        assert plan.problem.candidates == (2, 4)
        np.testing.assert_allclose(plan.problem.cs, [10.0, 5.0])
        np.testing.assert_allclose(plan.problem.cd, [20.0, 30.0])
        np.testing.assert_allclose(plan.problem.data_mb, [2.0, 4.0])

    def test_excess_and_spare_from_nmdb(self):
        """Cs_i = C_i − C_max per Busy node and Cd_j = CO_max − C_j per
        candidate, in node order."""
        view = make_view(loads=(90.0, 30.0, 60.0, 95.0), manager_node=2)
        plan = plan_round(view, POLICY, "incremental")
        np.testing.assert_allclose(plan.problem.cs, [10.0, 15.0])
        np.testing.assert_allclose(plan.problem.cd, [20.0])

    @pytest.mark.parametrize(
        "fields, node, reason",
        [
            (dict(manager_node=2), 2, Exclusion.MANAGER),
            (dict(last_stat=[NOW, NOW, NOW, NOW, 0.0, NOW]), 4, Exclusion.STALE),
            (dict(loads=(60.0, 90.0, 30.0, 80.0, 20.0, 60.0)), 3, Exclusion.RELIEVED),
            (dict(in_flight=frozenset({(1, 5)})), 1, Exclusion.IN_FLIGHT),
            (dict(in_flight=frozenset({(5, 4)})), 4, Exclusion.IN_FLIGHT),
            (dict(quarantined=frozenset({2, 3})), 2, Exclusion.QUARANTINED),
            (dict(unconfirmed=frozenset({3, 4})), 3, Exclusion.UNCONFIRMED_REDIRECT),
            (dict(fresh_after={1: NOW + 0.5, 2: NOW}), 1, Exclusion.NOT_REPORTED),
        ],
        ids=lambda value: value.value if isinstance(value, Exclusion) else None,
    )
    def test_one_rule_excludes_one_node(self, fields, node, reason):
        plan = plan_round(make_view(**fields), POLICY, "incremental")
        assert plan.excluded == {node: reason}
        assert node not in plan.problem.busy + plan.problem.candidates

    def test_reasons_compare_as_strings(self):
        plan = plan_round(make_view(manager_node=2), POLICY, "incremental")
        assert plan.excluded == {2: "manager"}

    def test_first_matching_rule_is_recorded(self):
        view = make_view(
            last_stat=[NOW, 0.0, NOW, NOW, NOW, NOW],
            in_flight=frozenset({(1, 2)}),
            unconfirmed=frozenset({1}),
        )
        plan = plan_round(view, POLICY, "incremental")
        assert plan.excluded == {1: Exclusion.STALE, 2: Exclusion.IN_FLIGHT}

    def test_non_participating_nodes_are_not_roles(self):
        view = make_view(participating=[True, False, True, True, False, True])
        plan = plan_round(view, POLICY, "incremental")
        assert plan.excluded == {}
        assert plan.problem.busy == (3,)
        assert plan.problem.candidates == (2,)

    def test_no_busy_node_left_means_no_problem(self):
        plan = plan_round(make_view(unconfirmed=frozenset({1, 3})), POLICY, "incremental")
        assert plan.problem is None
        assert plan.excluded == {
            1: Exclusion.UNCONFIRMED_REDIRECT,
            3: Exclusion.UNCONFIRMED_REDIRECT,
        }

    def test_unknown_mode_rejected(self):
        with pytest.raises(PlacementError, match="round mode"):
            plan_round(make_view(), POLICY, "warm")

    def test_plan_from_sampled_nmdb_solves(self):
        topo = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.8, seed=0).apply(topo)
        caps = CapacityModel(x_min=10.0, seed=1).sample(topo.num_nodes)
        manager = int(np.flatnonzero((caps > POLICY.co_max) & (caps < POLICY.c_max))[0])
        view = make_view(loads=tuple(caps), topology=topo, manager_node=manager, max_hops=6)
        plan = plan_round(view, POLICY, "incremental")
        assert list(plan.problem.busy) == view.snapshot.busy
        assert plan.problem.max_hops == 6
        report = PlacementEngine().solve(plan.problem)
        assert report.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)


class TestFromScratch:
    def test_ledger_is_torn_down(self):
        """Base load = reported + offloaded − hosted. Node 3 reports
        exactly C_max after giving 5 away (relieved incrementally, Busy
        from scratch); node 5 reports 55 while hosting 10 (neutral
        incrementally, a candidate from scratch)."""
        view = make_view(
            loads=(60.0, 80.0, 40.0, 80.0, 20.0, 55.0),
            offloaded={1: 10.0, 3: 5.0},
            hosted={2: 5.0, 5: 10.0},
        )
        incremental = plan_round(view, POLICY, "incremental")
        assert incremental.problem is None
        assert incremental.excluded == {1: Exclusion.RELIEVED, 3: Exclusion.RELIEVED}
        plan = plan_round(view, POLICY, "from-scratch")
        assert plan.excluded == {}
        assert plan.problem.busy == (1, 3)
        assert plan.problem.candidates == (2, 4, 5)
        np.testing.assert_allclose(plan.problem.cs, [90.0 - 80.0, 85.0 - 80.0])
        np.testing.assert_allclose(plan.problem.cd, [50.0 - 35.0, 50.0 - 20.0, 50.0 - 45.0])

    def test_only_manager_stale_and_relieved_rules_apply(self):
        view = make_view(
            last_stat=[NOW, NOW, NOW, NOW, NOW, 0.0],
            manager_node=4,
            loads=(60.0, 90.0, 30.0, 80.0, 20.0, 40.0),
            in_flight=frozenset({(1, 2)}),
            quarantined=frozenset({2}),
            unconfirmed=frozenset({1}),
            fresh_after={1: NOW + 1.0, 2: NOW + 1.0},
        )
        plan = plan_round(view, POLICY, "from-scratch")
        assert plan.excluded == {
            3: Exclusion.RELIEVED,
            4: Exclusion.MANAGER,
            5: Exclusion.STALE,
        }
        assert plan.problem.busy == (1,)
        assert plan.problem.candidates == (2,)


class TestRoundView:
    def test_stale_nodes(self):
        nmdb = NMDB(build_line(4), POLICY)
        for node, timestamp in ((0, 180.0), (2, 140.0), (3, 149.0)):
            nmdb.apply_stat(
                Stat(node_id=node, capacity_pct=1.0, data_mb=1.0, num_agents=1,
                     timestamp=timestamp)
            )
        view = make_view(
            loads=(1.0, 1.0, 1.0, 1.0),
            last_stat=nmdb.last_stat_times(),
            now=200.0,
            stale_after_s=50.0,
        )
        # Node 0 reported 20 s ago, node 2 60 s ago, node 3 51 s ago and
        # node 1 never: the window is 50 s.
        assert view.stale_nodes() == {1, 2, 3}

    def test_manager_view_reads_the_ledger(self):
        engine, manager, _ = build_system(hot_nodes=(5, 6))
        engine.run_until(300.0)
        rows = manager.ledger.active
        assert rows
        view = manager.round_view()
        assert view.now == engine.now and view.manager_node == manager.node_id
        np.testing.assert_array_equal(view.last_stat, manager.nmdb.last_stat_times())
        assert view.in_flight == frozenset(
            row.pair for row in manager.ledger.rows if row.state is RowState.REQUESTED
        )
        assert view.unconfirmed == frozenset(
            row.source for row in manager.ledger.rows if row.redirect_id is not None
        )
        for node in {row.source for row in rows}:
            assert view.offloaded[node] == pytest.approx(manager.ledger.offloaded_amount(node))
        for node in {row.destination for row in rows}:
            assert view.hosted[node] == pytest.approx(
                sum(row.amount_pct for row in rows if row.destination == node)
            )
        for row in rows:
            for endpoint in (row.source, row.destination):
                assert view.fresh_after[endpoint] >= row.established_at
        assert set(view.offloaded) == {row.source for row in rows}
        assert set(view.hosted) == {row.destination for row in rows}


_LOADS = st.lists(st.floats(0.0, 100.0), min_size=6, max_size=6)
_NODE = st.integers(0, 5)
_NODES = st.frozensets(_NODE)
_TIMES = st.floats(0.0, 2 * NOW)
_AMOUNTS = st.dictionaries(_NODE, st.floats(0.0, 30.0), max_size=3)


@given(
    loads=_LOADS,
    participating=st.lists(st.booleans(), min_size=6, max_size=6),
    last_stat=st.lists(st.one_of(_TIMES, st.just(-np.inf)), min_size=6, max_size=6),
    manager_node=_NODE,
    quarantined=_NODES,
    in_flight=st.frozensets(st.tuples(_NODE, _NODE), max_size=3),
    unconfirmed=_NODES,
    fresh_after=st.dictionaries(_NODE, _TIMES, max_size=3),
    offloaded=_AMOUNTS,
    hosted=_AMOUNTS,
    mode=st.sampled_from(["incremental", "from-scratch"]),
)
@settings(max_examples=60, deadline=None)
def test_plan_round_is_pure(mode, **fields):
    view = make_view(**fields)
    before = copy.deepcopy(view)
    first = plan_round(view, POLICY, mode)
    second = plan_round(view, POLICY, mode)
    assert plan_key(first) == plan_key(second)
    for name in ("quarantined", "in_flight", "unconfirmed", "fresh_after", "offloaded", "hosted"):
        assert getattr(view, name) == getattr(before, name)
    np.testing.assert_array_equal(view.last_stat, before.last_stat)
    for name in ("capacities", "data_mb", "participating"):
        np.testing.assert_array_equal(getattr(view.snapshot, name), getattr(before.snapshot, name))
    assert view.snapshot.roles == before.snapshot.roles
    # Every Busy node or candidate is either placed or has one reason.
    placed = () if first.problem is None else first.problem.busy + first.problem.candidates
    assert not set(placed) & set(first.excluded)
