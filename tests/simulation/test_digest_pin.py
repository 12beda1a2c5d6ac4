"""Digest pin: the control plane's event and message streams, fixed.

The end-to-end benchmark compares its digests only between passes of
one commit, so a change that moves an event, a message or a round
passes it unnoticed. These runs pin the same digest fields against
constants recorded while every message was still a frozen dataclass
delivered through a closure:

* the benchmark's own ``lp_churn`` control plane on a k = 4 fat-tree
  (``benchmarks/e2e/workloads.py``, imported unchanged) for six
  30 s periods plus its two quiescent ones, in both solve modes;
* the chaos acceptance scenario (10 % loss, duplication, reordering,
  a manager crash recovered by the standby) cut to a 1 200 s horizon;
* the soak under its default chaos (20 % loss, a pod partition, a
  manager crash at 120 s) on a k = 4 fat-tree for 300 s.

A change that means to move these numbers re-records them and says why.
"""

import dataclasses
import math

import pytest

from repro.simulation.chaos import default_scenario, run_scenario
from repro.simulation.soak import SoakConfig, default_soak_chaos, run_soak
from tests.tools.profile_unit import load_workloads

#: seed -> the churn digest after six periods; both solve modes reach it
#: (their Σβ agree to the last few bits).
CHURN_DIGESTS = {
    seed: {"messages_sent": sent, "rounds": 8, "offloads_established": offloads,
           "sum_beta": beta, "events": 794}
    for seed, sent, offloads, beta in (
        (0, 438, 9, 0.16395640280030688),
        (1, 440, 10, 0.17188799162095436),
    )
}


@pytest.mark.parametrize("seed", sorted(CHURN_DIGESTS))
@pytest.mark.parametrize("workload", ["lp_churn_k16", "dist_churn_k16"])
def test_churn_digest_is_pinned(workload, seed):
    churn = load_workloads().build(workload, seed, smoke=True)
    churn.setup()
    for unit in range(6):
        churn.prepare(unit)
        churn.unit(unit)
    digest = churn.finish()["digest"]
    expected = CHURN_DIGESTS[seed]
    assert digest == {**expected, "sum_beta": pytest.approx(expected["sum_beta"], rel=1e-9)}


def test_chaos_digest_is_pinned():
    base = default_scenario(0)
    scenario = dataclasses.replace(
        base, horizon_s=1200.0, chaos=dataclasses.replace(base.chaos, manager_crash_at=600.0)
    )
    result = run_scenario(scenario)
    managers = [result.manager, result.standby.manager]
    assert result.engine.events_processed == 2675
    assert result.messages_sent == 1378
    assert len(result.event_log) == 1574
    assert result.client_retransmissions == 9
    assert result.took_over_at == 620.0
    assert [(m.counters.optimization_rounds, m.counters.offloads_established) for m in managers] == [
        (9, 4), (9, 0)
    ]
    betas = [
        sum(r.objective_beta for r in m.placement_history if not math.isnan(r.objective_beta))
        for m in managers
    ]
    assert betas == [pytest.approx(0.05128269371106822, rel=1e-9), 0]


def test_soak_digest_is_pinned():
    result = run_soak(
        SoakConfig(seed=0, pods=4, horizon_s=300.0, chaos=default_soak_chaos(crash_at=120.0))
    )
    managers = [result.manager, result.standby.manager]
    assert (result.events_generated, result.events_applied) == (9271, 9271)
    assert result.network.messages_sent == 571
    assert [(m.counters.optimization_rounds, m.counters.offloads_established) for m in managers] == [
        (4, 9), (6, 0)
    ]
    assert result.took_over_at == 140.0
    assert result.engine.events_processed == 1236
    assert result.watchdog_resets == 2
    assert result.final_drift == 0.0
