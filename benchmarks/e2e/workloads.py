"""The four benchmark workloads.

Every workload is a closed loop with one caller: the pass process runs
``prepare(u)`` (input generation, untimed), ``unit(u)`` (the timed
piece of work) and ``after(u)`` (output checks, untimed) for each unit
in turn, then ``finish()``. Inputs derive from ``seed`` only, time is
the simulated clock, and every engine is built with the explicit
``workers=1`` — the library default forks a process pool per pricing
call, which on a shared 2-core box measures the scheduler.

Layer functions that the span recorder wraps are called through their
module (``fattree.build_fat_tree``), never through a name bound at
import, so a traced pass sees them.
"""

from __future__ import annotations

import gc
import math
import os
from typing import Dict, List, Optional

import numpy as np

class CheckFailed(Exception):
    """A unit's output check does not hold; the unit counts as failed."""


def _limbo_and_excess(clients: dict, policy, now: float) -> Dict[str, float]:
    """Client ground truth behind ``unserved_pct``.

    ``above`` — load still above ``c_max`` on alive clients; ``limbo``
    — load a source records as offloaded that its destination does not
    host (nobody monitors it); ``shed`` — everything sources record as
    offloaded. Unserved share = (above + limbo) / (above + shed).
    """
    above = limbo = shed = 0.0
    for source, client in clients.items():
        if not client.alive:
            continue
        above += max(0.0, client.current_capacity(now) - policy.c_max)
        for destination, amount in client.offloaded_to.items():
            shed += amount
            host = clients.get(destination)
            hosted = host.hosted.get(source) if host is not None and host.alive else None
            limbo += max(0.0, amount - (hosted.amount_pct if hosted is not None else 0.0))
    return {"above": above, "limbo": limbo, "shed": shed}


def _transport_counts(counters, clients, network) -> Dict[str, float]:
    """Reliability-layer and fabric tallies of one manager + its clients."""
    return {
        "retransmissions": counters.retransmissions + sum(c.retransmissions for c in clients),
        "gave_up": counters.sends_gave_up,
        "duplicates_ignored": counters.duplicates_ignored
        + sum(c.duplicates_ignored for c in clients),
        "messages_sent": network.messages_sent,
        "messages_dropped": network.messages_dropped,
        "duplicates_injected": getattr(network, "duplicates_injected", 0),
    }


def _unserved_pct(parts: Dict[str, float]) -> float:
    offered = parts["above"] + parts["shed"]
    return 100.0 * (parts["above"] + parts["limbo"]) / offered if offered > 0 else 0.0


class ChurnWorkload:
    """Live manager + one client per switch of a k-ary fat-tree.

    The hot share is held at exactly 8 % of the clients, spread over
    the core/aggregation/edge layers in proportion: each period the
    driver resamples 10 % of the nodes' base load — in every layer one
    hot node cools and one cool node heats — and redraws 2 % of the link
    utilizations. A binomial hot set would move the number and kind of
    busy rows, and with them the unit time, by ±20 % between seeds.
    """

    PERIOD_S = 30.0
    QUIESCENT_PERIODS = 2

    def __init__(self, seed: int, pods: int, solve_mode: str) -> None:
        self.seed = seed
        self.pods = pods
        self.solve_mode = solve_mode

    def setup(self) -> None:
        from repro.core.client import DUSTClient
        from repro.core.failover import SnapshotStore
        from repro.core.manager import DUSTManager
        from repro.core.messages import RetryPolicy
        from repro.core.thresholds import ThresholdPolicy
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.network_sim import MessageNetwork
        from repro.topology import fattree
        from repro.topology.links import LinkUtilizationModel

        self.topology = fattree.build_fat_tree(self.pods)
        LinkUtilizationModel(0.2, 0.7, seed=self.seed).apply(self.topology)
        self.engine = SimulationEngine()
        self.network = MessageNetwork(self.topology, self.engine)
        self.policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
        retry = RetryPolicy(base_timeout_s=2.0, max_retries=5, jitter=0.5)
        self.manager = DUSTManager(
            node_id=0,
            topology=self.topology,
            engine=self.engine,
            network=self.network,
            policy=self.policy,
            update_interval_s=self.PERIOD_S / 2.0,
            optimization_period_s=self.PERIOD_S,
            max_hops=4,
            workers=1,
            retry_policy=retry,
            snapshot_store=SnapshotStore(),
            transport_seed=self.seed,
            solve_mode=self.solve_mode,
        )
        self.manager.start()

        self.rng = np.random.default_rng(self.seed)
        n = self.topology.num_nodes
        self.client_ids = np.arange(1, n)
        clients = self.client_ids.size
        # One stratum per switch layer; the hot nodes are spread over
        # the strata in proportion (largest remainder).
        by_kind: Dict[object, List[int]] = {}
        for node in self.client_ids.tolist():
            by_kind.setdefault(self.topology.node(node).kind, []).append(node)
        self.strata = [np.array(nodes) for nodes in by_kind.values()]
        hot_total = max(1, round(0.08 * clients))
        shares = [hot_total * stratum.size / clients for stratum in self.strata]
        hot_counts = [int(share) for share in shares]
        by_remainder = sorted(
            range(len(shares)), key=lambda i: shares[i] - hot_counts[i], reverse=True
        )
        for i in by_remainder[: hot_total - sum(hot_counts)]:
            hot_counts[i] += 1
        self.loads = self.rng.uniform(10.0, 45.0, size=n)
        self.is_hot = np.zeros(n, dtype=bool)
        for stratum, count in zip(self.strata, hot_counts):
            hot = self.rng.choice(stratum, size=count, replace=False)
            self.is_hot[hot] = True
            self.loads[hot] = self.rng.uniform(85.0, 95.0, size=count)
        self.resample = max(2, round(0.10 * clients))
        self.link_drift = max(1, round(0.02 * self.topology.num_edges))

        loads = self.loads
        self.clients = {}
        for node in self.client_ids.tolist():
            client = DUSTClient(
                node_id=node,
                engine=self.engine,
                network=self.network,
                manager_node=0,
                policy=self.policy,
                base_capacity=(lambda _t, i=node: loads[i]),
                retry_policy=retry,
                transport_seed=self.seed,
            )
            client.start()
            self.clients[node] = client
        self.now = 0.0

    def prepare(self, u: int) -> None:
        rng = self.rng
        swapped: List[int] = []
        for stratum in self.strata:
            hot_ids = stratum[self.is_hot[stratum]]
            if hot_ids.size == 0:
                continue
            cooled = int(rng.choice(hot_ids))
            heated = int(rng.choice(stratum[~self.is_hot[stratum]]))
            self.is_hot[cooled], self.is_hot[heated] = False, True
            self.loads[cooled] = rng.uniform(10.0, 45.0)
            self.loads[heated] = rng.uniform(85.0, 95.0)
            swapped += [cooled, heated]
        ids = self.client_ids
        cool_ids = np.setdiff1d(ids[~self.is_hot[ids]], swapped)
        recooled = rng.choice(cool_ids, size=max(0, self.resample - len(swapped)), replace=False)
        self.loads[recooled] = rng.uniform(10.0, 45.0, size=recooled.size)
        for edge in rng.choice(self.topology.num_edges, size=self.link_drift, replace=False):
            self.topology.set_utilization(int(edge), float(rng.uniform(0.2, 0.7)))

    def unit(self, u: int) -> None:
        self.now += self.PERIOD_S
        self.engine.run_until(self.now)

    def start_measuring(self) -> None:
        pass

    def after(self, u: int) -> None:
        pass

    def finish(self) -> dict:
        from repro.core.audit import audit_system

        self.now += self.QUIESCENT_PERIODS * self.PERIOD_S
        self.engine.run_until(self.now)
        counters = self.manager.refresh_transport_counters()
        history = self.manager.placement_history
        betas = [None if math.isnan(r.objective_beta) else r.objective_beta for r in history]
        parts = _limbo_and_excess(self.clients, self.policy, self.engine.now)
        return {
            "digest": {
                "messages_sent": self.network.messages_sent,
                "rounds": counters.optimization_rounds,
                "offloads_established": counters.offloads_established,
                "sum_beta": float(sum(b for b in betas if b is not None)),
                "events": self.engine.events_processed,
            },
            # Per round: the instance (total excess, total spare) and its
            # optimum; the distributed/centralized comparison needs both.
            "rounds": [[r.total_excess, r.total_spare, b] for r, b in zip(history, betas)],
            "unserved_pct": _unserved_pct(parts),
            "extras": {
                **parts,
                **_transport_counts(counters, self.clients.values(), self.network),
                "audit_violations": len(audit_system(self.manager, self.clients).violations),
            },
        }


class Fig11Workload:
    """The Fig. 11 inner loop against the calls ``scalability_point`` makes.

    States come from ``IterationSampler`` streams and only those whose
    busy/candidate counts sit within ±1 of their expectation are used,
    so every unit prices a similar number of pairs; unfiltered, the
    unit time's spread is 30 % and the run median moves 10 % with the
    seed.
    """

    MAX_HOPS = 5
    DRAWS_PER_UNIT = 512

    def __init__(self, seed: int, pods: int) -> None:
        self.seed = seed
        self.pods = pods

    def setup(self) -> None:
        from repro.core.placement import PlacementEngine, PlacementSession
        from repro.core.thresholds import ThresholdPolicy
        from repro.routing.engine import TrminEngine
        from repro.routing.response_time import PathEngine, ResponseTimeModel
        from repro.topology import fattree

        self.policy = ThresholdPolicy(c_max=80.0, co_max=35.0, x_min=10.0)
        self.topology = fattree.build_fat_tree(self.pods)
        self.session = PlacementSession(
            engine=PlacementEngine(
                response_model=ResponseTimeModel(
                    engine=PathEngine.ENUMERATION, max_hops=self.MAX_HOPS
                ),
                with_routes=False,
                workers=1,
            )
        )
        self.heuristic_trmin = TrminEngine(
            ResponseTimeModel(engine=PathEngine.DP), mode="matrix", workers=1
        )
        n = self.topology.num_nodes
        span = 100.0 - self.policy.x_min
        self.busy_target = round(n * (100.0 - self.policy.c_max) / span)
        self.cand_target = round(n * (self.policy.co_max - self.policy.x_min) / span)
        self.capacities: Optional[np.ndarray] = None
        self.statuses: List[str] = []
        self.hfrs: List[float] = []
        self.objectives: List[float] = []

    def prepare(self, u: int) -> None:
        from repro.core.roles import classify_network
        from repro.experiments.common import IterationSampler
        from repro.simulation.random import spawn_seeds

        # Child u of the master seed: unit u's stream does not depend on
        # how many states earlier units had to draw.
        sampler = IterationSampler(
            self.topology, x_min=self.policy.x_min, seed=spawn_seeds(self.seed, u + 1)[u]
        )
        for _, capacities in sampler.states(self.DRAWS_PER_UNIT):
            roles = classify_network(capacities, self.policy)
            if (
                abs(len(roles.busy) - self.busy_target) <= 1
                and abs(len(roles.candidates) - self.cand_target) <= 1
            ):
                self.capacities = capacities
                return
        raise CheckFailed(f"no state in the composition band for unit {u}")

    def unit(self, u: int) -> None:
        from repro.core import heuristic
        from repro.core.placement import PlacementProblem
        from repro.core.roles import classify_network

        policy, capacities = self.policy, self.capacities
        roles = classify_network(capacities, policy)
        busy, candidates = roles.busy, roles.candidates
        problem = PlacementProblem(
            topology=self.topology,
            busy=tuple(busy),
            candidates=tuple(candidates),
            cs=np.array([policy.excess_load(capacities[b]) for b in busy]),
            cd=np.array([policy.spare_capacity(capacities[c]) for c in candidates]),
            data_mb=np.full(len(busy), 10.0),
            max_hops=self.MAX_HOPS,
        )
        self.heuristic_report = heuristic.solve_heuristic(
            problem, trmin_engine=self.heuristic_trmin
        )
        self.report = self.session.solve(problem)

    def after(self, u: int) -> None:
        status = self.report.status.name
        hfr = self.heuristic_report.hfr_pct
        self.statuses.append(status)
        self.hfrs.append(hfr)
        if self.report.feasible:
            self.objectives.append(self.report.objective_beta)
        if status not in ("OPTIMAL", "INFEASIBLE"):
            raise CheckFailed(f"unit {u}: LP status {status}")
        if not 0.0 <= hfr <= 100.0:
            raise CheckFailed(f"unit {u}: HFR {hfr} outside [0, 100]")

    def start_measuring(self) -> None:
        self.statuses.clear()
        self.hfrs.clear()
        self.objectives.clear()

    def finish(self) -> dict:
        mean_hfr = float(np.mean(self.hfrs)) if self.hfrs else 0.0
        return {
            "digest": {
                "statuses": "".join(s[0] for s in self.statuses),
                "infeasible": self.statuses.count("INFEASIBLE"),
                "mean_hfr": mean_hfr,
                "sum_beta": float(sum(self.objectives)),
            },
            "unserved_pct": mean_hfr,
            "extras": {},
        }


class SoakWorkload:
    """One seeded soak run per unit under the composed default chaos."""

    QUIESCENT_S = 60.0

    def __init__(self, seed: int, pods: int, horizon_s: float) -> None:
        self.seed = seed
        self.pods = pods
        self.horizon_s = horizon_s

    def setup(self) -> None:
        # run_soak takes no workers argument; this is the one place the
        # benchmark has to use the environment switch instead.
        os.environ["REPRO_WORKERS"] = "1"
        from repro.simulation import soak

        self.soak = soak
        self.rows: List[list] = []
        self.parts = {"above": 0.0, "limbo": 0.0, "shed": 0.0}
        self.extras: Dict[str, float] = {}

    def prepare(self, u: int) -> None:
        # Collect the previous run's client/engine cycles now. Left to a
        # collection inside the next run they can fire while
        # repro.obs.mirror_counters holds its non-reentrant lock, and its
        # own weakref finalizer then deadlocks the process (README, findings).
        gc.collect()
        soak = self.soak
        self.config = soak.SoakConfig(
            seed=self.seed + u,
            pods=self.pods,
            horizon_s=self.horizon_s,
            chaos=soak.default_soak_chaos(crash_at=0.4 * self.horizon_s),
        )

    def unit(self, u: int) -> None:
        self.result = self.soak.run_soak(self.config)

    def start_measuring(self) -> None:
        self.rows.clear()
        self.parts = dict.fromkeys(self.parts, 0.0)
        self.extras.clear()

    def after(self, u: int) -> None:
        from repro.core.audit import audit_system

        r = self.result
        self.result = None
        counters = r.counters
        self.rows.append(
            [
                r.events_generated,
                r.events_applied,
                r.network.messages_sent,
                counters.optimization_rounds,
                counters.offloads_established,
                r.took_over_at,
            ]
        )
        add = self.extras
        for key, value in (
            *_transport_counts(counters, r.clients.values(), r.network).items(),
            ("soak_events_applied", r.events_applied),
            ("soak_wall_s", r.wall_seconds),
            ("soak_latency_p99_sim_s", r.latency_p99_s),
            ("soak_watchdog_resets", r.watchdog_resets),
            ("soak_final_drift", r.final_drift),
            ("soak_takeover_gap_sim_s", (r.took_over_at or 0.0) - r.config.chaos.manager_crash_at),
            ("engine_events", r.engine.events_processed),
        ):
            add[key] = add.get(key, 0.0) + value
        add["soak_ladder_max_level"] = max(
            add.get("soak_ladder_max_level", 0), int(r.ladder_max_level)
        )

        shed_or_rejected = sum(r.rejected_by_tier.values()) + sum(r.shed_by_tier.values())
        if r.production_losses != 0 or r.qos.production_loss_mb != 0:
            raise CheckFailed(f"unit {u}: production-class loss")
        if r.took_over_at is None:
            raise CheckFailed(f"unit {u}: standby never took over")
        if r.events_generated != r.events_applied + shed_or_rejected:
            raise CheckFailed(f"unit {u}: generated events unaccounted for")

        # Ground truth after two quiescent periods: the streams stop at
        # the horizon, retransmissions and Receipts drain.
        r.engine.run_until(self.horizon_s + self.QUIESCENT_S)
        manager = r.standby.manager if r.standby.manager is not None else r.manager
        for key, value in _limbo_and_excess(r.clients, r.config.policy, r.engine.now).items():
            self.parts[key] += value
        add["audit_violations"] = add.get("audit_violations", 0) + len(
            audit_system(manager, r.clients).violations
        )

    def finish(self) -> dict:
        extras = dict(self.extras)
        for key in ("soak_latency_p99_sim_s", "soak_final_drift", "soak_takeover_gap_sim_s"):
            if self.rows:
                extras[key] = extras.get(key, 0.0) / len(self.rows)
        extras.update(self.parts)
        return {
            "digest": {"units": self.rows},
            "unserved_pct": _unserved_pct(self.parts),
            "extras": extras,
        }


def build(name: str, seed: int, smoke: bool):
    """The workload object for ``name`` (``smoke`` shrinks the fabric)."""
    if name == "lp_churn_k16":
        return ChurnWorkload(seed, 4 if smoke else 16, "centralized")
    if name == "dist_churn_k16":
        return ChurnWorkload(seed, 4 if smoke else 16, "distributed")
    if name == "fig11_sweep_k8":
        return Fig11Workload(seed, 4 if smoke else 8)
    if name == "soak_chaos_k8":
        return SoakWorkload(seed, 4 if smoke else 8, 300.0 if smoke else 600.0)
    raise SystemExit(f"unknown workload {name!r}")
