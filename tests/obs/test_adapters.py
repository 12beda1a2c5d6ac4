"""Adapter correctness: mirror maps match the real counter objects,
mirroring never double-counts, aliases normalize, pool metrics merge."""

import dataclasses
import os
import subprocess
import sys

from repro.obs import (
    CLIENT_MIRROR,
    FAULTY_NETWORK_MIRROR,
    MANAGER_COUNTERS_MIRROR,
    NETWORK_MIRROR,
    canonical_counter_name,
    get_registry,
    mirror_counters,
    normalize_counter_keys,
)
from repro.parallel import map_with_pool_retry


class TestMirrorMapsMatchReality:
    """The adapter maps are plain data (no imports of the mirrored
    layers), so these tests pin them to the real field lists."""

    def test_engine_stats_fields(self):
        # EngineStats is not mirrored: its one live field counts
        # straight into the registry, once per pricing call.
        from repro.routing import PathEngine, ResponseTimeModel, TrminEngine
        from repro.topology import build_fat_tree

        reg = get_registry()
        before = reg.value("trmin.full_computes")
        engine = TrminEngine(ResponseTimeModel(engine=PathEngine.DP, max_hops=2))
        engine.resistance_matrix(build_fat_tree(4), [4, 5], [6, 7])
        assert dataclasses.asdict(engine.stats) == {
            "full_computes": 1,
            "cache_hits": 0,
            "incremental_updates": 0,
            "gate_fallbacks": 0,
        }
        assert reg.value("trmin.full_computes") - before == 1

    def test_manager_counters_fields(self):
        from repro.core.manager import ManagerCounters

        fields = {f.name for f in dataclasses.fields(ManagerCounters)}
        assert set(MANAGER_COUNTERS_MIRROR) <= fields
        # The transport/network mirror fields must NOT be mirrored from
        # ManagerCounters — their ground truth reports directly.
        assert not {
            "retransmissions",
            "sends_gave_up",
            "network_messages_dropped",
            "network_duplicates_delivered",
        } & set(MANAGER_COUNTERS_MIRROR)

    def test_client_attributes(self):
        import inspect

        from repro.core.client import DUSTClient

        source = inspect.getsource(DUSTClient)
        for attr in CLIENT_MIRROR:
            assert f"self.{attr}" in source, attr

    def test_network_attributes(self):
        from repro.simulation.network_sim import FaultyNetwork, MessageNetwork

        assert MessageNetwork.METRIC_MIRROR is NETWORK_MIRROR
        assert FaultyNetwork.METRIC_MIRROR is FAULTY_NETWORK_MIRROR

    def test_every_mirror_target_is_a_catalog_metric(self):
        reg = get_registry()
        for mapping in (
            MANAGER_COUNTERS_MIRROR,
            CLIENT_MIRROR,
            NETWORK_MIRROR,
            FAULTY_NETWORK_MIRROR,
        ):
            for metric_name in mapping.values():
                assert metric_name in reg, metric_name


class _Stats:
    def __init__(self, **values):
        self.__dict__.update(values)


class TestMirrorSemantics:
    def test_remirroring_same_object_adds_only_growth(self):
        reg = get_registry()
        mapping = {"hits": "testmirror.hits"}
        obj = _Stats(hits=5)
        before = reg.counter("testmirror.hits").value
        mirror_counters(obj, mapping)
        mirror_counters(obj, mapping)  # idempotent at same state
        obj.hits = 8
        mirror_counters(obj, mapping)  # +3 only
        assert reg.value("testmirror.hits") - before == 8

    def test_new_object_instances_accumulate(self):
        reg = get_registry()
        mapping = {"hits": "testmirror.accum"}
        before = reg.counter("testmirror.accum").value
        mirror_counters(_Stats(hits=4), mapping)
        mirror_counters(_Stats(hits=6), mapping)  # a fresh run's object
        assert reg.value("testmirror.accum") - before == 10

    def test_missing_attributes_count_as_zero(self):
        reg = get_registry()
        before = reg.counter("testmirror.missing").value
        mirror_counters(_Stats(), {"nope": "testmirror.missing"})
        assert reg.value("testmirror.missing") == before


_GC_INSIDE_MIRROR = """
import gc, os, threading
from repro.obs import get_registry, mirror_counters

class Stats:
    hits = 1

class CollectsWhenRead:
    # A counter read that starts a cyclic-GC pass - what any allocation
    # inside mirror_counters may do on its own.
    @property
    def hits(self):
        gc.collect()
        return 2

mapping = {"hits": "testmirror.gc"}
gc.disable()
dead = Stats()
dead.cycle = dead  # only the cycle collector can reclaim it
mirror_counters(dead, mapping)
del dead
worker = threading.Thread(
    target=mirror_counters, args=(CollectsWhenRead(), mapping), daemon=True
)
worker.start()
worker.join(5)
print("deadlocked" if worker.is_alive() else get_registry().value("testmirror.gc"))
os._exit(0)  # a stuck worker holds the lock exit-time finalizers want
"""


class TestMirrorUnderGarbageCollection:
    def test_gc_pass_inside_mirror_does_not_deadlock(self):
        """A collection that runs while ``mirror_counters`` holds its
        lock, and reclaims an earlier mirrored source, must not need
        that lock again. Own interpreter: a deadlocked lock would hang
        every later mirror call in this one."""
        done = subprocess.run(
            [sys.executable, "-c", _GC_INSIDE_MIRROR],
            capture_output=True, text=True, timeout=60,
        )
        assert done.stdout.strip() == "3.0", done.stdout + done.stderr


class TestAliasNormalization:
    def test_known_aliases_map_to_catalog_names(self):
        assert canonical_counter_name("retransmits") == "transport.retransmissions"
        assert canonical_counter_name("msgs_dropped") == "network.messages_dropped"
        assert (
            canonical_counter_name("dupes_injected") == "network.duplicates_injected"
        )

    def test_unknown_keys_pass_through(self):
        assert canonical_counter_name("production_loss_mb") == "production_loss_mb"

    def test_colliding_aliases_are_summed(self):
        out = normalize_counter_keys({"retransmits": 3, "retransmissions": 2})
        assert out == {"transport.retransmissions": 5}

    def test_every_alias_targets_a_registered_metric(self):
        from repro.obs import COUNTER_ALIASES

        reg = get_registry()
        for target in COUNTER_ALIASES.values():
            assert target in reg, target


def _observe_in_worker(amount):
    """Module-level so it pickles into process-pool workers."""
    get_registry().counter(
        "testpool.work_units", unit="count", owner="tests"
    ).inc(amount)
    return os.getpid()


class TestPoolMetricFlow:
    def test_metrics_flow_back_from_pool_workers(self):
        reg = get_registry()
        before = reg.counter("testpool.work_units", owner="tests").value
        amounts = [1, 2, 3, 4]
        pids = map_with_pool_retry(
            _observe_in_worker, amounts, workers=2, collect_metrics=True
        )
        assert pids is not None
        # Exact regardless of executor: forked workers ship deltas home
        # (merged), a thread fallback increments the shared registry
        # directly (deltas skipped by the pid guard).
        assert reg.value("testpool.work_units") - before == sum(amounts)

    def test_thread_pool_does_not_double_count(self):
        reg = get_registry()
        before = reg.counter("testpool.work_units", owner="tests").value
        result = map_with_pool_retry(
            _observe_in_worker, [5, 5], workers=2, kind="thread",
            collect_metrics=True,
        )
        assert result is not None
        assert reg.value("testpool.work_units") - before == 10
