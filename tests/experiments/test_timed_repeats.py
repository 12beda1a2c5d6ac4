"""Timed repeats pay for pricing.

The topology keeps each source's dp row until its link state moves, so
a loop that times the same solve again would time those kept rows. The
two loops that time repeated solves of one instance — the figures'
``mean_solve_time`` and ``bench_obs``'s placement op — write the same
link state back before each timed solve; each one must run the matrix
DP once.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.experiments import fig8_maxhop_smallscale as fig8
from repro.routing import PathEngine, response_time

BENCH_OBS = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_obs.py"


@pytest.fixture
def kernel_calls(monkeypatch):
    """Source lists of every matrix DP a pricing call runs."""
    calls = []
    kernel = response_time.matrix_hop_constrained

    def spy(topology, sources, *args, **kwargs):
        calls.append(list(sources))
        return kernel(topology, sources, *args, **kwargs)

    monkeypatch.setattr(response_time, "matrix_hop_constrained", spy)
    return calls


def test_mean_solve_time_prices_every_timed_dp_solve(kernel_calls, monkeypatch):
    solved = []
    solve = fig8.PlacementEngine.solve

    def counting(self, problem):
        solved.append(len(problem.busy))
        return solve(self, problem)

    monkeypatch.setattr(fig8.PlacementEngine, "solve", counting)
    mean_s, _ = fig8.mean_solve_time(4, 4, 3, engine_kind=PathEngine.DP)
    assert mean_s > 0
    # One untimed warm-up, then REPEATS timed solves per instance.
    instances = (len(solved) - 1) // fig8.REPEATS
    assert instances >= 1 and len(solved) == 1 + instances * fig8.REPEATS
    assert len(kernel_calls) == len(solved)
    assert [len(sources) for sources in kernel_calls] == solved


def test_bench_obs_placement_op_prices_every_call(kernel_calls):
    spec = importlib.util.spec_from_file_location("bench_obs", BENCH_OBS)
    bench_obs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_obs)
    prepare, op = bench_obs.placement_solve_workload(smoke=True)
    unit = dict.fromkeys(
        ("disabled_span_ns", "counter_inc_ns", "histogram_observe_ns"), 0.0
    )
    bench_obs.bench_workload("placement_solve", op, 3, unit, [], prepare=prepare)
    # The op whose touches are counted, then three timed ops.
    assert len(kernel_calls) == 1 + 3
    assert len({tuple(sources) for sources in kernel_calls}) == 1
