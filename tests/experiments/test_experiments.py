"""Tests for the experiment harness (quick-sized regenerations)."""

import pytest

from repro.errors import ReproError
from repro.experiments.common import ExperimentResult, notation_table, render_table
from repro.experiments.registry import all_experiments, get_experiment, run_experiment


class TestCommon:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [(1, 2.5), ("xxx", float("nan"))])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "nan" in text

    def test_notation_table_contains_paper_symbols(self):
        table = notation_table()
        for symbol in ("x_ij", "C_max", "CO_max", "Trmin", "beta"):
            assert symbol in table

    def test_experiment_result_to_text(self):
        result = ExperimentResult(
            experiment_id="figX",
            title="demo",
            columns=("a",),
            rows=((1,),),
            paper_claim="n/a",
            observations="ok",
            elapsed_s=0.5,
            params=(("n", 3),),
        )
        text = result.to_text()
        assert "figX" in text and "paper:" in text and "n=3" in text


class TestRegistry:
    def test_all_eight_figures_registered(self):
        ids = [e.experiment_id for e in all_experiments()]
        assert ids == ["fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"]

    def test_unknown_experiment_raises(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            get_experiment("fig99")

    def test_quick_params_are_subsets(self):
        for entry in all_experiments():
            assert isinstance(entry.quick_params, dict)


class TestFig1:
    def test_quick_run_shape(self):
        result = run_experiment("fig1", quick=True)
        assert result.experiment_id == "fig1"
        overall = result.rows[-1]
        assert overall[0] == "OVERALL"
        # Module CPU in a sane band on the 8-core DUT.
        assert 50.0 <= overall[1] <= 300.0
        assert overall[2] <= 800.0


class TestFig6:
    def test_reductions_positive(self):
        result = run_experiment("fig6", quick=True)
        cpu_row = result.rows[0]
        assert cpu_row[1] > cpu_row[2]  # local > offloaded
        assert cpu_row[3] > 20.0  # a substantial cut


class TestFig7:
    def test_io_rate_decreases_with_delta(self):
        result = run_experiment(
            "fig7", iterations=60, deltas=(0.8, 1.5, 2.5, 3.5), seed=0
        )
        rates = [row[2] for row in result.rows]
        assert rates[0] > 25.0  # starved regime is often infeasible
        assert rates[-1] < 5.0  # paper's K_io >= 2 guidance holds
        assert rates[0] >= rates[-1]


class TestFig8:
    def test_time_grows_with_hops(self):
        result = run_experiment("fig8", iterations=3, hops=(2, 6, 10), seed=0)
        times = [row[1] for row in result.rows]
        assert times[0] < times[-1]

    def test_path_count_grows_with_hops(self):
        # The figure's seeded busy x candidate pairs span every switch
        # layer, so an odd budget (3) adds paths too; deterministic.
        from repro.experiments.scorecard import path_counts

        counts = path_counts(4, (2, 3, 4, 6, 10, None), seed=0)
        assert all(a < b for a, b in zip(counts, counts[1:])), counts


class TestFig9:
    def test_categories_sum_to_hundred(self):
        result = run_experiment("fig9", iterations=30, seed=0)
        pcts = [row[2] for row in result.rows]
        assert sum(pcts) == pytest.approx(100.0)
        # Paper shape: partial dominates.
        labels = [row[0] for row in result.rows]
        partial = pcts[labels.index("partial (heuristic + ILP remainder)")]
        assert partial == max(pcts)


class TestFig10:
    def test_quick_run(self):
        result = run_experiment("fig10", quick=True)
        ks = {row[0] for row in result.rows}
        assert ks == {"8-k", "16-k"}
        for row in result.rows:
            assert row[2] == "enum"
            assert row[3] > 0

    def test_32k_series_uses_matrix_priced_dp(self):
        result = run_experiment(
            "fig10",
            iterations_8k=1,
            iterations_16k=1,
            iterations_32k=1,
            hops_8k=(2,),
            hops_16k=(2,),
            hops_32k=(2,),
            workers=1,
        )
        by_k = {row[0]: row for row in result.rows}
        assert by_k["32-k"][2] == "dp"
        assert by_k["32-k"][3] > 0


class TestFig11:
    def test_hfr_decreases_with_scale(self):
        result = run_experiment(
            "fig11",
            scales=((4, 5, False, None), (16, 2, False, None)),
            seed=0,
        )
        hfrs = [row[2] for row in result.rows]
        assert hfrs[0] > hfrs[-1]


class TestFig12:
    def test_heuristic_time_grows(self):
        # 4-k vs 64-k: a ~50x gap, so a scheduler stall on a ~0.3 ms solve
        # cannot invert the ordering.
        result = run_experiment("fig12", scales=((4, 3), (64, 1)), seed=0)
        times = [row[2] for row in result.rows]
        assert times[-1] > times[0]


class TestCli:
    def test_cli_runs_single_experiment(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig9", "--quick", "--iterations", "10"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "paper:" in out

    def test_cli_table1(self, capsys):
        from repro.experiments.cli import main

        assert main(["table1"]) == 0
        assert "Notation" in capsys.readouterr().out


def _square_point(payload):
    """Module-level (picklable) sweep point for TestShardedSweep."""
    from repro.obs import get_registry

    get_registry().counter("test.sweep.points").inc()
    return payload["x"] ** 2


class TestShardedSweep:
    def test_results_come_back_in_payload_order(self):
        from repro.experiments.common import run_sharded_sweep

        payloads = [{"x": x} for x in range(6)]
        assert run_sharded_sweep(_square_point, payloads, workers=2) == [
            0, 1, 4, 9, 16, 25,
        ]

    def test_single_worker_takes_the_serial_path(self):
        from repro.experiments.common import run_sharded_sweep

        assert run_sharded_sweep(_square_point, [{"x": 3}], workers=1) == [9]

    def test_worker_metric_deltas_merge_into_parent(self):
        from repro.experiments.common import run_sharded_sweep
        from repro.obs import get_registry

        counter = get_registry().counter("test.sweep.points")
        before = counter.value
        payloads = [{"x": x} for x in range(4)]
        run_sharded_sweep(_square_point, payloads, workers=2)
        # One increment per point, whether it ran in a pool worker
        # (delta merged back) or on the serial fallback.
        assert counter.value == before + len(payloads)


class TestShardedSweepEquality:
    """A point builds the same topology and samples the same seeded
    states wherever it runs, so every non-timing column of a sharded
    sweep equals the serial one."""

    def test_sharded_and_serial_fig11_points_match(self):
        scales = ((4, 2, True, None), (8, 1, True, 4))
        serial = run_experiment("fig11", scales=scales, seed=0, workers=1)
        sharded = run_experiment("fig11", scales=scales, seed=0, workers=2)
        assert len(serial.rows) == len(sharded.rows) == len(scales)
        for row_serial, row_sharded in zip(serial.rows, sharded.rows):
            # fat-tree label, nodes, mean HFR % (column 3 is ILP time)
            assert row_serial[:3] == row_sharded[:3]

    def test_sharded_and_serial_fig12_points_match(self):
        scales = ((4, 2), (8, 1))
        serial = run_experiment("fig12", scales=scales, seed=0, workers=1)
        sharded = run_experiment("fig12", scales=scales, seed=0, workers=2)
        assert len(serial.rows) == len(sharded.rows) == len(scales)
        for row_serial, row_sharded in zip(serial.rows, sharded.rows):
            assert row_serial[:2] == row_sharded[:2]  # fat-tree label, nodes
            assert row_serial[3] == row_sharded[3]  # mean HFR %
            assert row_serial[4] == row_sharded[4]  # busy count
