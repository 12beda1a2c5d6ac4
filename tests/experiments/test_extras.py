"""Tests for the beyond-the-paper extra experiments."""

import pytest

from repro.experiments.registry import (
    PAPER_FIGURE_IDS,
    all_experiments,
    get_experiment,
    run_experiment,
)


class TestRegistryExtras:
    def test_extras_not_in_all(self):
        ids = [e.experiment_id for e in all_experiments()]
        assert ids == list(PAPER_FIGURE_IDS)
        assert "hops" not in ids
        assert "convention" not in ids

    def test_extras_retrievable(self):
        assert get_experiment("hops").experiment_id == "hops"
        assert get_experiment("convention").experiment_id == "convention"


class TestHopsStudy:
    def test_budget_ordering(self):
        result = run_experiment("hops", iterations=15, budgets=(2, None), seed=0)
        by_label = {row[0]: row for row in result.rows}
        tight = by_label["ILP max-hop 2"]
        loose = by_label["ILP max-hop none"]
        heuristic = by_label["heuristic (Algorithm 1)"]
        # Tighter budget => fewer (or equal) mean hops.
        assert tight[1] <= loose[1] + 1e-9
        # Heuristic is pinned to exactly one hop and pays HFR.
        assert heuristic[1] == 1.0
        assert heuristic[3] > 0.0
        # The ILP pays no HFR by construction.
        assert tight[3] == 0.0 and loose[3] == 0.0


class TestConventionStudy:
    def test_capacity_driven_quantities_match(self):
        result = run_experiment("convention", iterations=15, seed=0)
        rows = {row[0]: row for row in result.rows}
        avail = rows["available"]
        literal = rows["utilized-literal"]
        # Feasibility is a pure capacity question: exactly equal.
        assert avail[1] == pytest.approx(literal[1])
        # Hop counts shift only marginally between conventions.
        assert avail[2] == pytest.approx(literal[2], abs=0.5)


class TestOverheadStudy:
    def test_volume_falls_with_interval(self):
        result = run_experiment(
            "overhead", intervals=(30.0, 120.0), horizon_s=1200.0, seed=3
        )
        volumes = [row[1] for row in result.rows]
        assert volumes[0] > volumes[1]

    def test_first_offload_tracks_interval(self):
        result = run_experiment(
            "overhead", intervals=(30.0, 300.0), horizon_s=1200.0, seed=3
        )
        firsts = [row[3] for row in result.rows]
        assert firsts[0] <= firsts[1]


class TestSoakStudy:
    def test_registered_as_extra(self):
        assert get_experiment("soak").experiment_id == "soak"
        assert "soak" not in [e.experiment_id for e in all_experiments()]

    def test_quick_run_and_json_artifact(self, tmp_path):
        path = tmp_path / "soak.json"
        result = run_experiment("soak", quick=True, json_path=str(path))
        assert result.experiment_id == "soak"
        # quick params: one seed, calm + chaos rows.
        assert len(result.rows) == 2
        modes = [row[1] for row in result.rows]
        assert modes == ["calm", "chaos"]
        for row in result.rows:
            assert row[7] == pytest.approx(0.0)  # prod loss MB

        import json

        artifact = json.loads(path.read_text())
        assert {r["mode"] for r in artifact["runs"]} == {"calm", "chaos"}
        for record in artifact["runs"]:
            assert record["events_per_min"] >= 1e5
            assert record["events_applied"] == record["events_generated"]
        chaos = [r for r in artifact["runs"] if r["mode"] == "chaos"][0]
        assert chaos["manager_took_over_at"] is not None
        assert chaos["final_drift"] <= 0.5
        assert "observability" in artifact


class TestDistributedStudy:
    def test_quick_points_are_exact_and_measured(self, tmp_path):
        import json

        path = tmp_path / "dsolve.json"
        result = run_experiment("distributed", quick=True, json_path=str(path))
        artifact = json.loads(path.read_text())
        points = artifact["points"]
        assert [p["k"] for p in points] == [8, 16] == [row[0] for row in result.rows]
        for point in points:
            assert point["distributed_s"] > 0.0
            assert point["status"] == point["centralized_status"]
            assert point["objective_rel_diff"] <= 1e-6
