"""The paper scorecard: its verdicts, its CLI target and its docs block."""

import json
import re
from pathlib import Path

import pytest

from repro.experiments import scorecard
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import PAPER_FIGURE_IDS, all_experiments, run_experiment

DOC = Path(__file__).resolve().parents[2] / "docs" / "experiments.md"
_BLOCK = re.compile(r"<!-- scorecard:begin -->\n(.*?)<!-- scorecard:end -->", re.DOTALL)
RANK = {"miss": 0, "shape-only": 1, "pass": 2}

#: Rows allowed below ``pass`` at ``--quick`` size, with why.
QUICK_FLOORS = {
    "Fig. 8 ILP time vs max-hop (4-k)": "miss",  # pricing time is flat in max-hop
    "Fig. 9 heuristic full / zero / partial": "shape-only",  # calibration: ROADMAP 6(a)
    "Fig. 10b ILP time, 16-k max-hop 4 → 5": "miss",  # the 16-k series stops at hop 3
    "Fig. 11a HFR power-law exponent": "shape-only",  # calibration: ROADMAP 6(a)
}


@pytest.fixture(scope="module")
def quick_figures():
    return {fid: run_experiment(fid, quick=True) for fid in PAPER_FIGURE_IDS}


@pytest.fixture(scope="module")
def quick_rows(quick_figures):
    return scorecard.score(quick_figures)


def fig8(times):
    hops = (2, 4, 6, "none")
    return ExperimentResult(
        experiment_id="fig8",
        title="synthetic",
        columns=("max-hop", "mean solve s", "mean beta (s)", "<= 0.5s"),
        rows=tuple((h, t, 0.1, "yes") for h, t in zip(hops, times)),
        paper_claim="",
        params=(("iterations", 1), ("seed", 0)),
    )


class TestVerdicts:
    def test_flat_fig8_time_series_is_a_miss(self):
        row = scorecard._fig8_time(fig8((0.002, 0.0021, 0.0019, 0.0022)))
        assert row.verdict == "miss"
        assert row.times == (0.002, 0.0022)

    def test_growing_fig8_time_series_passes(self):
        assert scorecard._fig8_time(fig8((0.01, 0.1, 0.5, 2.0))).verdict == "pass"

    def test_quick_rows_reach_their_floors(self, quick_rows):
        assert set(QUICK_FLOORS) <= {row.claim for row in quick_rows}
        for row in quick_rows:
            if row.times and max(row.times) < 10 * min(row.times):
                continue  # a timing row too close to call at --quick size
            assert RANK[row.verdict] >= RANK[QUICK_FLOORS.get(row.claim, "pass")], row

    def test_scorecard_is_not_part_of_all(self):
        assert "scorecard" not in [e.experiment_id for e in all_experiments()]


class TestCli:
    def test_scorecard_json_holds_the_rows(self, quick_figures, quick_rows, tmp_path,
                                           monkeypatch, capsys):
        from repro.experiments import registry
        from repro.experiments.cli import main

        # The figures already ran at --quick size; serve those results.
        monkeypatch.setattr(registry, "run_experiment",
                            lambda fid, quick=False, **_: quick_figures[fid])
        path = tmp_path / "scorecard.json"
        assert main(["scorecard", "--quick", "--json", str(path)]) == 0
        (result,) = json.loads(path.read_text())
        assert result["experiment_id"] == "scorecard"
        assert result["columns"] == list(scorecard.COLUMNS)
        assert result["rows"] == [list(row[:6]) for row in quick_rows]
        assert "Fig. 8 path count" in capsys.readouterr().out


class TestDocsBlock:
    def test_block_lists_the_rows_paper_values_and_bands(self, quick_rows):
        block = _BLOCK.search(DOC.read_text(encoding="utf-8"))
        assert block, "docs/experiments.md lost its scorecard markers"
        lines = block.group(1).strip().splitlines()
        header, _, *body = [[c.strip() for c in line.strip("|").split("|")] for line in lines]
        assert tuple(header) == scorecard.COLUMNS
        assert [(c[0], c[1], c[3]) for c in body] == [
            (row.claim, row.paper, row.band) for row in quick_rows
        ]
        assert {c[4] for c in body} <= set(RANK)
