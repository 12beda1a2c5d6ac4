"""Tests for the markdown report writer and CLI --output."""

from repro.experiments.common import ExperimentResult
from repro.experiments.report import result_to_markdown, write_report


def sample_result(eid="figX"):
    return ExperimentResult(
        experiment_id=eid,
        title="demo experiment",
        columns=("a", "b"),
        rows=((1, 2.5), ("x", float("nan"))),
        paper_claim="paper says so",
        observations="we saw it too",
        elapsed_s=1.25,
        params=(("n", 3),),
    )


class TestMarkdown:
    def test_section_structure(self):
        md = result_to_markdown(sample_result())
        assert md.startswith("## figX — demo experiment")
        assert "| a | b |" in md
        assert "**Paper:** paper says so" in md
        assert "**Measured:** we saw it too" in md
        assert "`n=3`" in md

    def test_nan_rendered(self):
        md = result_to_markdown(sample_result())
        assert "nan" in md

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.md"
        doc = write_report([sample_result("fig1"), sample_result("fig2")], str(path))
        assert path.exists()
        on_disk = path.read_text()
        assert on_disk == doc
        assert "# DUST reproduction" in doc
        assert "## fig1" in doc and "## fig2" in doc
        assert "2 experiment(s)" in doc


class TestCliOutput:
    def test_cli_writes_report(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out_file = tmp_path / "out.md"
        assert main(["fig9", "--quick", "--iterations", "5",
                     "--output", str(out_file)]) == 0
        assert out_file.exists()
        assert "## fig9" in out_file.read_text()
        assert "report written" in capsys.readouterr().out
