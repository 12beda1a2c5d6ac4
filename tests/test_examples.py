"""Every example script must run end-to-end (they are executable docs)."""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_example_inventory():
    """The README promises at least these examples."""
    expected = {
        "quickstart.py",
        "datacenter_offload.py",
        "failure_recovery.py",
        "switch_offload_testbed.py",
        "heuristic_vs_ilp.py",
        "zoned_deployment.py",
        "qos_congestion.py",
    }
    assert expected <= set(ALL_EXAMPLES)


@pytest.mark.parametrize("script", ALL_EXAMPLES)
def test_example_runs(script, capsys):
    """Execute the script as __main__; it must finish without raising
    and produce some output."""
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} printed nothing"
