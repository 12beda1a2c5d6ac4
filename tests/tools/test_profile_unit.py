"""The unit profiler (``tests/tools/profile_unit.py``) at k = 4, on the
centralized and the distributed churn workloads and on the soak."""

import re

from repro.simulation.network_sim import FaultyNetwork
from tests.tools import profile_unit

ENGINE_LINE = re.compile(
    r"^(\d+\.\d) engine events per unit, (\d+\.\d\d) Python calls per event$", re.M
)


def _rows(out):
    """Function rows by name: the lines after the column header."""
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:2] == ["cum", "%"])
    return {line.split()[-1]: line.split()[:3] for line in lines[header + 1:]}


def test_profiles_a_smoke_churn_unit(capsys):
    assert profile_unit.main(["--workload", "lp_churn_k16", "--units", "2", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "lp_churn_k16: 2 profiled units after 3 warm-up (seed 0, smoke)" in out
    # The engine line: a k = 4 churn period is mostly STAT traffic, a
    # tick and a delivery of about a dozen calls between them.
    (events, calls), = ENGINE_LINE.findall(out)
    assert float(events) > 2 * 19  # at least every client's STAT, twice
    assert 1.0 < float(calls) < 50.0
    rows = _rows(out)
    # The workload's unit is the root.
    (root,) = [row for name, row in rows.items()
               if name.startswith("benchmarks/e2e/workloads.py:") and name.endswith("(unit)")]
    assert root[0] == "100.0"
    # The STAT chain shows under it. Ranked by call count, which repeats
    # exactly: its cumulative share is too small to rank reliably.
    assert profile_unit.main(
        ["--workload", "lp_churn_k16", "--units", "2", "--smoke", "--sort", "ncalls"]
    ) == 0
    rows = _rows(capsys.readouterr().out)
    assert any(name.endswith("(apply_stat)") for name in rows)
    assert any(name.endswith("(_send_stat)") for name in rows)


def test_profiles_a_smoke_distributed_unit(capsys):
    assert profile_unit.main(["--workload", "dist_churn_k16", "--units", "2", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "dist_churn_k16: 2 profiled units after 3 warm-up (seed 0, smoke)" in out
    assert len(ENGINE_LINE.findall(out)) == 1
    names = list(_rows(out))
    # The distributed solve runs under the unit, through its own loop.
    assert any(name.endswith("(run_protocol)") for name in names)


def test_profiles_a_smoke_soak_unit(capsys):
    assert profile_unit.main(["--workload", "soak_chaos_k8", "--units", "1", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "soak_chaos_k8: 1 profiled units after 3 warm-up (seed 0, smoke)" in out
    assert len(ENGINE_LINE.findall(out)) == 1
    rows = _rows(out)
    (root,) = [row for name, row in rows.items()
               if name.startswith("benchmarks/e2e/workloads.py:") and name.endswith("(unit)")]
    assert root[0] == "100.0"
    # The arrival tick and the faulty fabric's send run under the unit.
    assert any(name.startswith("src/repro/simulation/soak.py:")
               and name.endswith("(_apply_arrivals)") for name in rows)
    send = FaultyNetwork.send.__code__
    assert f"src/repro/simulation/network_sim.py:{send.co_firstlineno}(send)" in rows
