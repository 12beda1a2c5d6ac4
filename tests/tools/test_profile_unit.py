"""The unit profiler (``tests/tools/profile_unit.py``) at k = 4, on the
centralized and the distributed churn workloads."""

from tests.tools import profile_unit


def test_profiles_a_smoke_churn_unit(capsys):
    assert profile_unit.main(["--workload", "lp_churn_k16", "--units", "2", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "lp_churn_k16: 2 profiled units after 3 warm-up (seed 0, smoke)" in out
    rows = {line.split()[-1]: line.split()[:3] for line in out.splitlines()[3:]}
    # The workload's unit is the root, and the STAT chain shows under it.
    (root,) = [row for name, row in rows.items()
               if name.startswith("benchmarks/e2e/workloads.py:") and name.endswith("(unit)")]
    assert root[0] == "100.0"
    assert any(name.endswith("(apply_stat)") for name in rows)
    assert any(name.endswith("(_send_stat)") for name in rows)


def test_profiles_a_smoke_distributed_unit(capsys):
    assert profile_unit.main(["--workload", "dist_churn_k16", "--units", "2", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "dist_churn_k16: 2 profiled units after 3 warm-up (seed 0, smoke)" in out
    names = [line.split()[-1] for line in out.splitlines()[3:]]
    # The distributed solve runs under the unit, through its own loop.
    assert any(name.endswith("(run_protocol)") for name in names)
