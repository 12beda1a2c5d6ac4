"""The unit profiler (``tests/tools/profile_unit.py``) at k = 4, on the
centralized and the distributed churn workloads and on the soak."""

from repro.simulation.network_sim import FaultyNetwork
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


def test_profiles_a_smoke_soak_unit(capsys):
    assert profile_unit.main(["--workload", "soak_chaos_k8", "--units", "1", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "soak_chaos_k8: 1 profiled units after 3 warm-up (seed 0, smoke)" in out
    rows = {line.split()[-1]: line.split()[:3] for line in out.splitlines()[3:]}
    (root,) = [row for name, row in rows.items()
               if name.startswith("benchmarks/e2e/workloads.py:") and name.endswith("(unit)")]
    assert root[0] == "100.0"
    # The arrival tick and the faulty fabric's send run under the unit.
    assert any(name.startswith("src/repro/simulation/soak.py:")
               and name.endswith("(_apply_arrivals)") for name in rows)
    send = FaultyNetwork.send.__code__
    assert f"src/repro/simulation/network_sim.py:{send.co_firstlineno}(send)" in rows
