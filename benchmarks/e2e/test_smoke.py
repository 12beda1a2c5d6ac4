"""Smoke test of the benchmark itself (outside the tier-1 ``testpaths``).

    python -m pytest benchmarks/e2e/test_smoke.py -q

Drives ``run.py --smoke`` (k=4 fabrics, 2 passes) through the same
command line the driver uses and checks the contract: metric names equal
``BENCHMARK.json`` exactly, digests repeat, ``--trace 1`` emits every
per-layer metric, and a directory without ``src/`` fails cleanly.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    done = subprocess.run(
        [*CONTRACT["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = done.stdout.strip().splitlines()
    return done, (json.loads(lines[-1]) if lines else None)


def test_benchmark_json_is_the_metrics_module_written_out():
    assert CONTRACT == metrics.benchmark_json()


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16 and 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_all_workloads_smoke_traced_prints_every_metric():
    done, payload = _run("--smoke", "--seed", "1", "--traced")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert payload["correct"] is True and payload["failed"] == 0
    expected = set(metrics.E2E_UNITS) | set(metrics.LAYER_UNITS)
    assert set(payload["metrics"]) == set(metrics.WORKLOADS)
    for name, block in payload["metrics"].items():
        assert set(block) == expected, name
        assert "obs.unattributed_pct" in block
    for name in expected:
        assert name in done.stdout


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_driver_command_line(workload):
    for trace, units in (("0", metrics.E2E_UNITS), ("1", metrics.LAYER_UNITS)):
        done, payload = _run(
            "--workload", workload, "--seed", "2", "--seconds", "20", "--trace", trace, "--smoke"
        )
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        assert set(payload) == {"correct", "attempted", "failed", "metrics"}
        assert payload["correct"] is True and payload["attempted"] >= 1 and payload["failed"] == 0
        assert {n: m["unit"] for n, m in payload["metrics"].items()} == units
        assert all(isinstance(m["value"], (int, float)) for m in payload["metrics"].values())


def test_same_seed_same_outputs():
    _, first = _run("--workload", "fig11_sweep_k8", "--seed", "5", "--smoke")
    _, again = _run("--workload", "fig11_sweep_k8", "--seed", "5", "--smoke")
    _, other = _run("--workload", "fig11_sweep_k8", "--seed", "6", "--smoke")
    quality = "unserved_pct"
    assert first["metrics"][quality] == again["metrics"][quality]
    assert first["metrics"][quality] != other["metrics"][quality]


def test_fails_cleanly_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, _ = _run("--workload", "lp_churn_k16", "--seed", "0", "--seconds", "20",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
