"""Tier-1 guard for the call sites ``benchmarks/e2e`` pins.

The acceptance benchmark constructs engines with frozen keywords and
wraps public callables by ``module:attr`` name (``spans.py``); a renamed
function or changed signature must fail here, in the builder's own
suite, not in the acceptance run. One smoke pass with tracing on covers
every workload and every span target.
"""

import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_command_runs_traced_smoke():
    done = subprocess.run(
        [*CONTRACT["command"], "--smoke", "--traced", "--seed", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=110,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    payload = json.loads(done.stdout.strip().splitlines()[-1])
    assert payload["correct"] is True
    assert payload["failed"] == 0
