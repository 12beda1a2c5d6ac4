"""Does the benchmark agree with itself?

    python3 benchmarks/e2e/selfcheck.py --sets 2

Runs the full benchmark ``--sets`` times on the same code and seed and
fails unless every end-to-end metric of each later set is within its
bound (metrics.END_TO_END) of set 1, on every workload. A benchmark
that cannot pass this cannot accept or reject anybody else's change.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
import run as bench  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.sets < 2:
        parser.error("--sets must be at least 2")

    names = list(metrics.WORKLOADS)
    sets = []
    for index in range(args.sets):
        outcomes, _ = bench.run(names, args.seed, args.seconds, False, args.smoke)
        sets.append(outcomes)
        broken = [p for o in outcomes.values() for p in o["problems"]]
        print(f"set {index + 1}: " + ("checks passed" if not broken else f"CHECKS FAILED {broken}"))
        if broken:
            return 1

    bounds = {name: bound for name, _, _, bound in metrics.END_TO_END}
    agree = True
    print(f"\n{'workload':<16} {'metric':<14} {'set 1':>12} " +
          " ".join(f"{'set ' + str(i + 2):>12} {'diff':>7}" for i in range(args.sets - 1)) + "   bound")
    for name in names:
        for metric, bound in bounds.items():
            base = sets[0][name]["e2e"][metric]
            cells = []
            for later in sets[1:]:
                value = later[name]["e2e"][metric]
                diff = abs(value - base) / abs(base) if base else float(value != base)
                verdict = "" if diff <= bound else " !"
                agree &= diff <= bound
                cells.append(f"{value:>12.6g} {100 * diff:>6.2f}%{verdict}")
            print(f"{name:<16} {metric:<14} {base:>12.6g} " + " ".join(cells) + f"   {100 * bound:.0f}%")
    print("\nselfcheck " + ("passed: every set is within the bounds of set 1" if agree
                            else "FAILED: the benchmark disagrees with itself"))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
