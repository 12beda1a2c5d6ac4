"""Check that two end-to-end benchmark runs did the same work, bit for bit.

    python tests/tools/digest_diff.py A.json B.json

``A.json`` and ``B.json`` are files written by ``benchmarks/e2e/run.py
--raw`` (say, one from a checkout of the parent commit and one from
the change, with the same ``--workload``, ``--seed`` and
``--seconds``). For every workload and pass kind (``untraced``,
``traced``, ``reference``) it compares the passes in order: each
pass's ``digest``, ``rounds``, ``unserved_pct`` and ``failed`` and
every ``extras`` field that is not a wall-clock time (a key with
``wall`` in its name) must be ``==``. Timings (``setup_s``,
``unit_s``, the host probe, ``peak_rss_mb``) are not compared.

It prints the number of passes compared and exits 0 when every value
is equal, or names the first difference and exits 1.

pytest does not collect this file; ``tests/tools/test_digest_diff.py``
covers it on synthetic files.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

PASS_KINDS = ("untraced", "traced", "reference")
#: The per-pass fields the seeded work fixes.
FIELDS = ("digest", "rounds", "unserved_pct", "failed")


def _work(record: dict) -> dict:
    """The fields of one pass record that must not depend on timing."""
    if "crashed" in record:
        return {"crashed": record["crashed"]}
    work = {key: record.get(key) for key in FIELDS}
    for key, value in sorted(record.get("extras", {}).items()):
        if "wall" not in key:
            work[f"extras.{key}"] = value
    return work


def first_difference(a: dict, b: dict) -> Tuple[Optional[str], int]:
    """``(description of the first difference or None, passes compared)``."""
    if a.get("seed") != b.get("seed"):
        return f"seed: {a.get('seed')} != {b.get('seed')}", 0
    if sorted(a["passes"]) != sorted(b["passes"]):
        return f"workloads: {sorted(a['passes'])} != {sorted(b['passes'])}", 0
    compared = 0
    for name in sorted(a["passes"]):
        for kind in PASS_KINDS:
            passes_a = a["passes"][name].get(kind, [])
            passes_b = b["passes"][name].get(kind, [])
            if len(passes_a) != len(passes_b):
                return f"{name} {kind}: {len(passes_a)} passes != {len(passes_b)}", compared
            for index, (record_a, record_b) in enumerate(zip(passes_a, passes_b)):
                work_a, work_b = _work(record_a), _work(record_b)
                for key in sorted(set(work_a) | set(work_b)):
                    if work_a.get(key, "<missing>") != work_b.get(key, "<missing>"):
                        return (
                            f"{name} {kind} pass {index}: {key} "
                            f"{work_a.get(key, '<missing>')!r} != {work_b.get(key, '<missing>')!r}",
                            compared,
                        )
                compared += 1
    return None, compared


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", help="first run.py --raw file")
    parser.add_argument("b", help="second run.py --raw file")
    args = parser.parse_args(argv)
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    difference, compared = first_difference(a, b)
    if difference is not None:
        print(f"DIFFERENT: {difference}")
        return 1
    print(f"identical: {compared} passes, every digest, rounds list, unserved_pct and non-timing extra ==")
    return 0


if __name__ == "__main__":
    sys.exit(main())
