"""Command-line entry point: regenerate paper figures as text tables.

Usage::

    python -m repro.experiments fig7 --quick
    python -m repro.experiments all
    python -m repro.experiments scorecard --quick
    dust-experiments fig9 --iterations 200
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.common import notation_table
from repro.experiments.registry import all_experiments, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dust-experiments",
        description="Regenerate the DUST paper's evaluation figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (fig1, fig6, fig7, fig8, fig9, fig10, fig11, fig12), "
        "'all', 'scorecard' for the paper-vs-ours verdicts, or 'table1' for "
        "the notation glossary",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="use reduced iteration counts (CI-sized run)",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="override the iteration count where the experiment takes one",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the master seed"
    )
    parser.add_argument(
        "--json", type=str, default=None,
        help="write the regenerated results to this path as JSON "
        "(resilience and soak keep their richer metrics dumps)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool size for the sharded sweeps (fig10/fig11/"
        "fig12, also inside scorecard); default: REPRO_WORKERS or the "
        "CPU count",
    )
    parser.add_argument(
        "--trace", type=str, default=None,
        help="record a span timeline of the run and write it to this "
        "path as Chrome-trace JSON (open in chrome://tracing or "
        "ui.perfetto.dev)",
    )
    return parser


def _write_results_json(results, path: str) -> None:
    """Machine-readable dump of :class:`ExperimentResult` rows."""
    import json

    payload = [
        {
            "experiment_id": r.experiment_id,
            "title": r.title,
            "columns": list(r.columns),
            "rows": [list(row) for row in r.rows],
            "params": {k: v for k, v in r.params},
            "observations": r.observations,
            "elapsed_s": r.elapsed_s,
        }
        for r in results
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "table1":
        print(notation_table())
        return 0
    if args.trace is not None:
        from repro.obs import get_tracer

        get_tracer().enable()
    overrides = {}
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.json is not None:
        overrides["json_path"] = args.json
    ids = (
        [e.experiment_id for e in all_experiments()]
        if args.experiment == "all"
        else [args.experiment]
    )
    results = []
    for eid in ids:
        # Iteration overrides only apply to experiments that accept them.
        entry_overrides = dict(overrides)
        sweeps = eid in ("fig10", "fig11", "fig12", "scorecard")
        if sweeps:
            entry_overrides.pop("iterations", None)
        if sweeps and args.workers is not None:
            entry_overrides["workers"] = args.workers
        if eid not in ("resilience", "soak", "distributed"):
            entry_overrides.pop("json_path", None)
        result = run_experiment(eid, quick=args.quick, **entry_overrides)
        results.append(result)
        print(result.to_text())
        print()
    if args.json is not None and ids not in (["resilience"], ["soak"], ["distributed"]):
        # Resilience, soak and distributed write their own metrics files;
        # every other run gets the generic results dump.
        _write_results_json(results, args.json)
        print(f"json written to {args.json}")
    if args.trace is not None:
        from repro.obs import get_tracer

        events = get_tracer().export_chrome_trace(args.trace)
        print(f"trace with {events} events written to {args.trace}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
