"""Fig. 10 — ILP computation time vs max-hop, large-scale fat-trees.

Paper: with a 300 s response-time threshold the recommended max-hop is
7 on the 8-k (80-node) fabric (Fig. 10a) and 4 on the 16-k (320-node)
fabric (Fig. 10b); raising 16-k's max-hop from 4 to 5 costs roughly a
10x increase in average computation time.

The same enumeration-driven measurement as Fig. 8, at scale. The
default hop ranges keep the regeneration tractable on a laptop while
still exposing the blow-up factor; pass larger ``hops_*`` to push
further.

Beyond the paper's 16-k ceiling, a 32-k (1280-node) series runs on the
DP path-engine — exhaustive enumeration is hopeless at that scale, but
one all-sources DP plane per solve keeps each point in seconds, which
is exactly the regime the matrix kernel exists for.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult, run_sharded_sweep
from repro.experiments.fig8_maxhop_smallscale import mean_solve_time
from repro.routing.response_time import PathEngine

DEFAULT_HOPS_8K: Tuple[int, ...] = (2, 3, 4, 5, 6, 7)
DEFAULT_HOPS_16K: Tuple[int, ...] = (2, 3, 4, 5)
#: The extra-paper 32-k series (DP engine).
DEFAULT_HOPS_32K: Tuple[int, ...] = (2, 3, 4)


def _sweep_point(payload: Tuple[int, int, int, int, PathEngine]) -> float:
    """One (k, max-hop) point — module-level so pool workers can run it.

    No arrays ride along here: ``mean_solve_time`` rebuilds through the
    fat-tree blueprint LRU, so each worker pays one build per k at most.
    """
    k, h, iters, seed, engine_kind = payload
    mean_s, _ = mean_solve_time(k, h, iters, seed=seed, engine_kind=engine_kind)
    return mean_s


def run(
    iterations_8k: int = 3,
    iterations_16k: int = 1,
    iterations_32k: int = 1,
    hops_8k: Sequence[int] = DEFAULT_HOPS_8K,
    hops_16k: Sequence[int] = DEFAULT_HOPS_16K,
    hops_32k: Sequence[int] = DEFAULT_HOPS_32K,
    seed: int = 0,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 10a/10b's time-vs-max-hop curves (+ 32-k extra).

    (k, max-hop) points are independent solves, so they shard over the
    worker pool like the fig11/fig12 scale points. The 8-k/16-k series
    replicate the paper's enumeration measurement; the 32-k series
    (pass ``hops_32k=()`` to skip) swaps in the DP engine, the only
    one that prices a 1280-node fabric in reasonable time.
    """
    start = time.perf_counter()
    series = (
        (8, hops_8k, iterations_8k, PathEngine.ENUMERATION),
        (16, hops_16k, iterations_16k, PathEngine.ENUMERATION),
        (32, hops_32k, iterations_32k, PathEngine.DP),
    )
    payloads = [
        (k, h, iters, seed, engine_kind)
        for k, hops, iters, engine_kind in series
        for h in hops
    ]
    times = run_sharded_sweep(_sweep_point, payloads, workers=workers)
    rows = []
    times_16k = {}
    for (k, h, _, _, engine_kind), mean_s in zip(payloads, times):
        engine_label = "enum" if engine_kind is PathEngine.ENUMERATION else "dp"
        rows.append((f"{k}-k", h, engine_label, mean_s))
        if k == 16:
            times_16k[h] = mean_s
    blowup = (
        times_16k[5] / times_16k[4]
        if 4 in times_16k and 5 in times_16k and times_16k[4] > 0
        else float("nan")
    )
    return ExperimentResult(
        experiment_id="fig10",
        title="ILP computation time vs max-hop, 8-k (80 nodes) and 16-k (320 nodes)",
        columns=("fat-tree", "max-hop", "engine", "mean solve s"),
        rows=tuple(rows),
        paper_claim=(
            "300s threshold => max-hop 7 (8-k) and 4 (16-k); 16-k hop 4->5 is a ~10x jump"
        ),
        observations=(
            f"16-k hop 4->5 time ratio: {blowup:.1f}x"
            if blowup == blowup
            else "hop range did not include both 4 and 5 on 16-k"
        ),
        elapsed_s=time.perf_counter() - start,
        params=(
            ("iterations_8k", iterations_8k),
            ("iterations_16k", iterations_16k),
            ("iterations_32k", iterations_32k),
            ("seed", seed),
        ),
    )
