"""The paper scorecard: one row per claim of the evaluation (Figs. 1, 6–12).

Runs the paper figures at the requested size and judges each claim:
``pass`` (inside the band), ``shape-only`` (right ordering or sign,
outside the band) or ``miss``. Figs. 8 and 10 are also stated as
hop-bounded path counts: pricing time no longer grows with max-hop, the
path count still does. ``docs/experiments.md`` keeps one full run's
table between its ``scorecard`` markers.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.heuristic import solve_heuristic
from repro.core.metrics import fit_power_law
from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.roles import classify_network
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import ExperimentResult, IterationSampler
from repro.experiments.fig11_scalability import DEFAULT_POLICY as FIG11_POLICY
from repro.experiments.fig8_maxhop_smallscale import DEFAULT_POLICY as FIG8_POLICY
from repro.lp.result import SolveStatus
from repro.routing import count_paths_kernel
from repro.topology.fattree import build_fat_tree

_PAIRS = 16  # busy × candidate pairs a count row sums over
RADII = (1, 2, 3, 4)


class Row(NamedTuple):
    """One claim: the paper's value, ours, the band and the verdict."""

    claim: str
    paper: str
    ours: str
    band: str
    verdict: str
    note: str
    #: The two times a timing row compares; empty on the other rows.
    times: Tuple[float, ...] = ()


COLUMNS = Row._fields[:6]


def _verdict(in_band: bool, shape: bool = False) -> str:
    return "pass" if in_band else "shape-only" if shape else "miss"


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f} ms"


def _find(result: ExperimentResult, label: object) -> tuple:
    return next(row for row in result.rows if row[0] == label)


def _problems(
    k: int, policy: ThresholdPolicy, iterations: int, seed: int
) -> Iterator[PlacementProblem]:
    """The figures' seeded instances on fat-tree(k). Each state's link
    utilizations go into the one topology: price a problem before the
    next is drawn."""
    topology = build_fat_tree(k)
    for _, caps in IterationSampler(topology, x_min=policy.x_min, seed=seed).states(iterations):
        roles = classify_network(caps, policy)
        busy, candidates = tuple(roles.busy), tuple(roles.candidates)
        if busy and candidates:
            yield PlacementProblem(
                topology=topology,
                busy=busy,
                candidates=candidates,
                cs=np.array([policy.excess_load(caps[b]) for b in busy]),
                cd=np.array([policy.spare_capacity(caps[c]) for c in candidates]),
                data_mb=np.full(len(busy), 10.0),
            )


def path_counts(k: int, hops: Sequence[Optional[int]], seed: int) -> List[int]:
    """Simple paths per max-hop over seeded busy × candidate pairs of
    the first instance. The pairs span every layer: edge-to-edge paths
    all have even length, so an odd budget adds nothing there."""
    problem = next(_problems(k, FIG8_POLICY, 10, seed))
    pairs = [(b, c) for b in problem.busy for c in problem.candidates]
    picks = np.random.default_rng(seed).choice(
        len(pairs), min(_PAIRS, len(pairs)), replace=False
    )
    sample = [pairs[i] for i in sorted(picks)]
    return [sum(count_paths_kernel(problem.topology, s, d, h) for s, d in sample) for h in hops]


_FLAT_NOTE = (
    "the enumeration kernel prunes dominated paths, so pricing time no "
    "longer follows the path count (ROADMAP 20)"
)
_COUNT_NOTE = f"{_PAIRS} seeded busy × candidate pairs of the first instance"


def _fig1(fig1: ExperimentResult) -> List[Row]:
    _, mean, peak = _find(fig1, "OVERALL")
    return [
        Row("Fig. 1 mean module CPU", "≈100 %", f"{mean:.0f} %", "75–150 %",
            _verdict(75 <= mean <= 150), "one core of the 8-core DUT"),
        Row("Fig. 1 peak module CPU", "≈600 %", f"{peak:.0f} %", "450–750 %",
            _verdict(450 <= peak <= 750),
            "the first VxLAN burst comes after minute 30, past the --quick window"),
    ]


def _fig6(fig6: ExperimentResult) -> List[Row]:
    cpu, memory, (_, mib, *_) = fig6.rows[:3]
    return [
        Row("Fig. 6a memory", "70 → 62 % (12 % cut), ≈1.2 GiB",
            f"{memory[1]:.1f} → {memory[2]:.1f} % ({memory[3]:.1f} % cut), {mib:.0f} MiB",
            "cut 8–16 %, 1.0–1.4 GiB", _verdict(8 <= memory[3] <= 16 and 1024 <= mib <= 1434),
            "device costs are calibrated at the local point (31 % CPU, 70 % memory)"),
        Row("Fig. 6b device CPU", "31 → 15 % (52 % cut)",
            f"{cpu[1]:.1f} → {cpu[2]:.1f} % ({cpu[3]:.1f} % cut)", "cut 42–62 %",
            _verdict(42 <= cpu[3] <= 62),
            "the offloaded point emerges: agents leave, stub and export costs stay"),
    ]


def _fig7(fig7: ExperimentResult) -> List[Row]:
    low, high = _find(fig7, 0.8)[2], _find(fig7, 3.5)[2]
    worst = max(row[2] for row in fig7.rows if row[0] >= 2.0)
    return [
        Row("Fig. 7 io-rate endpoints", "69 % (Δ 0.8) → 0.2 % (Δ 3.5)",
            f"{low:.1f} % → {high:.1f} %", "Δ 0.8 within ±10 pp, Δ 3.5 ≤ 2 %",
            _verdict(abs(low - 69.0) <= 10 and high <= 2), "C_max 82, CO_max from Eq. 5"),
        Row("Fig. 7 K_io ≥ 2", "io rate low once Δ ≥ 2", f"≤ {worst:.1f} % at every Δ ≥ 2",
            "≤ 5 % at every Δ ≥ 2", _verdict(worst <= 5), ""),
    ]


def _fig8_time(fig8: ExperimentResult) -> Row:
    (h0, first, *_), (h1, last, *_) = fig8.rows[0], fig8.rows[-1]
    ratio = last / first
    return Row("Fig. 8 ILP time vs max-hop (4-k)", "grows; < 3.5 s unbounded",
               f"{_ms(first)} → {_ms(last)} (max-hop {h0} → {h1}), {ratio:.1f}×",
               "≥ 2× over the sweep, < 3.5 s", _verdict(ratio >= 2 and last < 3.5),
               _FLAT_NOTE, (first, last))


def _fig8_count(fig8: ExperimentResult) -> Row:
    labels = [row[0] for row in fig8.rows]
    hops = [None if h == "none" else h for h in labels]
    counts = path_counts(4, hops, dict(fig8.params)["seed"])
    rising = all(a < b for a, b in zip(counts, counts[1:]))
    return Row("Fig. 8 path count vs max-hop (4-k)", "grows (as the time does)",
               f"{counts[0]:,} → {counts[-1]:,} (max-hop {labels[0]} → {labels[-1]})",
               "rises at every max-hop step", _verdict(rising), _COUNT_NOTE)


def _fig9(fig9: ExperimentResult) -> Row:
    full, zero, partial = (row[2] for row in fig9.rows)
    off = max(abs(full - 18.37), abs(zero - 6.13), abs(partial - 75.5))
    return Row("Fig. 9 heuristic full / zero / partial", "18.37 / 6.13 / 75.5 %",
               f"{full:.1f} / {zero:.1f} / {partial:.1f} %", "each within ±10 pp",
               _verdict(off <= 10, partial > full > zero),
               "capacity distribution unstated; uniform capacities, C_max 80, CO_max 50")


def _fig10_time(fig10: ExperimentResult) -> Row:
    times = {row[1]: row[3] for row in fig10.rows if row[0] == "16-k"}
    if 4 not in times or 5 not in times:
        return Row("Fig. 10b ILP time, 16-k max-hop 4 → 5", "≈10× jump", "n/a", "5–20×",
                   "miss", f"this run's 16-k series stops at max-hop {max(times)}")
    ratio = times[5] / times[4]
    return Row("Fig. 10b ILP time, 16-k max-hop 4 → 5", "≈10× jump",
               f"{_ms(times[4])} → {_ms(times[5])} ({ratio:.1f}×)", "5–20×",
               _verdict(5 <= ratio <= 20), _FLAT_NOTE, (times[4], times[5]))


def _fig10_count(fig10: ExperimentResult) -> Row:
    four, five = path_counts(16, (4, 5), dict(fig10.params)["seed"])
    ratio = five / four
    return Row("Fig. 10b path count, 16-k max-hop 4 → 5", "≈10× jump",
               f"{four:,} → {five:,} ({ratio:.1f}×)", "5–20×", _verdict(5 <= ratio <= 20),
               _COUNT_NOTE)


def _fig11(fig11: ExperimentResult) -> List[Row]:
    hfr = [(row[1], row[2]) for row in fig11.rows if row[2] == row[2] and row[2] > 0]
    (n0, first), (n1, last) = hfr[0], hfr[-1]
    exponent = fit_power_law(*zip(*hfr))
    (m0, t0), *_, (m1, t1) = _ilp_times(fig11)
    return [
        Row("Fig. 11a HFR endpoints", "47.92 → 11.04 %",
            f"{first:.1f} → {last:.1f} % ({n0} → {n1} nodes)", "each within a factor 1.5",
            _verdict(1 / 1.5 <= first / 47.92 <= 1.5 and 1 / 1.5 <= last / 11.04 <= 1.5),
            "thresholds unstated; CO_max 35 reproduces the band"),
        Row("Fig. 11a HFR power-law exponent", "≈ −0.5", f"{exponent:.2f}", "−0.6 to −0.4",
            _verdict(-0.6 <= exponent <= -0.4, exponent < 0), "calibration is ROADMAP 6(a)"),
        Row("Fig. 11b ILP time vs size", "0.2 → 153 s",
            f"{_ms(t0)} → {_ms(t1)} ({m0} → {m1} nodes)",
            "≥ 10× over the sizes the ILP runs at", _verdict(t1 >= 10 * t0),
            "past 320 nodes only the heuristic runs (the paper's zoning advice)", (t0, t1)),
    ]


def _ilp_times(fig11: ExperimentResult) -> List[Tuple[int, float]]:
    """(nodes, mean ILP s) of the sizes fig11 runs the ILP at."""
    return [(row[1], row[3]) for row in fig11.rows if row[3] == row[3]]


def _fig12(fig12: ExperimentResult, fig11: ExperimentResult) -> Row:
    heuristic = next((row[2] for row in fig12.rows if row[1] == 5120), float("nan"))
    nodes, ilp = _ilp_times(fig11)[-1]
    return Row("Fig. 12 heuristic at 5120 nodes", "≈124 s, below the ILP",
               f"{_ms(heuristic)}; ILP {_ms(ilp)} at {nodes} nodes",
               "heuristic below the ILP's largest solve", _verdict(heuristic < ilp),
               "Algorithm 1 is one vectorized fill, not per-node solver calls",
               (heuristic, ilp))


def _radius(fig11: ExperimentResult) -> Row:
    """Algorithm 1 at r = 1..4 and the LP at max-hop r on fig11's 8-k
    instances (its full-size 8 states)."""
    engine = PlacementEngine(with_routes=False)
    hfr = {r: [] for r in RADII}
    infeasible = dict.fromkeys(RADII, 0)
    for problem in _problems(8, FIG11_POLICY, 8, dict(fig11.params)["seed"]):
        for r in RADII:
            hfr[r].append(solve_heuristic(problem, hop_radius=r).hfr_pct)
            status = engine.solve(replace(problem, max_hops=r)).status
            infeasible[r] += status is SolveStatus.INFEASIBLE
    means = [float(np.mean(hfr[r])) for r in RADII]
    falling = all(a >= b - 1e-9 for a, b in zip(means, means[1:]))
    return Row("Algorithm 1 HFR vs radius r = 1–4 (8-k)", "r = 1 only",
               " / ".join(f"{m:.1f}" for m in means) + " %; LP infeasible "
               + " / ".join(str(infeasible[r]) for r in RADII) + f" of {len(hfr[1])}",
               "HFR non-increasing in r", _verdict(falling),
               "beyond the paper; the LP at max-hop r is the reference")


def score(figures: Mapping[str, ExperimentResult]) -> Tuple[Row, ...]:
    """Every row, from the eight figures' results keyed by id."""
    f = figures
    return (
        *_fig1(f["fig1"]), *_fig6(f["fig6"]), *_fig7(f["fig7"]),
        _fig8_time(f["fig8"]), _fig8_count(f["fig8"]),
        _fig9(f["fig9"]),
        _fig10_time(f["fig10"]), _fig10_count(f["fig10"]),
        *_fig11(f["fig11"]), _fig12(f["fig12"], f["fig11"]), _radius(f["fig11"]),
    )


def run(
    quick: bool = False, seed: Optional[int] = None, workers: Optional[int] = None
) -> ExperimentResult:
    """Run the paper figures (``quick``: their CI-sized parameters) and
    judge every claim. ``seed`` overrides every figure's master seed;
    ``workers`` sizes the fig10–12 sweep pools."""
    from repro.experiments.registry import PAPER_FIGURE_IDS, run_experiment

    start = time.perf_counter()
    figures = {}
    for fid in PAPER_FIGURE_IDS:
        overrides = {} if seed is None else {"seed": seed}
        if workers is not None and fid in ("fig10", "fig11", "fig12"):
            overrides["workers"] = workers
        figures[fid] = run_experiment(fid, quick=quick, **overrides)
    rows = score(figures)
    verdicts = [row.verdict for row in rows]
    tally = ", ".join(f"{verdicts.count(v)} {v}" for v in ("pass", "shape-only", "miss"))
    return ExperimentResult(
        experiment_id="scorecard",
        title="Paper scorecard: one row per claim of Figs. 1, 6–12",
        columns=COLUMNS,
        rows=tuple(row[:6] for row in rows),
        paper_claim="the evaluation of Section V (values in the paper column)",
        observations=tally,
        elapsed_s=time.perf_counter() - start,
        params=(("quick", quick), ("seed", "per figure" if seed is None else seed)),
    )
