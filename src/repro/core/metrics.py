"""Evaluation metrics: Fig. 9 success categories, hops, divergence.

HFR (Eq. 4) is :attr:`HeuristicReport.hfr_pct
<repro.core.heuristic.HeuristicReport.hfr_pct>` and the Infeasible
Optimization rate is Fig. 7's own count
(:func:`repro.experiments.fig7_infeasible_rate.io_rate_for_policy`).
This module adds the other quantities the evaluation reports:

* **success categories** (Fig. 9) — per-iteration comparison of the
  heuristic against the ILP: *full* (heuristic placed everything),
  *zero* (heuristic placed nothing while the ILP succeeded), *partial*
  (the rest).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.heuristic import HeuristicReport
from repro.core.placement import PlacementReport

_TOL = 1e-9


class SuccessCategory(enum.Enum):
    """Fig. 9 taxonomy for one iteration."""

    HEURISTIC_FULL = "heuristic-full"  # heuristic offloaded all overload
    HEURISTIC_ZERO = "heuristic-zero"  # heuristic placed nothing, ILP succeeded
    PARTIAL = "partial"  # heuristic placed some, ILP finished the rest
    BOTH_INFEASIBLE = "both-infeasible"  # not plotted by the paper; tracked anyway
    NO_OVERLOAD = "no-overload"  # degenerate iteration without busy nodes


def categorize_iteration(
    heuristic: HeuristicReport, ilp: PlacementReport
) -> SuccessCategory:
    """Classify one random network state per Fig. 9's buckets."""
    if heuristic.total_required <= _TOL:
        return SuccessCategory.NO_OVERLOAD
    if heuristic.fully_offloaded:
        return SuccessCategory.HEURISTIC_FULL
    if not ilp.feasible:
        return SuccessCategory.BOTH_INFEASIBLE
    if heuristic.nothing_offloaded:
        return SuccessCategory.HEURISTIC_ZERO
    return SuccessCategory.PARTIAL


@dataclass(frozen=True)
class SuccessRateSummary:
    """Aggregated Fig. 9 percentages over many iterations."""

    counts: Dict[SuccessCategory, int]

    @property
    def total_considered(self) -> int:
        """Iterations with real overload and a feasible comparison."""
        return sum(
            self.counts.get(cat, 0)
            for cat in (
                SuccessCategory.HEURISTIC_FULL,
                SuccessCategory.HEURISTIC_ZERO,
                SuccessCategory.PARTIAL,
            )
        )

    def pct(self, category: SuccessCategory) -> float:
        total = self.total_considered
        if total == 0:
            return 0.0
        return 100.0 * self.counts.get(category, 0) / total


def summarize_categories(categories: Iterable[SuccessCategory]) -> SuccessRateSummary:
    counts: Dict[SuccessCategory, int] = {}
    for cat in categories:
        counts[cat] = counts.get(cat, 0) + 1
    return SuccessRateSummary(counts=counts)


def mean_hops(report: PlacementReport) -> float:
    """Load-weighted mean hop count of a placement (the paper's
    "number of hops required to reach the destination" metric)."""
    if not report.assignments:
        return float("nan")
    amounts = np.array([a.amount_pct for a in report.assignments])
    hops = np.array([a.hops for a in report.assignments], dtype=float)
    total = amounts.sum()
    if total <= _TOL:
        return float("nan")
    return float((amounts * hops).sum() / total)


# -- resilience metrics (chaos harness) --------------------------------------------
#
# A placement "signature" is the canonical, order-free description of
# who hosts what: sorted (source, destination, rounded amount) triples.
# Two runs converged to the same placement iff their signatures match.

AssignmentSignature = tuple


def assignment_signature(
    offloads: Iterable, *, amount_decimals: int = 6
) -> AssignmentSignature:
    """Canonical signature of a set of active offloads.

    Accepts anything with ``source`` / ``destination`` / ``amount_pct``
    attributes (e.g. :class:`~repro.core.offload.ActiveOffload`);
    amounts for the same (source, destination) pair are summed so a
    ledger holding one 10% row and a ledger holding two 5% rows for the
    same pair compare equal.
    """
    totals: Dict[tuple, float] = {}
    for o in offloads:
        key = (int(o.source), int(o.destination))
        totals[key] = totals.get(key, 0.0) + float(o.amount_pct)
    return tuple(
        (src, dst, round(amount, amount_decimals))
        for (src, dst), amount in sorted(totals.items())
    )


def placement_divergence(
    reference: AssignmentSignature, observed: AssignmentSignature
) -> float:
    """Fraction of offloaded load placed differently from the reference.

    Computed as the symmetric difference of per-(source, destination)
    amounts, normalised by the total reference amount — 0.0 means the
    observed placement is exactly the reference, 1.0 means none of the
    reference load sits where the reference put it (extra, misplaced
    load can push the value above 1). With an empty reference, any
    observed load counts as full divergence.
    """
    ref = {(s, d): a for s, d, a in reference}
    obs = {(s, d): a for s, d, a in observed}
    total_ref = sum(ref.values())
    mismatch = sum(
        abs(ref.get(key, 0.0) - obs.get(key, 0.0)) for key in set(ref) | set(obs)
    )
    if total_ref <= _TOL:
        return 0.0 if mismatch <= _TOL else 1.0
    return mismatch / total_ref


def recovery_time_s(
    checkpoints: Sequence, reference: AssignmentSignature, disruption_time: float
) -> Optional[float]:
    """Time from a disruption until the placement re-converged for good.

    ``checkpoints`` is a time-ordered sequence of ``(time, signature)``
    pairs sampled during the run. Recovery is the earliest checkpoint at
    or after ``disruption_time`` whose signature — and every later
    checkpoint's — matches the reference (a transient match that
    diverges again does not count). Returns ``None`` when the run never
    re-converged.
    """
    recovered_at: Optional[float] = None
    for when, signature in checkpoints:
        if when < disruption_time:
            continue
        if signature == reference:
            if recovered_at is None:
                recovered_at = when
        else:
            recovered_at = None
    if recovered_at is None:
        return None
    return max(0.0, recovered_at - disruption_time)


def relief_by_source(offloads: Iterable) -> Dict[int, float]:
    """Total offloaded amount per *source* node (destination-agnostic).

    The soak drift watchdog compares the live incremental placement
    against a from-scratch oracle solve. The two may legitimately pick
    different destinations among capacity-equivalent helpers, so the
    meaningful drift signal is *how much relief each overloaded source
    receives*, not which exact edge carries it.
    """
    totals: Dict[int, float] = {}
    for o in offloads:
        src = int(o.source)
        totals[src] = totals.get(src, 0.0) + float(o.amount_pct)
    return totals


def relief_divergence(
    reference: Mapping[int, float], observed: Mapping[int, float]
) -> float:
    """Fraction of reference relief mis-delivered, per source.

    Symmetric difference of per-source relief amounts normalised by the
    total reference relief: 0.0 when every source gets exactly the
    relief the oracle would grant it, 1.0 when none does. An empty
    reference (oracle sees no overload) scores 0 only if the observed
    placement is also empty.
    """
    total_ref = sum(reference.values())
    mismatch = sum(
        abs(reference.get(k, 0.0) - observed.get(k, 0.0))
        for k in set(reference) | set(observed)
    )
    if total_ref <= _TOL:
        return 0.0 if mismatch <= _TOL else 1.0
    return mismatch / total_ref


def message_overhead_pct(faulty_sent: int, baseline_sent: int) -> float:
    """Extra control messages a lossy run cost, relative to the
    fault-free baseline (0 when the baseline sent nothing)."""
    if baseline_sent <= 0:
        return 0.0
    return 100.0 * (faulty_sent - baseline_sent) / baseline_sent


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares exponent of ``y ~ x^a`` (log–log regression).

    Used to check Fig. 11a's claim that HFR falls with network size
    roughly as a power law with exponent ≈ −0.5.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size or xa.size < 2:
        raise ValueError("need at least two (x, y) points with matching shapes")
    if (xa <= 0).any() or (ya <= 0).any():
        raise ValueError("power-law fit requires strictly positive data")
    slope, _ = np.polyfit(np.log(xa), np.log(ya), 1)
    return float(slope)
