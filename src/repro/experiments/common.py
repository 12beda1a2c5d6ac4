"""Shared experiment infrastructure: results, tables, iteration helpers.

Every ``figN`` module exposes ``run(**params) -> ExperimentResult``; the
result carries the regenerated rows/series plus the paper's reference
values, which the CLI prints side by side and the scorecard judges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from repro.simulation.random import spawn_seeds
from repro.topology.capacity import CapacityModel
from repro.topology.graph import Topology
from repro.topology.links import LinkUtilizationModel


def render_table(columns: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table (monospace-aligned, GitHub-friendly)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"
    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    out = [line(list(columns)), sep]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "nan"
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.001:
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


@dataclass(frozen=True)
class ExperimentResult:
    """One regenerated table/figure."""

    experiment_id: str  # e.g. "fig7"
    title: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]
    paper_claim: str  # what the paper reports for this figure
    observations: str = ""  # measured-vs-paper commentary
    elapsed_s: float = 0.0
    params: Tuple[Tuple[str, object], ...] = ()

    def to_text(self) -> str:
        head = [f"== {self.experiment_id}: {self.title} =="]
        if self.params:
            head.append("params: " + ", ".join(f"{k}={v}" for k, v in self.params))
        body = render_table(self.columns, self.rows)
        tail = [f"paper: {self.paper_claim}"]
        if self.observations:
            tail.append(f"observed: {self.observations}")
        tail.append(f"(ran in {self.elapsed_s:.1f}s)")
        return "\n".join(head + [body] + tail)


#: Range of the per-link utilization fractions every iteration draws.
UTIL_LOW, UTIL_HIGH = 0.1, 0.9


class IterationSampler:
    """Per-iteration randomized network state for the placement studies.

    Each iteration draws fresh node capacities and link utilizations
    from independently-seeded streams, exactly like the paper's
    simulator re-rolls the dynamic network state. The utilizations are
    written into ``topology``, so a problem built from one state is
    refused by the solvers once the next state is drawn
    (:meth:`~repro.core.placement.PlacementProblem.check_current`).
    """

    def __init__(self, topology: Topology, x_min: float, seed: Optional[int]) -> None:
        self.topology = topology
        self.x_min = x_min
        self._master_seed = seed

    def states(self, iterations: int):
        """Yield ``(iteration, capacities)`` with link state applied."""
        seeds = spawn_seeds(self._master_seed, iterations * 2)
        cap_model = CapacityModel(x_min=self.x_min)
        for it in range(iterations):
            cap_model.reseed(seeds[2 * it])
            LinkUtilizationModel(UTIL_LOW, UTIL_HIGH, seed=seeds[2 * it + 1]).apply(
                self.topology
            )
            yield it, cap_model.sample(self.topology.num_nodes)


#: Paper Table I, rendered for completeness (the only table in the paper).
NOTATION_ROWS: Tuple[Tuple[str, str], ...] = (
    ("G = (V, E)", "undirected graph: V nodes, E links"),
    ("x_ij", "continuous optimization decision variable"),
    ("C_max (%)", "Busy node's threshold capacity"),
    ("CO_max (%)", "Offload-candidate node's threshold capacity"),
    ("C_j (%)", "utilized capacity of node j"),
    ("D_i (Mb)", "monitoring data of node i"),
    ("Lu_{i,j} (Mbps)", "link utilization bandwidth between i and j"),
    ("p", "set of all reachable paths between node pairs (V_b x V_o)"),
    ("Tr_{i,j}", "response time (s) between nodes i and j"),
    ("Trmin_{i,j}", "minimum response time among all paths p"),
    ("x_min", "nodes' minimum usage capacity"),
    ("Cs", "total resources to be offloaded from Busy nodes"),
    ("Cd", "total available resources of Offload-candidate nodes"),
    ("beta", "optimization objective"),
)


def notation_table() -> str:
    """Paper Table I as text."""
    return render_table(("Notation", "Explanation"), NOTATION_ROWS)
