"""Instrumented front end for Trmin route pricing.

Pricing the ``Trmin_ij`` matrix dominates every quantitative result in
the paper (the ILP itself is cheap; Figs. 8–12 measure the route
pricing). There is one pricing pipeline —
:meth:`ResponseTimeModel.resistance_matrix
<repro.routing.response_time.ResponseTimeModel.resistance_matrix>`: the
all-sources matrix DP for a dp model, the frontier-expansion kernel
feeding the canonical fold for an enumeration model — and
:class:`TrminEngine` is that call plus its default model, the
``trmin.price`` span and the ``trmin.*`` metrics. It keeps nothing
itself: every pricing reads the link utilizations of the moment, as the
paper's Eq. 1–2 do. A dp model's source rows are kept by the topology
for its current link state (:meth:`Topology.link_state_memo
<repro.topology.graph.Topology.link_state_memo>`), so a call on an
unchanged fabric relaxes only the sources not priced there yet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_registry, trace_span
from repro.routing.response_time import (
    ResponseTimeModel,
    scale_by_data_volume,
    validate_data_volumes,
)
from repro.routing.routes import Path
from repro.topology.graph import Topology

Pair = Tuple[int, int]


@dataclass
class EngineStats:
    """Per-engine pricing activity."""

    #: Pricing calls with at least one source and one destination.
    full_computes: int = 0
    # Constant 0: the only reader is benchmarks/e2e/spans.py; they go
    # with that reader in the next [benchmark] PR.
    cache_hits: int = 0
    incremental_updates: int = 0
    gate_fallbacks: int = 0


class TrminEngine:
    """Front end for Trmin matrix pricing.

    Parameters
    ----------
    model:
        Default :class:`ResponseTimeModel`; every method also accepts a
        per-call ``model=`` override.

    Attributes
    ----------
    stats : EngineStats
        Cumulative per-engine counters. Every pricing call also counts
        on the process-wide ``trmin.full_computes`` metric, lands its
        wall time in ``trmin.price_seconds``, and — when tracing is on —
        records a ``trmin.price`` span (see ``docs/observability.md``).
    """

    def __init__(
        self,
        model: Optional[ResponseTimeModel] = None,
        *,
        # Accepted and ignored: the only caller is benchmarks/e2e/workloads.py;
        # deleted with that call site in the next [benchmark] PR.
        workers: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> None:
        self.model = model if model is not None else ResponseTimeModel()
        self.stats = EngineStats()

    def resistance_matrix(
        self,
        topology: Topology,
        sources: Sequence[int],
        destinations: Sequence[int],
        with_paths: bool = False,
        model: Optional[ResponseTimeModel] = None,
    ) -> Tuple[np.ndarray, np.ndarray, Mapping[Pair, Path]]:
        """:meth:`ResponseTimeModel.resistance_matrix` — same contract,
        same bits — under the ``trmin.price`` span and metrics.

        With ``with_paths`` and a dp model, ``paths`` is a read-only
        mapping over every reachable pair that walks a route only when
        looked up; the span and ``trmin.price_seconds`` therefore cover
        pricing, not route building."""
        model = model if model is not None else self.model
        start = time.perf_counter()
        with trace_span(
            "trmin.price", sources=len(sources), destinations=len(destinations)
        ):
            result = model.resistance_matrix(
                topology, sources, destinations, with_paths
            )
        registry = get_registry()
        registry.histogram("trmin.price_seconds").observe(time.perf_counter() - start)
        if len(sources) and len(destinations):
            self.stats.full_computes += 1
            registry.counter("trmin.full_computes").inc()
        return result

    def trmin_matrix(
        self,
        topology: Topology,
        sources: Sequence[int],
        destinations: Sequence[int],
        data_mb: Sequence[float],
        with_paths: bool = False,
        model: Optional[ResponseTimeModel] = None,
    ) -> Tuple[np.ndarray, np.ndarray, Mapping[Pair, Path]]:
        """Eq. 2 as a matrix: ``T[a, b] = D_a * R[a, b]`` seconds."""
        data = validate_data_volumes(data_mb, len(sources))
        R, hops, paths = self.resistance_matrix(
            topology, sources, destinations, with_paths, model=model
        )
        return scale_by_data_volume(data, R), hops, paths
