"""Link bandwidth / utilization models.

The paper's response-time metric (Eq. 1) divides the monitoring data
volume ``D_i`` (Mb) by a per-edge bandwidth term ``Lu_e`` (Mbps). The
text defines ``Lu`` as "the utilized bandwidth … determined by
multiplying the physical link bandwidth and the dynamic utilization
rate". Transfer time over a loaded link physically depends on the
*remaining* (headroom) bandwidth, so this module supports both
conventions and lets the routing layer choose:

* :attr:`BandwidthConvention.AVAILABLE` (default) —
  ``capacity * (1 - utilization)``: busier links look slower, which is
  the behaviour the paper's objective ("prioritizing data locality,
  minimizing bandwidth usage across relay nodes") rewards.
* :attr:`BandwidthConvention.UTILIZED_LITERAL` —
  ``capacity * utilization``: the literal Eq.-1 reading, kept for
  faithfulness experiments.

Either way the value feeds Eq. 1 as the denominator.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import TopologyError

#: Floor (Mbps) used in place of a zero denominator so a fully utilized
#: (or fully idle, under the literal convention) link yields a huge but
#: finite response time instead of a division error.
MIN_EFFECTIVE_BANDWIDTH_MBPS = 1e-3


class BandwidthConvention(enum.Enum):
    """How ``Lu_e`` in Eq. 1 is derived from capacity and utilization."""

    AVAILABLE = "available"
    UTILIZED_LITERAL = "utilized-literal"


#: Per field: the test a legal value passes (it takes a scalar or a
#: per-edge array; NaN fails every comparison) and what it requires.
_LINK_STATE_RULES = (
    ("capacity", lambda v: (v > 0.0) & (v < math.inf), "finite and positive"),
    ("utilization", lambda v: (v >= 0.0) & (v <= 1.0), "in [0, 1]"),
    ("latency", lambda v: (v >= 0.0) & (v < math.inf), "finite and non-negative"),
)


def validate_link_state(
    capacity_mbps=None, utilization=None, latency_ms=None
) -> None:
    """The one link-state validator: every writer of link state calls it.

    Each argument is a scalar or a per-edge array (``None`` skips it).
    Capacity must be finite and positive, utilization in ``[0, 1]`` and
    latency finite and non-negative; raises :class:`TopologyError`
    naming the first offending value otherwise.
    """
    for (name, test, requirement), values in zip(
        _LINK_STATE_RULES, (capacity_mbps, utilization, latency_ms)
    ):
        if values is None:
            continue
        ok = test(values)
        if isinstance(ok, np.ndarray):
            if not ok.all():
                bad = np.asarray(values)[~ok].flat[0]
                raise TopologyError(f"link {name} must be {requirement}, got {bad}")
        elif not ok:
            raise TopologyError(f"link {name} must be {requirement}, got {values}")


@dataclass
class Link:
    """A physical link between two nodes.

    A ``Link`` built directly holds its own values; it is what
    :meth:`~repro.topology.graph.Topology.add_edge` copies into the
    topology's per-edge arrays. The links a topology hands out
    (``link()``, ``links``, ``link_between()``) are views bound to
    ``(topology, edge_id)``: reading a field reads the arrays, and
    writing capacity or utilization goes through the topology's
    validated setters, so the write bumps its ``version``.

    Attributes
    ----------
    capacity_mbps:
        Physical line rate in Mbps (e.g. 10_000 for 10 GbE).
    utilization:
        Fraction of the capacity consumed by data-plane traffic,
        in ``[0, 1]``.
    latency_ms:
        Propagation + forwarding latency, used by the discrete-event
        simulator for control-message delivery (not part of Eq. 1).
    """

    capacity_mbps: float = 10_000.0
    utilization: float = 0.0
    latency_ms: float = 0.05

    def __post_init__(self) -> None:
        validate_link_state(self.capacity_mbps, self.utilization, self.latency_ms)

    @property
    def available_mbps(self) -> float:
        """Headroom bandwidth: ``capacity * (1 - utilization)``."""
        return self.capacity_mbps * (1.0 - self.utilization)

    @property
    def utilized_mbps(self) -> float:
        """Data-plane traffic bandwidth: ``capacity * utilization``."""
        return self.capacity_mbps * self.utilization

    def effective_mbps(self, convention: BandwidthConvention) -> float:
        """``Lu_e`` under the chosen convention, floored away from zero."""
        raw = (
            self.available_mbps
            if convention is BandwidthConvention.AVAILABLE
            else self.utilized_mbps
        )
        return max(raw, MIN_EFFECTIVE_BANDWIDTH_MBPS)


@dataclass
class LinkUtilizationModel:
    """Randomized data-plane load applied to every link of a topology.

    Samples per-link utilization from a uniform range — the paper's
    simulator draws dynamic network states per iteration; this model is
    what `iterate` re-samples.
    """

    low: float = 0.1
    high: float = 0.9
    seed: Optional[int] = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise TopologyError(
                f"utilization range must satisfy 0 <= low <= high <= 1, "
                f"got [{self.low}, {self.high}]"
            )
        self._rng = np.random.default_rng(self.seed)

    def sample(self, num_links: int) -> np.ndarray:
        """Draw one utilization per link."""
        return self._rng.uniform(self.low, self.high, size=num_links)

    def apply(self, topology) -> None:
        """Assign fresh utilizations to every link of ``topology``."""
        values = self.sample(topology.num_edges)
        if hasattr(topology, "set_link_utilizations"):
            # Bump the topology version so the edge-cost caches see the change.
            topology.set_link_utilizations(values)
        else:  # bare link containers (tests, duck-typed graphs)
            for link, value in zip(topology.links, values):
                link.utilization = float(value)

