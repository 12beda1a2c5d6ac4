"""Threshold policy: ``C_max``, ``CO_max``, ``x_min`` and Δ_io (Eq. 5).

A node is *Busy* when its utilized capacity is at/above ``C_max`` and an
*Offload-candidate* when at/below ``CO_max``. The paper's Δ parameter

    Δ_io = (CO_max − x_min) / (100 − C_max)

predicts how often the placement optimization is feasible: it is the
ratio of expected spare candidate capacity to expected busy overflow.
Fig. 7 sweeps Δ_io from 0.8 to 3.5 and recommends configuring
``K_io >= 2`` (i.e. choosing thresholds with Δ_io ≥ 2) to keep the
Infeasible-Optimization rate near zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError

#: The paper's recommended lower bound on Δ_io.
RECOMMENDED_K_IO = 2.0


@dataclass(frozen=True)
class ThresholdPolicy:
    """User-defined capacity thresholds, all in percent.

    Attributes
    ----------
    c_max:
        Busy threshold: utilized capacity ≥ ``c_max`` ⇒ Busy node.
    co_max:
        Candidate threshold: utilized capacity ≤ ``co_max`` ⇒
        Offload-candidate node.
    x_min:
        Minimum utilized capacity any node can report (constraint 3e).
    """

    c_max: float = 80.0
    co_max: float = 50.0
    x_min: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.x_min < 100.0:
            raise CapacityError(f"x_min must be in [0, 100), got {self.x_min}")
        if not self.x_min <= self.co_max <= 100.0:
            raise CapacityError(
                f"co_max must be in [x_min, 100] = [{self.x_min}, 100], got {self.co_max}"
            )
        if not 0.0 < self.c_max <= 100.0:
            raise CapacityError(f"c_max must be in (0, 100], got {self.c_max}")
        if self.co_max >= self.c_max:
            raise CapacityError(
                f"co_max ({self.co_max}) must be below c_max ({self.c_max}): a node "
                "cannot be simultaneously a Busy and an Offload-candidate node"
            )

    # -- classification -----------------------------------------------------------
    def is_candidate(self, capacity_pct: float) -> bool:
        """Offload-candidate iff utilized capacity ≤ ``CO_max``."""
        return capacity_pct <= self.co_max

    # -- paper quantities --------------------------------------------------------------
    def excess_load(self, capacity_pct: float) -> float:
        """``Cs_i = C_i − C_max`` for a Busy node (0 otherwise) — 3c."""
        return max(0.0, capacity_pct - self.c_max)

    def spare_capacity(self, capacity_pct: float) -> float:
        """``Cd_j = CO_max − C_j`` for a candidate (0 otherwise) — 3d."""
        if capacity_pct > self.co_max:
            return 0.0
        return self.co_max - capacity_pct

    @property
    def delta_o(self) -> float:
        """Numerator of Eq. 5: ``CO_max − x_min``."""
        return self.co_max - self.x_min

    @property
    def delta_b(self) -> float:
        """Denominator of Eq. 5: ``100 − C_max``."""
        return 100.0 - self.c_max

    @property
    def delta_io(self) -> float:
        """Eq. 5 feasibility parameter; ``inf`` when ``c_max == 100``
        (busy nodes then carry zero offloadable excess)."""
        if self.delta_b == 0.0:
            return float("inf")
        return self.delta_o / self.delta_b

    @classmethod
    def with_delta_io(
        cls, delta_io: float, c_max: float = 80.0, x_min: float = 10.0
    ) -> "ThresholdPolicy":
        """Construct a policy achieving a target Δ_io by solving Eq. 5
        for ``co_max`` (clamped into its legal range)."""
        if delta_io <= 0:
            raise CapacityError(f"delta_io must be positive, got {delta_io}")
        co_max = x_min + delta_io * (100.0 - c_max)
        if co_max >= c_max:
            raise CapacityError(
                f"target delta_io={delta_io} requires co_max={co_max:.1f} >= "
                f"c_max={c_max}; lower delta_io, raise c_max, or lower x_min"
            )
        return cls(c_max=c_max, co_max=co_max, x_min=x_min)
