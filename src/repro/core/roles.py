"""Node roles and role assignment (paper Section III-B).

DUST-Manager assigns each client one of four roles from its reported
capacity and participation flag:

* **Busy** — utilized capacity ≥ ``C_max``; must offload its excess.
* **Offload-candidate** — utilized capacity ≤ ``CO_max``; may host.
* **None-offloading** — opted out via Offload-capable = 0; it is still
  monitored but neither offloads nor hosts.
* **Neutral** — participating but between the thresholds: neither busy
  enough to offload nor idle enough to host (such nodes act only as
  relays, at the paper's assumed zero relay cost).

**Offload-destination** is not a capacity class but an *assignment
outcome*: a candidate that the optimizer actually selected. It is
tracked separately (see :mod:`repro.core.offload`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.thresholds import ThresholdPolicy


class NodeRole(enum.Enum):
    """Capacity-derived role of a DUST client."""

    BUSY = "busy"
    OFFLOAD_CANDIDATE = "offload-candidate"
    NEUTRAL = "neutral"
    NONE_OFFLOADING = "none-offloading"


@dataclass(frozen=True)
class RoleAssignment:
    """Roles for a whole network state."""

    roles: Dict[int, NodeRole]

    def nodes_with(self, role: NodeRole) -> List[int]:
        """Node ids holding ``role``, in ascending order."""
        return sorted(n for n, r in self.roles.items() if r is role)

    @property
    def busy(self) -> List[int]:
        """The paper's ``V_b``."""
        return self.nodes_with(NodeRole.BUSY)

    @property
    def candidates(self) -> List[int]:
        """The paper's ``V_o``."""
        return self.nodes_with(NodeRole.OFFLOAD_CANDIDATE)

    @property
    def relays(self) -> List[int]:
        return self.nodes_with(NodeRole.NEUTRAL)

    @property
    def opted_out(self) -> List[int]:
        return self.nodes_with(NodeRole.NONE_OFFLOADING)

    def counts(self) -> Dict[NodeRole, int]:
        out = {role: 0 for role in NodeRole}
        for role in self.roles.values():
            out[role] += 1
        return out


def classify_network(
    capacities: Sequence[float],
    policy: ThresholdPolicy,
    participating: Sequence[bool] | None = None,
) -> RoleAssignment:
    """Classify every node; ``capacities[i]`` is node ``i``'s utilized
    capacity in percent. ``participating`` defaults to all-True."""
    caps = np.asarray(capacities, dtype=float)
    if participating is None:
        part = np.ones(caps.size, dtype=bool)
    else:
        part = np.asarray(participating, dtype=bool)
        if part.shape != caps.shape:
            raise ValueError(
                f"participation mask shape {part.shape} does not match "
                f"capacities shape {caps.shape}"
            )
    # Precedence: opted-out first, then busy (>= C_max), then
    # candidate (<= CO_max).
    codes = np.where(
        ~part,
        3,
        np.where(caps >= policy.c_max, 0, np.where(caps <= policy.co_max, 1, 2)),
    )
    by_code = (
        NodeRole.BUSY,
        NodeRole.OFFLOAD_CANDIDATE,
        NodeRole.NEUTRAL,
        NodeRole.NONE_OFFLOADING,
    )
    roles = {node_id: by_code[c] for node_id, c in enumerate(codes.tolist())}
    return RoleAssignment(roles=roles)
