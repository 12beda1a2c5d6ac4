"""Exception hierarchy for the DUST reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class TopologyError(ReproError):
    """Raised for malformed or unsupported network topologies."""


class RoutingError(ReproError):
    """Raised when a route cannot be computed (e.g. disconnected pair)."""


class SolverError(ReproError):
    """Raised when an LP/ILP backend fails for a non-status reason."""


class TelemetryError(ReproError):
    """Raised for telemetry substrate misuse (unknown agent, table, ...)."""


class SimulationError(ReproError):
    """Raised by the discrete-event engine (time travel, double-start...)."""


class ProtocolError(ReproError):
    """Raised when a DUST protocol message violates the expected workflow."""


class MalformedReportError(ProtocolError):
    """Raised when a STAT or Offload-capable report carries a non-finite
    or out-of-range field value; the NMDB record is left unchanged."""


class PlacementError(ReproError):
    """Raised when a placement request is malformed (e.g. unknown node)."""


class CapacityError(ReproError):
    """Raised when capacities or thresholds are outside their domains."""
