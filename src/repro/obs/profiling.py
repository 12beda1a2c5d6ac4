"""The JSON bundle the ``--json`` artifacts embed.

* :func:`profile_snapshot` captures point-in-time process numbers
  (peak RSS and the span clock);
* :func:`observability_artifact` bundles the metrics snapshot, the
  tracer summary and the profile snapshot into one JSON-safe dict —
  the ``"observability"`` section the ``resilience``, ``soak`` and
  ``distributed`` experiments embed in their ``--json`` artifacts.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional

from repro.obs.registry import get_registry
from repro.obs.tracer import get_tracer

__all__ = [
    "profile_snapshot",
    "observability_artifact",
]


def profile_snapshot() -> Dict[str, Optional[float]]:
    """Point-in-time process profile (JSON-safe).

    Returns
    -------
    dict
        ``ru_maxrss_kb`` (peak RSS; ``None`` on platforms without
        :mod:`resource`) and ``perf_counter_ns`` (the monotonic clock
        the spans use).
    """
    maxrss_kb: Optional[float] = None
    try:
        import resource

        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # macOS reports bytes, Linux and the BSDs KiB; normalize to KiB.
        maxrss_kb = maxrss / 1024.0 if sys.platform == "darwin" else float(maxrss)
    except ImportError:  # pragma: no cover - non-POSIX platforms
        pass
    return {
        "ru_maxrss_kb": maxrss_kb,
        "perf_counter_ns": float(time.perf_counter_ns()),
    }


def _json_safe(value: object) -> object:
    """Replace non-finite floats so ``json.dump`` stays strict-safe."""
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def observability_artifact() -> Dict[str, object]:
    """One JSON-safe bundle of everything the layer observed.

    Sections: ``metrics`` (registry snapshot), ``spans`` (tracer
    per-name summary — empty with tracing off) and ``profile``
    (:func:`profile_snapshot`). The resilience, soak and distributed
    experiments embed this under the ``"observability"`` key of their
    JSON artifacts.
    """
    return {
        "metrics": _json_safe(get_registry().snapshot()),
        "spans": _json_safe(get_tracer().summary()),
        "profile": _json_safe(profile_snapshot()),
    }
