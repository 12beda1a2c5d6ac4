"""The process profile in the ``--json`` observability bundle."""

import resource
import sys

import pytest

from repro.obs import observability_artifact, profile_snapshot


class _Usage:
    ru_maxrss = 512 * 1024 * 1024


@pytest.mark.parametrize(
    "platform, expected_kb", [("darwin", 512 * 1024.0), ("linux", 512 * 1024 * 1024.0)]
)
def test_peak_rss_unit_follows_the_platform(monkeypatch, platform, expected_kb):
    # macOS reports ru_maxrss in bytes, Linux in KiB: a 512 MiB macOS
    # process must not read as 512 GiB.
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: _Usage())
    assert profile_snapshot()["ru_maxrss_kb"] == expected_kb


def test_bundle_sections():
    bundle = observability_artifact()
    assert set(bundle) == {"metrics", "spans", "profile"}
    assert set(bundle["profile"]) == {"ru_maxrss_kb", "perf_counter_ns"}
