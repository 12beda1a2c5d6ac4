"""Tests for the subscription state database."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import StateDatabase


@pytest.fixture
def db():
    database = StateDatabase("test")
    database.create_table("interfaces")
    return database


class TestSchema:
    def test_duplicate_create_rejected(self, db):
        with pytest.raises(TelemetryError, match="already exists"):
            db.create_table("interfaces")

    def test_ensure_table_idempotent(self, db):
        db.ensure_table("interfaces")
        db.ensure_table("new")
        db.record_synthetic_updates("new", 1)  # the table exists

    def test_unknown_table_rejected(self, db):
        with pytest.raises(TelemetryError, match="unknown table"):
            db.record_synthetic_updates("nope", 1)


class TestBulkNotifications:
    def test_bulk_counts_reach_bulk_subscribers(self, db):
        counts = []
        db.subscribe_bulk("interfaces", lambda t, c: counts.append(c))
        db.record_synthetic_updates("interfaces", 500)
        db.record_synthetic_updates("interfaces", 250)
        assert counts == [500, 250]

    def test_zero_count_is_noop(self, db):
        hits = []
        db.subscribe_bulk("interfaces", lambda t, c: hits.append(c))
        db.record_synthetic_updates("interfaces", 0)
        assert hits == []

    def test_negative_count_rejected(self, db):
        with pytest.raises(TelemetryError, match="non-negative"):
            db.record_synthetic_updates("interfaces", -1)

    def test_unsubscribe_bulk(self, db):
        hits = []
        cb = lambda t, c: hits.append(c)  # noqa: E731
        db.subscribe_bulk("interfaces", cb)
        db.unsubscribe_bulk("interfaces", cb)
        db.record_synthetic_updates("interfaces", 10)
        assert hits == []
