"""Tests for the serving-metrics view over the unified registry."""

import pytest

from repro.observe.registry import counters, format_serve_stats, serve_stats


@pytest.fixture(autouse=True)
def clean_serve_counters():
    counters.clear("serve.")
    yield
    counters.clear("serve.")


class TestServeStats:
    def test_empty_registry(self):
        stats = serve_stats()
        assert stats["requests"] == 0
        assert stats["batches"] == 0
        assert stats["mean_batch_size"] is None
        assert stats["mean_queue_wait_ms"] is None
        assert stats["coalesce_rate"] is None

    def test_derived_ratios(self):
        counters.add("serve.requests", 8)
        counters.add("serve.batches", 2)
        counters.add("serve.batch_size", 8)
        counters.add("serve.queue_wait_ms", 10.0)
        counters.add("serve.coalesced", 6)
        counters.add("serve.shards", 3)
        stats = serve_stats()
        assert stats["requests"] == 8
        assert stats["batches"] == 2
        assert stats["coalesced"] == 6
        assert stats["shards"] == 3
        assert stats["mean_batch_size"] == pytest.approx(4.0)
        assert stats["mean_queue_wait_ms"] == pytest.approx(5.0)
        assert stats["coalesce_rate"] == pytest.approx(0.75)

    def test_batches_split_by_trigger(self):
        counters.add("serve.batches", 3, trigger="idle")
        counters.add("serve.batches", 1, trigger="size")
        counters.add("serve.batches", 2, trigger="deadline")
        stats = serve_stats()
        assert stats["batches"] == 6
        assert stats["batch_triggers"] == {
            "size": 1, "deadline": 2, "idle": 3, "drain": 0}


class TestFormatServeStats:
    def test_empty_renders_dashes(self):
        text = format_serve_stats()
        assert "requests" in text
        assert "-" in text

    def test_populated_renders_values(self):
        counters.add("serve.requests", 4)
        counters.add("serve.batches", 1)
        counters.add("serve.batch_size", 4)
        counters.add("serve.coalesced", 4)
        text = format_serve_stats()
        assert "4.00" in text       # mean batch size
        assert "100.0%" in text     # coalesce rate

    def test_prints_the_trigger_split(self):
        counters.add("serve.batches", 5, trigger="idle")
        counters.add("serve.batches", 2, trigger="size")
        lines = format_serve_stats().splitlines()
        assert lines[1].split() == ["batches", "7"]
        assert [line.split() for line in lines[2:6]] == [
            ["size", "2"], ["deadline", "0"], ["idle", "5"], ["drain", "0"]]

    def test_accepts_precomputed_stats(self):
        counters.add("serve.requests", 2)
        stats = serve_stats()
        assert format_serve_stats(stats) == format_serve_stats(stats)
