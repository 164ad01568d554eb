"""Tests for ``repro.obs`` — the metrics registry and snapshots.

The acceptance pins:

* instruments are exact under concurrency (an 8-thread hammer loses no
  increments — same doctrine as the ``_LRUCache`` hammer in
  ``test_server.py``);
* histogram bucketing is deterministic at the edges (exact bound, below the
  first bound, above the last bound);
* registration is get-or-create with "one name, one meaning" conflicts;
* snapshots are deterministic, versioned, and atomically dumpable;
* the :class:`~repro.api.Engine` integration records cache hits/misses,
  encode batch sizes, and per-backend query latency into a bound registry.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    NULL_REGISTRY,
    SNAPSHOT_SCHEMA,
    SNAPSHOT_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    dump_metrics,
    format_snapshot,
)
from serving_runtime_kit import make_engine, make_trajectory, probe_queries, seed_engine


# ---------------------------------------------------------------------- #
# Instruments
# ---------------------------------------------------------------------- #
class TestCounter:
    def test_increments_accumulate(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_is_rejected(self):
        counter = Counter()
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1.0)
        assert counter.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(4.0)
        gauge.inc(2.0)
        gauge.dec(5.0)
        assert gauge.value == 1.0

    def test_peak_is_a_high_watermark(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.peak == 10.0  # the burst stays visible after it drains


class TestHistogram:
    def test_bucket_edges(self):
        histogram = Histogram((1.0, 2.0, 4.0))
        histogram.observe(0.5)  # below the first bound -> first bucket
        histogram.observe(1.0)  # exactly the first bound -> first bucket
        histogram.observe(2.0)  # exactly a middle bound -> that bucket
        histogram.observe(4.0)  # exactly the last bound -> last bucket
        histogram.observe(4.5)  # above the last bound -> overflow
        series = histogram._series()
        assert series["bucket_counts"] == [2, 1, 1]
        assert series["overflow"] == 1
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(12.0)
        assert histogram.mean == pytest.approx(2.4)

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram(())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram((1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="finite"):
            Histogram((1.0, float("inf")))

    def test_quantile_interpolates_within_buckets(self):
        histogram = Histogram((1.0, 2.0))
        for _ in range(4):
            histogram.observe(0.5)
        # All mass in the first bucket: interpolate between 0 and its bound.
        assert histogram.quantile(0.5) == pytest.approx(0.5)
        assert histogram.quantile(1.0) == pytest.approx(1.0)

    def test_quantile_edge_cases(self):
        histogram = Histogram((1.0, 2.0))
        assert histogram.quantile(0.5) == 0.0  # empty
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        histogram.observe(100.0)  # only overflow mass
        assert histogram.quantile(0.9) == 2.0  # reports the last bound


# ---------------------------------------------------------------------- #
# Families + registry
# ---------------------------------------------------------------------- #
class TestMetricFamily:
    def test_same_labels_return_the_same_child(self):
        registry = MetricsRegistry()
        family = registry.counter_family("requests_total", labels=("backend",))
        assert family.labels(backend="ivf") is family.labels(backend="ivf")
        assert family.labels(backend="ivf") is not family.labels(backend="flat")

    def test_wrong_label_names_are_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter_family("requests_total", labels=("backend",))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(nope="x")
        with pytest.raises(ValueError, match="takes labels"):
            family.labels()

    def test_series_are_sorted_by_label_values(self):
        registry = MetricsRegistry()
        family = registry.gauge_family("depth", labels=("shard",))
        family.labels(shard="b").set(2.0)
        family.labels(shard="a").set(1.0)
        series = registry.snapshot()["metrics"]["depth"]["series"]
        assert [s["labels"]["shard"] for s in series] == ["a", "b"]


class TestMetricsRegistry:
    def test_registration_is_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("total") is registry.counter("total")
        assert registry.histogram("sizes", buckets=(1.0, 2.0)) is registry.histogram(
            "sizes", buckets=(1.0, 2.0)
        )

    def test_conflicting_shapes_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("total")
        with pytest.raises(ValueError, match="one name, one meaning"):
            registry.gauge("total")  # same name, different kind
        registry.histogram("sizes", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="one name, one meaning"):
            registry.histogram("sizes", buckets=(1.0, 4.0))  # different buckets
        registry.counter_family("labeled", labels=("a",))
        with pytest.raises(ValueError, match="one name, one meaning"):
            registry.counter_family("labeled", labels=("b",))  # different labels

    def test_empty_name_is_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            MetricsRegistry().counter("")

    def test_snapshot_is_versioned_and_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("zebra_total", "came second").inc(3)
        registry.gauge("apple_depth").set(7.0)
        registry.histogram("latency", buckets=DEFAULT_LATENCY_BUCKETS).observe(0.002)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert list(snapshot["metrics"]) == ["apple_depth", "latency", "zebra_total"]
        assert snapshot["metrics"]["zebra_total"]["help"] == "came second"
        # Byte-identical across calls: the trajectory artefact is diffable.
        assert json.dumps(snapshot, sort_keys=True) == json.dumps(
            registry.snapshot(), sort_keys=True
        )

    def test_names_are_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.counter("a_total")
        assert registry.names() == ["a_total", "b_total"]


class TestNullRegistry:
    def test_disabled_and_empty(self):
        assert NULL_REGISTRY.enabled is False
        assert isinstance(NULL_REGISTRY, NullRegistry)
        assert NULL_REGISTRY.snapshot()["metrics"] == {}
        assert NULL_REGISTRY.names() == []

    def test_instruments_are_free_noops(self):
        counter = NULL_REGISTRY.counter("anything")
        counter.inc(5)
        assert counter.value == 0.0
        histogram = NULL_REGISTRY.histogram("sizes", buckets=DEFAULT_SIZE_BUCKETS)
        histogram.observe(3.0)
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0
        family = NULL_REGISTRY.counter_family("labeled", labels=("x",))
        assert family.labels(x="1") is family.labels(x="2")  # one shared no-op
        gauge = NULL_REGISTRY.gauge("depth")
        gauge.set(9.0)
        assert gauge.value == 0.0
        assert gauge.peak == 0.0


# ---------------------------------------------------------------------- #
# Thread safety
# ---------------------------------------------------------------------- #
class TestRegistryThreadSafety:
    def test_registry_survives_a_hammer(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total")
        histogram = registry.histogram("hammer_sizes", buckets=(1.0, 4.0, 16.0))
        gauge = registry.gauge("hammer_depth")
        family = registry.counter_family("hammer_labeled_total", labels=("worker",))
        errors: list[Exception] = []
        ops_per_thread = 2000

        def hammer(seed: int) -> None:
            try:
                child = family.labels(worker=str(seed % 2))
                for i in range(ops_per_thread):
                    counter.inc()
                    histogram.observe(float(i % 20))
                    gauge.set(float(i))
                    child.inc()
                # Re-resolution under load returns the very same objects.
                assert registry.counter("hammer_total") is counter
                assert family.labels(worker=str(seed % 2)) is child
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Every mutation is lock-protected: none may be lost to a race.
        assert counter.value == 8 * ops_per_thread
        assert histogram.count == 8 * ops_per_thread
        labeled = registry.snapshot()["metrics"]["hammer_labeled_total"]["series"]
        assert sum(series["value"] for series in labeled) == 8 * ops_per_thread

    def test_concurrent_first_resolution_yields_one_family(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(8)
        resolved: list[int] = []
        lock = threading.Lock()

        def resolve() -> None:
            barrier.wait(timeout=5)
            child = registry.counter("contested_total")
            with lock:
                resolved.append(id(child))

        threads = [threading.Thread(target=resolve) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(resolved)) == 1


# ---------------------------------------------------------------------- #
# Dump + format
# ---------------------------------------------------------------------- #
class TestDumpAndFormat:
    def test_dump_metrics_writes_valid_json_atomically(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("served_total").inc(5)
        target = tmp_path / "nested" / "snapshot.json"
        written = dump_metrics(target, registry.snapshot())
        assert written == target
        loaded = json.loads(target.read_text())
        assert loaded["metrics"]["served_total"]["series"][0]["value"] == 5
        # The tmp staging file was replaced away, not left behind.
        assert list(target.parent.iterdir()) == [target]

    def test_format_snapshot_renders_every_kind(self):
        registry = MetricsRegistry()
        registry.counter("served_total").inc(3)
        registry.gauge("lag").set(7.0)
        registry.histogram("wait_seconds", buckets=(0.1, 1.0)).observe(0.05)
        family = registry.counter_family("by_backend_total", labels=("backend",))
        family.labels(backend="ivf").inc()
        snapshot = registry.snapshot()
        snapshot["slo"] = {"qps": 12.5}
        text = format_snapshot(snapshot)
        assert SNAPSHOT_SCHEMA in text
        assert "served_total" in text and " 3" in text
        assert "{backend=ivf}" in text
        assert "peak" in text  # gauges show their high watermark
        assert "count=1" in text  # histograms show count/sum/quantiles
        assert "qps" in text  # the slo block is rendered

    def test_format_snapshot_handles_empty(self):
        assert "(no metrics recorded)" in format_snapshot(NULL_REGISTRY.snapshot())


# ---------------------------------------------------------------------- #
# Engine integration
# ---------------------------------------------------------------------- #
class TestEngineIntegration:
    def test_cache_and_backend_latency_metrics(self):
        registry = MetricsRegistry()
        engine = make_engine()
        seed_engine(engine, 12)
        engine.bind_metrics(registry)
        request = QueryRequest(queries=probe_queries(1), k=3)
        engine.query(request)
        engine.query(request)  # identical request: served from the cache
        families = registry.snapshot()["metrics"]
        by_result = {
            series["labels"]["result"]: series["value"]
            for series in families["engine_cache_requests_total"]["series"]
        }
        assert by_result == {"hit": 1, "miss": 1}
        (latency,) = families["engine_query_seconds"]["series"]
        assert latency["labels"]["backend"] == "bruteforce"
        assert latency["count"] == 1  # only the miss ran a backend scan

    def test_encode_batch_sizes_are_recorded(self):
        registry = MetricsRegistry()
        engine = make_engine()
        engine.bind_metrics(registry)
        engine.ingest([make_trajectory(i) for i in range(3)])
        histogram = registry.snapshot()["metrics"]["engine_encode_batch_size"]
        assert histogram["series"][0]["count"] >= 1
        assert histogram["series"][0]["sum"] == 3  # every trajectory counted once

    def test_bind_metrics_detaches_with_none(self):
        registry = MetricsRegistry()
        engine = make_engine()
        seed_engine(engine, 8)
        engine.bind_metrics(registry)
        engine.bind_metrics(None)
        assert engine.metrics_registry is NULL_REGISTRY
        engine.query(QueryRequest(queries=probe_queries(1), k=2))
        series = registry.snapshot()["metrics"]["engine_cache_requests_total"]["series"]
        # The bind pre-created the hit/miss children; the detach means no
        # traffic ever lands in them.
        assert all(entry["value"] == 0.0 for entry in series)

    def test_replicas_share_the_primary_registry_children(self):
        registry = MetricsRegistry()
        engine = make_engine()
        seed_engine(engine, 8)
        engine.bind_metrics(registry)
        replica = engine.replicate()
        assert replica.metrics_registry is registry
        replica.query(QueryRequest(queries=probe_queries(1), k=2))
        by_result = {
            series["labels"]["result"]: series["value"]
            for series in registry.snapshot()["metrics"]["engine_cache_requests_total"][
                "series"
            ]
        }
        assert by_result["miss"] == 1  # the replica's traffic lands in one place
