"""Unit tests for the runtime metrics registry (``repro.core.runmetrics``).

Covers the registry API surface (typed series, label checking, bucket
semantics), snapshot schema and canonical ordering, the stable/unstable
split and its digest, data-driven snapshot merging, per-site ingestion,
the OpenMetrics exposition, and the process-global plumbing the crawl
instruments through.
"""

import json

import pytest

from repro.browser.session import SiteMeasurement
from repro.core import runmetrics
from repro.core.persistence import measurement_to_dict
from repro.core.runmetrics import (
    FRAME_BYTES_BUCKETS,
    METRIC_SPECS,
    MetricsRegistry,
    failure_cause,
    merge_snapshots,
    metrics_digest,
    render_openmetrics,
    series_value,
    stable_projection,
    wire_delta,
)
from repro.net.resilience import DegradedResource


def measured_site(domain="a.test", condition="default", **overrides):
    fields = dict(
        rounds_completed=1, rounds_ok=1, pages=13, invocations=200,
        scripts_blocked=3, requests_blocked=4, interaction_events=30,
        requests_retried=2, breaker_opens=1, degraded_resources=0,
    )
    fields.update(overrides)
    return SiteMeasurement(domain=domain, condition=condition, **fields)


def failed_site(domain="f.test", condition="default", **overrides):
    fields = dict(
        rounds_completed=1, rounds_ok=0,
        failure_reason="host not found: f.test",
    )
    fields.update(overrides)
    return SiteMeasurement(domain=domain, condition=condition, **fields)


class TestRegistryBasics:
    def test_counter_accumulates_and_snapshots(self):
        registry = MetricsRegistry()
        registry.inc("crawl_pages_visited_total", 5, condition="default")
        registry.inc("crawl_pages_visited_total", 8, condition="default")
        snap = registry.snapshot()
        assert series_value(
            snap, "crawl_pages_visited_total", condition="default"
        ) == 13

    def test_unknown_series_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.inc("no_such_series_total")

    def test_wrong_labels_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("crawl_pages_visited_total")  # missing label
        with pytest.raises(ValueError):
            registry.inc("crawl_pages_visited_total",
                         condition="default", extra="nope")

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("crawl_pages_visited_total", -1,
                         condition="default")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.inc("worker_rss_mb", proc="1")  # a gauge
        with pytest.raises(TypeError):
            registry.set_gauge("crawl_pages_visited_total", 3,
                               condition="default")
        with pytest.raises(TypeError):
            registry.observe("crawl_pages_visited_total", 3.0,
                             condition="default")

    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("worker_rss_mb", 50.0, proc="7")
        registry.set_gauge("worker_rss_mb", 42.0, proc="7")
        assert series_value(
            registry.snapshot(), "worker_rss_mb", proc="7"
        ) == 42.0

    def test_counter_floor_takes_the_max(self):
        registry = MetricsRegistry()
        registry.counter_floor("compile_cache_hits_total", 10, proc="1")
        registry.counter_floor("compile_cache_hits_total", 7, proc="1")
        registry.counter_floor("compile_cache_hits_total", 12, proc="1")
        assert series_value(
            registry.snapshot(), "compile_cache_hits_total", proc="1"
        ) == 12

    def test_snapshot_is_canonically_sorted(self):
        registry = MetricsRegistry()
        registry.inc("crawl_pages_visited_total", 1, condition="zz")
        registry.inc("crawl_pages_visited_total", 1, condition="aa")
        registry.inc("browser_scripts_blocked_total", 1, condition="m")
        snap = registry.snapshot()
        keys = [
            (entry["name"], tuple(sorted(entry["labels"].items())))
            for entry in snap["series"]
        ]
        assert keys == sorted(keys)

    def test_snapshot_roundtrips_through_json(self):
        registry = MetricsRegistry()
        registry.inc("crawl_pages_visited_total", 3, condition="default")
        registry.observe("ipc_frame_bytes", 2048.0)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestHistogram:
    def test_bucket_le_semantics(self):
        registry = MetricsRegistry()
        # 1024 is a declared bound: value == bound lands IN the bucket.
        registry.observe("ipc_frame_bytes", 1024.0)
        registry.observe("ipc_frame_bytes", 1025.0)
        registry.observe("ipc_frame_bytes", 10.0)
        entry = [
            e for e in registry.snapshot()["series"]
            if e["name"] == "ipc_frame_bytes"
        ][0]
        assert tuple(entry["bounds"]) == FRAME_BYTES_BUCKETS
        assert len(entry["buckets"]) == len(FRAME_BYTES_BUCKETS) + 1
        by_bound = dict(zip(entry["bounds"], entry["buckets"]))
        assert by_bound[256] == 1        # 10
        assert by_bound[1024] == 1       # 1024 inclusive
        assert by_bound[4096] == 1       # 1025
        assert entry["count"] == 3
        assert entry["sum"] == pytest.approx(2059.0)

    def test_overflow_bucket(self):
        registry = MetricsRegistry()
        registry.observe("ipc_frame_bytes", 10_000_000.0)
        entry = [
            e for e in registry.snapshot()["series"]
            if e["name"] == "ipc_frame_bytes"
        ][0]
        assert entry["buckets"][-1] == 1
        assert sum(entry["buckets"]) == entry["count"] == 1


class TestStableSplit:
    def test_specs_declare_the_split(self):
        stable = {n for n, s in METRIC_SPECS.items() if s.stable}
        assert "crawl_sites_measured_total" in stable
        assert "fetch_requests_total" in stable
        assert "worker_rss_mb" not in stable
        assert "supervisor_watchdog_kills_total" not in stable
        assert "ipc_frame_bytes" not in stable

    def test_projection_drops_unstable_series(self):
        registry = MetricsRegistry()
        registry.inc("crawl_pages_visited_total", 2, condition="default")
        registry.set_gauge("worker_rss_mb", 55.0, proc="9")
        registry.inc("supervisor_watchdog_kills_total")
        names = {
            entry["name"]
            for entry in stable_projection(registry.snapshot())["series"]
        }
        assert names == {"crawl_pages_visited_total"}

    def test_digest_ignores_unstable_changes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry in (a, b):
            registry.inc("crawl_pages_visited_total", 2,
                         condition="default")
        b.set_gauge("worker_rss_mb", 123.0, proc="42")
        b.inc("supervisor_watchdog_kills_total", 7)
        assert metrics_digest(a.snapshot()) == metrics_digest(b.snapshot())

    def test_digest_sees_stable_changes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("crawl_pages_visited_total", 2, condition="default")
        b.inc("crawl_pages_visited_total", 3, condition="default")
        assert metrics_digest(a.snapshot()) != metrics_digest(b.snapshot())


class TestMerge:
    def test_counters_add_gauges_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("crawl_pages_visited_total", 2, condition="default")
        b.inc("crawl_pages_visited_total", 5, condition="default")
        a.set_gauge("worker_rss_mb", 40.0, proc="1")
        b.set_gauge("worker_rss_mb", 60.0, proc="1")
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert series_value(merged, "crawl_pages_visited_total",
                            condition="default") == 7
        assert series_value(merged, "worker_rss_mb", proc="1") == 60.0

    def test_mirror_counters_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter_floor("compile_cache_hits_total", 10, proc="1")
        b.counter_floor("compile_cache_hits_total", 25, proc="1")
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert series_value(merged, "compile_cache_hits_total",
                            proc="1") == 25

    def test_histograms_merge_elementwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("ipc_frame_bytes", 100.0)
        b.observe("ipc_frame_bytes", 100.0)
        b.observe("ipc_frame_bytes", 100_000.0)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        entry = [e for e in merged["series"]
                 if e["name"] == "ipc_frame_bytes"][0]
        assert entry["count"] == 3
        assert entry["sum"] == pytest.approx(100_200.0)

    def test_mismatched_bounds_refused(self):
        a = MetricsRegistry()
        a.observe("ipc_frame_bytes", 100.0)
        snap = a.snapshot()
        other = json.loads(json.dumps(snap))
        for entry in other["series"]:
            entry["bounds"] = [1, 2, 3]
            entry["buckets"] = [0, 0, 0, 1]
        with pytest.raises(ValueError):
            merge_snapshots(snap, other)

    def test_disjoint_series_union(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("crawl_pages_visited_total", 1, condition="default")
        b.inc("browser_scripts_blocked_total", 2, condition="default")
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert series_value(merged, "crawl_pages_visited_total",
                            condition="default") == 1
        assert series_value(merged, "browser_scripts_blocked_total",
                            condition="default") == 2


class TestIngestSite:
    def test_measured_site(self):
        registry = MetricsRegistry()
        wire = wire_delta(requests=40, bytes_fetched=9000, steps=100)
        registry.ingest_site("default", measured_site(), wire)
        snap = registry.snapshot()
        assert series_value(snap, "crawl_sites_started_total",
                            condition="default") == 1
        assert series_value(snap, "crawl_sites_measured_total",
                            condition="default") == 1
        assert series_value(snap, "crawl_pages_visited_total",
                            condition="default") == 13
        assert series_value(snap, "fetch_requests_total",
                            condition="default") == 40
        assert series_value(snap, "fetch_bytes_total",
                            condition="default") == 9000
        assert series_value(snap, "interp_steps_total",
                            condition="default") == 100
        assert series_value(snap, "browser_scripts_blocked_total",
                            condition="default") == 3
        assert series_value(snap, "fetch_requests_retried_total",
                            condition="default") == 2

    def test_failed_site_keyed_by_cause(self):
        registry = MetricsRegistry()
        registry.ingest_site("default", failed_site(), None)
        snap = registry.snapshot()
        assert series_value(snap, "crawl_sites_failed_total",
                            condition="default",
                            cause="host not found") == 1
        assert series_value(snap, "crawl_sites_measured_total",
                            condition="default") is None

    def test_budget_cause_wins_over_reason(self):
        site = failed_site(budget_cause="deadline",
                           failure_reason="deadline blown: x")
        assert failure_cause(site) == "deadline"

    def test_site_histograms_observed_once(self):
        registry = MetricsRegistry()
        registry.ingest_site(
            "default", measured_site(), wire_delta(requests=30)
        )
        registry.ingest_site("default", failed_site(pages=0), None)
        pages = [e for e in registry.snapshot()["series"]
                 if e["name"] == "crawl_site_pages"][0]
        assert pages["count"] == 2
        assert pages["sum"] == pytest.approx(13.0)

    def test_failed_site_that_degraded_counts_as_degraded(self):
        """The degraded series counts every record listing lost
        subresources — a failed site's too — live or read back."""
        site = failed_site(
            degraded=[DegradedResource("subresource:script",
                                       "http://f.test/a.js")],
            degraded_resources=1,
        )
        live, recorded = MetricsRegistry(), MetricsRegistry()
        live.ingest_site("default", site, None)
        recorded.ingest_record(
            "default", {"measurement": measurement_to_dict(site)}
        )
        for registry in (live, recorded):
            snap = registry.snapshot()
            assert series_value(snap, "crawl_sites_degraded_total",
                                condition="default") == 1
            assert series_value(snap, "crawl_sites_failed_total",
                                condition="default",
                                cause="host not found") == 1
            assert series_value(snap, "crawl_sites_measured_total",
                                condition="default") is None
        assert (metrics_digest(live.snapshot())
                == metrics_digest(recorded.snapshot()))
        assert "failed sites included" in (
            METRIC_SPECS["crawl_sites_degraded_total"].help
        )

    def test_recorded_values_are_coerced_to_counts(self):
        """Values read from disk pass through the count coercion."""
        registry = MetricsRegistry()
        registry.ingest_record("default", {
            "measurement": {"rounds_ok": "1", "pages": -3,
                            "invocations": 2.0, "failure_reason": 7},
            "metrics": {"requests": True, "steps": 5},
        })
        snap = registry.snapshot()
        assert series_value(snap, "crawl_sites_failed_total",
                            condition="default", cause="7") == 1
        assert series_value(snap, "crawl_pages_visited_total",
                            condition="default") is None
        assert series_value(snap, "crawl_feature_invocations_total",
                            condition="default") == 2
        assert series_value(snap, "fetch_requests_total",
                            condition="default") is None
        assert series_value(snap, "interp_steps_total",
                            condition="default") == 5

    def test_wire_delta_drops_zero_entries(self):
        assert wire_delta() == {}
        assert wire_delta(requests=3) == {"requests": 3}

    def test_rehydration_matches_live_ingest(self):
        """Ingesting from recovered records equals live ingestion."""
        live, rehydrated = MetricsRegistry(), MetricsRegistry()
        sites = [
            (measured_site("a.test"), wire_delta(requests=10, steps=5)),
            (failed_site("b.test"), None),
            (measured_site("c.test", pages=4), wire_delta(requests=2)),
        ]
        for site, wire in sites:
            live.ingest_site("default", site, wire)
        # A resume sees the same measurements and siblings, any order.
        for site, wire in reversed(sites):
            rehydrated.ingest_site("default", site, wire)
        assert (metrics_digest(live.snapshot())
                == metrics_digest(rehydrated.snapshot()))


class TestOpenMetrics:
    def test_exposition_shape(self):
        registry = MetricsRegistry()
        registry.inc("crawl_pages_visited_total", 5, condition="default")
        registry.observe("ipc_frame_bytes", 100.0)
        registry.set_gauge("worker_rss_mb", 33.5, proc="1")
        text = render_openmetrics(registry.snapshot())
        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        assert "# TYPE crawl_pages_visited counter" in lines
        assert ("crawl_pages_visited_total{condition=\"default\"} 5"
                in lines)
        assert "# TYPE worker_rss_mb gauge" in lines
        assert "worker_rss_mb{proc=\"1\"} 33.5" in lines
        assert "# TYPE ipc_frame_bytes histogram" in lines
        assert "ipc_frame_bytes_bucket{le=\"+Inf\"} 1" in lines
        assert "ipc_frame_bytes_count 1" in lines

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        for value in (100.0, 2000.0, 2_000_000.0):
            registry.observe("ipc_frame_bytes", value)
        text = render_openmetrics(registry.snapshot())
        counts = []
        for line in text.splitlines():
            if line.startswith("ipc_frame_bytes_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert counts[-1] == 3  # +Inf sees everything

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.inc("crawl_sites_failed_total", condition="default",
                     cause='bad "quote"\nline')
        text = render_openmetrics(registry.snapshot())
        assert 'cause="bad \\"quote\\"\\nline"' in text


class TestModulePlumbing:
    def test_helpers_are_noops_without_a_registry(self):
        previous = runmetrics.set_registry(None)
        try:
            runmetrics.inc("crawl_pages_visited_total",
                           condition="default")
            runmetrics.set_gauge("worker_rss_mb", 1.0, proc="1")
            runmetrics.observe("ipc_frame_bytes", 1.0)
            assert runmetrics.current_registry() is None
        finally:
            runmetrics.set_registry(previous)

    def test_install_and_restore(self):
        registry = MetricsRegistry()
        previous = runmetrics.set_registry(registry)
        try:
            assert runmetrics.current_registry() is registry
            runmetrics.inc("crawl_pages_visited_total", 4,
                           condition="default")
            assert series_value(
                registry.snapshot(), "crawl_pages_visited_total",
                condition="default",
            ) == 4
        finally:
            runmetrics.set_registry(previous)
