"""Runtime crawl metrics: labeled counter/gauge/histogram series.

``repro.core.runmetrics`` is the live-telemetry counterpart to the
post-hoc tracer (:mod:`repro.obs`).  A process-wide
:class:`MetricsRegistry` holds labeled series declared up front in
:data:`METRIC_SPECS` — unknown names or label sets are a programming
error, and histogram bucket boundaries are fixed in the spec so every
snapshot of the same build has the same schema.

Series split into two stability classes, mirroring the trace-digest
split:

* **stable** series are pure functions of *what was measured*: sites
  started/measured/degraded/failed by cause, pages, feature
  invocations, the canonical ``TELEMETRY_COUNTERS``, per-site fetch
  and interpreter work harvested from deterministic counters.  They
  are bit-identical across serial, fork, spawn and kill+resume
  executions of the same seeded survey, and :func:`metrics_digest`
  hashes exactly this projection.
* **unstable** series describe *how this particular execution went*:
  wall-clock RSS gauges, worker heartbeat ages, supervisor fault
  counters (watchdog kills, lease revocations, frame corruptions),
  compile-cache hit mirrors and IPC frame sizes.  They are flagged
  ``stable: false`` in snapshots and excluded from the digest.

Stable series are *derived when a run is read*, never counted live:
the crawl appends one small delta dict per finished site
(:func:`wire_delta`) to the site's shard record, and readers fold the
last record per (condition, domain) through
:meth:`MetricsRegistry.ingest_record` — so totals are a function of
the recorded site set, whatever process measured it, which makes
kill+resume bit-identical.  ``metrics.jsonl`` holds only unstable
series.

Merging is data-driven from the snapshot itself: counters and
histograms add, gauges and mirror counters take the max (``agg``
field), which makes :func:`merge_snapshots` associative and
commutative — the supervisor can fold per-worker snapshots in any
order.

Like the tracer, the module-level helpers (:func:`inc`,
:func:`set_gauge`, :func:`observe`) check one global and return
immediately when no registry is installed, so the instrumentation is
near-free when metrics are off.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from types import SimpleNamespace
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "METRICS_SCHEMA_VERSION",
    "METRIC_SPECS",
    "MetricSpec",
    "MetricsRegistry",
    "TELEMETRY_SERIES",
    "counter_floor",
    "current_registry",
    "failure_cause",
    "inc",
    "merge_snapshots",
    "metrics_digest",
    "observe",
    "render_openmetrics",
    "series_value",
    "set_gauge",
    "set_registry",
    "stable_projection",
    "wire_delta",
]

#: bump on any incompatible snapshot-layout change
METRICS_SCHEMA_VERSION = 1

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: merge modes: "sum" adds matching series, "max" keeps the larger
#: value (gauges, and counters mirroring an external cumulative total)
AGG_SUM = "sum"
AGG_MAX = "max"


class MetricSpec(NamedTuple):
    name: str
    kind: str
    help: str
    stable: bool
    labels: Tuple[str, ...]
    agg: str
    buckets: Optional[Tuple[float, ...]]


def _spec(name, kind, help_text, stable=True, labels=(),
          agg=AGG_SUM, buckets=None):
    if kind == GAUGE:
        agg = AGG_MAX
    return MetricSpec(name, kind, help_text, stable, tuple(labels),
                      agg, tuple(buckets) if buckets else None)


#: per-site page counts: a site is visits_per_site rounds of a handful
#: of pages, so the mass sits low with a long configurable tail.
SITE_PAGES_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0)

#: per-site request counts (pages + subresources + retries).
SITE_REQUESTS_BUCKETS = (5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0)

#: result-pipe frame sizes (measurement + trace payloads).
FRAME_BYTES_BUCKETS = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
)

_SPECS = (
    # -- stable: the crawl's deterministic progress ---------------------
    _spec("crawl_sites_started_total", COUNTER,
          "Site measurements recorded (any outcome).",
          labels=("condition",)),
    _spec("crawl_sites_measured_total", COUNTER,
          "Sites with at least one successful visit round.",
          labels=("condition",)),
    _spec("crawl_sites_degraded_total", COUNTER,
          "Sites whose record lists lost subresources, failed sites "
          "included.",
          labels=("condition",)),
    _spec("crawl_sites_failed_total", COUNTER,
          "Unmeasured sites by structured failure cause.",
          labels=("condition", "cause")),
    _spec("crawl_rounds_partial_total", COUNTER,
          "Visit rounds cut short by a resource budget, by cause.",
          labels=("condition", "cause")),
    _spec("crawl_pages_visited_total", COUNTER,
          "Pages visited across all rounds.",
          labels=("condition",)),
    _spec("crawl_feature_invocations_total", COUNTER,
          "Web-API feature invocations observed.",
          labels=("condition",)),
    _spec("browser_scripts_blocked_total", COUNTER,
          "Scripts blocked by the active condition.",
          labels=("condition",)),
    _spec("browser_interaction_events_total", COUNTER,
          "Synthetic interaction events dispatched.",
          labels=("condition",)),
    _spec("browser_degraded_resources_total", COUNTER,
          "Subresources lost to exhausted retries.",
          labels=("condition",)),
    _spec("fetch_requests_total", COUNTER,
          "HTTP requests issued by the fetcher.",
          labels=("condition",)),
    _spec("fetch_requests_failed_total", COUNTER,
          "Requests that failed after retries.",
          labels=("condition",)),
    _spec("fetch_requests_blocked_total", COUNTER,
          "Requests blocked by the active condition.",
          labels=("condition",)),
    _spec("fetch_requests_retried_total", COUNTER,
          "Per-request retry attempts.",
          labels=("condition",)),
    _spec("fetch_requests_short_circuited_total", COUNTER,
          "Requests rejected by an open circuit breaker.",
          labels=("condition",)),
    _spec("fetch_breaker_opens_total", COUNTER,
          "Circuit breaker open transitions.",
          labels=("condition",)),
    _spec("fetch_bytes_total", COUNTER,
          "Response body bytes fetched.",
          labels=("condition",)),
    _spec("interp_steps_total", COUNTER,
          "Budget-metered interpreter steps executed.",
          labels=("condition",)),
    _spec("interp_allocations_total", COUNTER,
          "Budget-metered allocations counted.",
          labels=("condition",)),
    _spec("crawl_site_pages", HISTOGRAM,
          "Pages visited per site.",
          labels=("condition",), buckets=SITE_PAGES_BUCKETS),
    _spec("crawl_site_requests", HISTOGRAM,
          "Requests issued per site.",
          labels=("condition",), buckets=SITE_REQUESTS_BUCKETS),
    # -- unstable: how this particular execution went -------------------
    _spec("supervisor_watchdog_kills_total", COUNTER,
          "Workers killed by the heartbeat watchdog.",
          stable=False),
    _spec("supervisor_lease_revocations_total", COUNTER,
          "Site leases revoked past the lease deadline.",
          stable=False),
    _spec("supervisor_frame_corruptions_total", COUNTER,
          "Result-pipe frame defects by decoder reason.",
          stable=False, labels=("reason",)),
    _spec("supervisor_stale_results_total", COUNTER,
          "Results fenced for carrying a stale lease epoch.",
          stable=False),
    _spec("supervisor_worker_faults_total", COUNTER,
          "Typed fault reports received from workers.",
          stable=False),
    _spec("supervisor_spawn_retries_total", COUNTER,
          "Worker spawn attempts that had to be retried.",
          stable=False),
    _spec("supervisor_memory_recycles_total", COUNTER,
          "Workers recycled for memory pressure.",
          stable=False),
    _spec("compile_cache_hits_total", COUNTER,
          "Compile-cache hits (cumulative mirror per process).",
          stable=False, labels=("proc",), agg=AGG_MAX),
    _spec("compile_cache_misses_total", COUNTER,
          "Compile-cache misses (cumulative mirror per process).",
          stable=False, labels=("proc",), agg=AGG_MAX),
    _spec("worker_rss_mb", GAUGE,
          "Resident-set high water per process, in MiB.",
          stable=False, labels=("proc",)),
    _spec("worker_heartbeat_age_seconds", GAUGE,
          "Seconds since each worker slot's last heartbeat.",
          stable=False, labels=("slot",)),
    _spec("crawl_inflight_sites", GAUGE,
          "Sites currently leased to workers.",
          stable=False),
    _spec("ipc_frame_bytes", HISTOGRAM,
          "Result-pipe message sizes seen by the supervisor.",
          stable=False, buckets=FRAME_BYTES_BUCKETS),
)

METRIC_SPECS: Dict[str, MetricSpec] = {spec.name: spec for spec in _SPECS}

#: canonical telemetry counter -> the stable series mirroring it.
TELEMETRY_SERIES = {
    "scripts_blocked": "browser_scripts_blocked_total",
    "requests_blocked": "fetch_requests_blocked_total",
    "interaction_events": "browser_interaction_events_total",
    "degraded_resources": "browser_degraded_resources_total",
    "requests_retried": "fetch_requests_retried_total",
    "breaker_opens": "fetch_breaker_opens_total",
}

#: wire-delta key -> stable series for the extras a measurement does
#: not itself record (cumulative fetcher/interpreter counters deltaed
#: around the site by the measuring process).
_WIRE_SERIES = {
    "requests": "fetch_requests_total",
    "requests_failed": "fetch_requests_failed_total",
    "short_circuited": "fetch_requests_short_circuited_total",
    "bytes": "fetch_bytes_total",
    "steps": "interp_steps_total",
    "allocations": "interp_allocations_total",
}


def wire_delta(requests=0, requests_failed=0, short_circuited=0,
               bytes_fetched=0, steps=0, allocations=0):
    """The per-site sibling payload: zero entries dropped.

    Only carries what the measurement record cannot reproduce; the
    rest of a site's stable delta is derived from the measurement
    itself when the run is read.
    """
    delta = {
        "requests": requests,
        "requests_failed": requests_failed,
        "short_circuited": short_circuited,
        "bytes": bytes_fetched,
        "steps": steps,
        "allocations": allocations,
    }
    return {key: value for key, value in delta.items() if value}


def failure_cause(measurement) -> str:
    """Stable slug for an unmeasured site's failure cause."""
    cause = getattr(measurement, "budget_cause", None)
    if cause:
        return str(cause)
    reason = str(getattr(measurement, "failure_reason", None) or "").strip()
    if not reason:
        return "unknown"
    return reason.split(":", 1)[0].strip()[:48] or "unknown"


def _as_count(value) -> int:
    """Coerce a (possibly disk-loaded) delta value to a safe count."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0
    return int(value) if value > 0 else 0


class _Histogram:
    """Fixed-bucket histogram cell: per-bucket counts plus sum/count."""

    __slots__ = ("counts", "total", "count")

    def __init__(self, n_bounds: int) -> None:
        self.counts = [0] * (n_bounds + 1)  # +1 for the +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float, bounds: Tuple[float, ...]) -> None:
        self.counts[bisect_left(bounds, value)] += 1
        self.total += value
        self.count += 1


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Process-wide labeled metric series, declared in METRIC_SPECS."""

    __slots__ = ("_series",)

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                           Any] = {}

    # -- recording -----------------------------------------------------

    def _check(self, name: str, kind: str,
               labels: Dict[str, Any]) -> MetricSpec:
        spec = METRIC_SPECS.get(name)
        if spec is None:
            raise KeyError("undeclared metric %r" % name)
        if spec.kind != kind:
            raise TypeError(
                "metric %r is a %s, not a %s" % (name, spec.kind, kind)
            )
        if tuple(sorted(labels)) != tuple(sorted(spec.labels)):
            raise ValueError(
                "metric %r takes labels %r, got %r"
                % (name, spec.labels, tuple(sorted(labels)))
            )
        return spec

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        self._check(name, COUNTER, labels)
        if value < 0:
            raise ValueError(
                "counter %r cannot decrease (inc by %r)" % (name, value)
            )
        key = (name, _label_key(labels))
        self._series[key] = self._series.get(key, 0) + value

    def counter_floor(self, name: str, value: float,
                      **labels: Any) -> None:
        """Mirror an external cumulative counter: keep the max seen."""
        self._check(name, COUNTER, labels)
        key = (name, _label_key(labels))
        current = self._series.get(key, 0)
        if value > current:
            self._series[key] = value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self._check(name, GAUGE, labels)
        self._series[(name, _label_key(labels))] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        spec = self._check(name, HISTOGRAM, labels)
        key = (name, _label_key(labels))
        cell = self._series.get(key)
        if cell is None:
            cell = self._series[key] = _Histogram(len(spec.buckets))
        cell.observe(value, spec.buckets)

    # -- site-boundary harvest -----------------------------------------

    def ingest_site(self, condition: str, measurement,
                    wire: Optional[Dict[str, Any]] = None) -> None:
        """Fold one recorded site into the stable series.

        ``measurement`` is the site's :class:`SiteMeasurement` or a
        view of its shard record; ``wire`` is the sibling delta built
        by :func:`wire_delta` in the measuring process, or None when
        the site never ran (quarantine synthesis, old runs).  Ingest
        is per recorded site, so totals are a pure function of the
        recorded set — the kill+resume determinism hinge.
        """
        self.inc("crawl_sites_started_total", condition=condition)
        if getattr(measurement, "measured", False):
            self.inc("crawl_sites_measured_total", condition=condition)
        else:
            self.inc("crawl_sites_failed_total", condition=condition,
                     cause=failure_cause(measurement))
        if getattr(measurement, "degraded", False):
            self.inc("crawl_sites_degraded_total", condition=condition)
        partial = _as_count(getattr(measurement, "rounds_partial", 0))
        if partial:
            cause = getattr(measurement, "budget_cause", None) or "unknown"
            self.inc("crawl_rounds_partial_total", partial,
                     condition=condition, cause=str(cause))
        pages = _as_count(getattr(measurement, "pages", 0))
        if pages:
            self.inc("crawl_pages_visited_total", pages,
                     condition=condition)
        invocations = _as_count(getattr(measurement, "invocations", 0))
        if invocations:
            self.inc("crawl_feature_invocations_total", invocations,
                     condition=condition)
        for counter, series in TELEMETRY_SERIES.items():
            value = _as_count(getattr(measurement, counter, 0))
            if value:
                self.inc(series, value, condition=condition)
        requests = 0
        if wire:
            for key, series in _WIRE_SERIES.items():
                value = _as_count(wire.get(key, 0))
                if value:
                    self.inc(series, value, condition=condition)
            requests = _as_count(wire.get("requests", 0))
        self.observe("crawl_site_pages", float(pages),
                     condition=condition)
        self.observe("crawl_site_requests", float(requests),
                     condition=condition)

    def ingest_record(self, condition: str,
                      record: Dict[str, Any]) -> None:
        """Fold one measurement-shard record into the stable series."""
        raw = record["measurement"]
        site = SimpleNamespace(**raw)
        site.measured = _as_count(raw.get("rounds_ok")) > 0
        wire = record.get("metrics")
        self.ingest_site(condition, site,
                         wire if isinstance(wire, dict) else None)

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Schema-stable serialization of every live series."""
        series: List[Dict[str, Any]] = []
        for (name, labels), cell in self._series.items():
            spec = METRIC_SPECS[name]
            entry: Dict[str, Any] = {
                "name": name,
                "kind": spec.kind,
                "stable": spec.stable,
                "agg": spec.agg,
                "labels": dict(labels),
            }
            if spec.kind == HISTOGRAM:
                entry["bounds"] = list(spec.buckets)
                entry["buckets"] = list(cell.counts)
                entry["sum"] = cell.total
                entry["count"] = cell.count
            else:
                entry["value"] = cell
            series.append(entry)
        series.sort(key=_entry_key)
        return {"schema": METRICS_SCHEMA_VERSION, "series": series}


def _entry_key(entry: Dict[str, Any]):
    return (entry.get("name", ""),
            tuple(sorted(entry.get("labels", {}).items())))


def merge_snapshots(base: Dict[str, Any],
                    other: Dict[str, Any]) -> Dict[str, Any]:
    """Fold two snapshots; associative and commutative.

    Merge semantics ride in the snapshots themselves (``agg`` / kind),
    so snapshots from other processes — even slightly newer builds —
    merge without consulting local specs.  Histograms with mismatched
    bounds raise: that is a schema break, not mergeable data.
    """
    merged: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                 Dict[str, Any]] = {}
    for snapshot in (base, other):
        for entry in snapshot.get("series", ()):
            key = _entry_key(entry)
            current = merged.get(key)
            if current is None:
                merged[key] = _copy_entry(entry)
                continue
            if entry.get("kind") == HISTOGRAM:
                if current.get("bounds") != entry.get("bounds"):
                    raise ValueError(
                        "histogram %r bucket bounds differ between "
                        "snapshots" % (entry.get("name"),)
                    )
                current["buckets"] = [
                    a + b for a, b in zip(current["buckets"],
                                          entry["buckets"])
                ]
                current["sum"] = current.get("sum", 0) + entry.get("sum", 0)
                current["count"] = (current.get("count", 0)
                                    + entry.get("count", 0))
            elif entry.get("agg") == AGG_MAX or entry.get("kind") == GAUGE:
                current["value"] = max(current.get("value", 0),
                                       entry.get("value", 0))
            else:
                current["value"] = (current.get("value", 0)
                                    + entry.get("value", 0))
    series = [merged[key] for key in sorted(merged)]
    return {
        "schema": max(base.get("schema", METRICS_SCHEMA_VERSION),
                      other.get("schema", METRICS_SCHEMA_VERSION)),
        "series": series,
    }


def _copy_entry(entry: Dict[str, Any]) -> Dict[str, Any]:
    copy = dict(entry)
    copy["labels"] = dict(entry.get("labels", {}))
    if entry.get("kind") == HISTOGRAM:
        copy["bounds"] = list(entry.get("bounds", ()))
        copy["buckets"] = list(entry.get("buckets", ()))
    return copy


# -- digest ------------------------------------------------------------

def stable_projection(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The digest-visible subset: stable series only."""
    return {
        "schema": snapshot.get("schema", METRICS_SCHEMA_VERSION),
        "series": [entry for entry in snapshot.get("series", ())
                   if entry.get("stable")],
    }


def metrics_digest(snapshot: Dict[str, Any]) -> str:
    """Canonical content hash of a snapshot's deterministic series."""
    payload = json.dumps(stable_projection(snapshot), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def series_value(snapshot: Dict[str, Any], name: str,
                 **labels: Any) -> Optional[float]:
    """Value of one counter/gauge series in a snapshot, or None."""
    want = _label_key(labels)
    for entry in snapshot.get("series", ()):
        if entry.get("name") == name and _entry_key(entry)[1] == want:
            return entry.get("value")
    return None


# -- OpenMetrics exposition --------------------------------------------

def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels_text(labels: Dict[str, Any],
                 extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = sorted((k, str(v)) for k, v in labels.items())
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join('%s="%s"' % (k, _escape_label(v)) for k, v in pairs)
    return "{%s}" % body


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def render_openmetrics(snapshot: Dict[str, Any]) -> str:
    """OpenMetrics text exposition of one snapshot.

    Counter families drop their ``_total`` suffix in TYPE/HELP lines
    (samples keep it), histograms emit cumulative ``_bucket`` samples
    plus ``_count``/``_sum``, and the exposition ends with ``# EOF``.
    """
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for entry in snapshot.get("series", ()):
        by_name.setdefault(entry.get("name", ""), []).append(entry)
    lines: List[str] = []
    for name in sorted(by_name):
        entries = sorted(by_name[name], key=_entry_key)
        kind = entries[0].get("kind", GAUGE)
        family = name
        if kind == COUNTER and family.endswith("_total"):
            family = family[:-len("_total")]
        lines.append("# TYPE %s %s" % (family, kind))
        spec = METRIC_SPECS.get(name)
        if spec is not None:
            lines.append("# HELP %s %s" % (family, spec.help))
        for entry in entries:
            labels = entry.get("labels", {})
            if kind == HISTOGRAM:
                bounds = entry.get("bounds", ())
                buckets = entry.get("buckets", ())
                running = 0
                for bound, count in zip(bounds, buckets):
                    running += count
                    lines.append("%s_bucket%s %s" % (
                        family,
                        _labels_text(labels, ("le", _fmt(float(bound)))),
                        _fmt(running),
                    ))
                running += buckets[len(bounds)] if len(buckets) > len(bounds) else 0
                lines.append("%s_bucket%s %s" % (
                    family, _labels_text(labels, ("le", "+Inf")),
                    _fmt(running),
                ))
                lines.append("%s_count%s %s" % (
                    family, _labels_text(labels),
                    _fmt(entry.get("count", 0)),
                ))
                lines.append("%s_sum%s %s" % (
                    family, _labels_text(labels),
                    _fmt(entry.get("sum", 0)),
                ))
            else:
                lines.append("%s%s %s" % (
                    entry.get("name", family), _labels_text(labels),
                    _fmt(entry.get("value", 0)),
                ))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- module-level registry plumbing ------------------------------------

_REGISTRY: Optional[MetricsRegistry] = None


def set_registry(
    registry: Optional[MetricsRegistry],
) -> Optional[MetricsRegistry]:
    """Install the process registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def current_registry() -> Optional[MetricsRegistry]:
    return _REGISTRY


def inc(name: str, value: float = 1, **labels: Any) -> None:
    registry = _REGISTRY
    if registry is not None:
        registry.inc(name, value, **labels)


def counter_floor(name: str, value: float, **labels: Any) -> None:
    registry = _REGISTRY
    if registry is not None:
        registry.counter_floor(name, value, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    registry = _REGISTRY
    if registry is not None:
        registry.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    registry = _REGISTRY
    if registry is not None:
        registry.observe(name, value, **labels)
