"""Read-only status and metrics views over a checkpointed run.

``repro status`` and ``repro metrics`` answer the operator's two
questions about a crawl — *how far along is it* and *what is it doing*
— without ever acquiring the run lock or writing a byte: both surfaces
may be pointed at a run another process is actively appending to.
Everything here reads the durable artifacts the crawl already
maintains:

* ``shard-<condition>.jsonl`` — the measurement records.  Progress
  and every stable metric series are derived from them at read time,
  folding the last record per domain through
  :meth:`~repro.core.runmetrics.MetricsRegistry.ingest_record`.
* ``metrics.jsonl`` — the unstable snapshots (worker RSS, heartbeat
  ages, fault counters) the metrics pump appends on its heartbeat
  cadence; their ``at``/``done`` envelope gives the throughput.
  Stable series in snapshots of older builds are ignored.
* ``manifest.json`` / ``quarantine.json`` / ``leases.json`` /
  ``run.lock`` — run identity, strike table, fencing state, liveness.

A torn tail on a shard or on ``metrics.jsonl`` (an append in flight)
is silently dropped, never repaired from here — repair belongs to
``repro fsck --repair`` under the lock.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.core import runmetrics
from repro.core.checkpoint import (
    LEASES_NAME,
    MANIFEST_NAME,
    METRICS_NAME,
    QUARANTINE_NAME,
    CheckpointError,
    load_metrics_records,
    load_shard_records,
    shard_name,
)
from repro.core.reporting import render_table
from repro.core.runmetrics import metrics_digest, series_value
from repro.core.storage import LOCK_NAME, pid_alive, read_lock


class StatusError(ValueError):
    """The directory does not hold a readable run."""


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def load_metrics_snapshots(
    run_dir: str,
) -> Tuple[List[Dict[str, Any]], int]:
    """Every snapshot record in ``metrics.jsonl`` (read-only).

    Returns ``(records, dropped)`` where ``dropped`` counts a torn
    trailing write (tolerated: the crawl may be mid-append).  Missing
    file means a metrics-off or not-yet-snapshotted run: ``([], 0)``.
    """
    path = os.path.join(run_dir, METRICS_NAME)
    if not os.path.exists(path):
        return [], 0
    return load_metrics_records(path, repair=False)


def _manifest(run_dir: str) -> Dict[str, Any]:
    manifest = _read_json(os.path.join(run_dir, MANIFEST_NAME))
    if manifest is None:
        raise StatusError(
            "%s: no readable %s — not a run directory"
            % (run_dir, MANIFEST_NAME)
        )
    return manifest


def read_sites(
    run_dir: str, manifest: Dict[str, Any],
    corrupt: Optional[List[str]] = None,
) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """condition -> domain -> last record of its measurement shard.

    Read-only: a torn trailing write (an append in flight) is dropped,
    not repaired.  A shard corrupt mid-file raises
    :class:`~repro.core.checkpoint.CheckpointError` or, given a
    ``corrupt`` list, is named there and read as empty.
    """
    sites: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for condition in map(str, manifest.get("conditions", [])):
        path = os.path.join(run_dir, shard_name(condition))
        records: List[Dict[str, Any]] = []
        if os.path.exists(path):
            try:
                records, _ = load_shard_records(path, repair=False)
            except CheckpointError:
                if corrupt is None:
                    raise
                corrupt.append(shard_name(condition))
        sites[condition] = {record["domain"]: record for record in records}
    return sites


def run_series(
    sites: Dict[str, Dict[str, Dict[str, Any]]],
    latest: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The stable series of ``condition -> domain -> record``, plus the
    unstable series of the ``latest`` snapshot envelope when given."""
    registry = runmetrics.MetricsRegistry()
    for condition, by_domain in sites.items():
        for record in by_domain.values():
            registry.ingest_record(condition, record)
    if latest is None:
        return registry.snapshot()
    unstable = [
        entry for entry in latest["metrics"].get("series", ())
        if not entry.get("stable")
    ]
    return runmetrics.merge_snapshots(registry.snapshot(),
                                      {"series": unstable})


def metrics_view(run_dir: str) -> Dict[str, Any]:
    """The latest snapshot envelope, carrying the run's full series.

    Stable series come from the shards; the latest ``metrics.jsonl``
    snapshot contributes its unstable series and its envelope (a run
    without snapshots, e.g. ``--no-metrics``, gets the stable series
    alone).  Corrupt files raise
    :class:`~repro.core.checkpoint.CheckpointError`.
    """
    sites = read_sites(run_dir, _manifest(run_dir))
    records, _ = load_metrics_snapshots(run_dir)
    latest = records[-1] if records else None
    view = dict(latest) if latest is not None else {}
    view["metrics"] = run_series(sites, latest)
    return view


def run_metrics_digest(run_dir: str) -> str:
    """Digest of the run's stable series, derived from its shards.

    The determinism matrix keys on this: two runs of the same
    configuration must agree whatever their process topology, kill
    schedule, chaos arm or ``--no-metrics`` setting.
    """
    sites = read_sites(run_dir, _manifest(run_dir))
    return metrics_digest(run_series(sites))


# ---------------------------------------------------------------------------
# status assembly


def _series_entries(
    snapshot: Dict[str, Any], name: str
) -> List[Dict[str, Any]]:
    return [
        entry for entry in snapshot.get("series", [])
        if entry.get("name") == name
    ]


def _throughput(
    records: List[Dict[str, Any]],
) -> Tuple[Optional[float], Optional[float]]:
    """(sites per minute, ETA seconds) from the snapshot trail.

    Wall-clock derived, so inherently unstable — reported, never
    digested.  Needs two snapshots with both time and progress between
    them; a freshly started (or metrics-off) run reports neither.
    """
    if len(records) < 2:
        return None, None
    first, last = records[0], records[-1]
    elapsed = float(last.get("at", 0)) - float(first.get("at", 0))
    done_first = sum(first.get("done", {}).values())
    done_last = sum(last.get("done", {}).values())
    if elapsed <= 0 or done_last <= done_first:
        return None, None
    rate = (done_last - done_first) / elapsed * 60.0
    remaining = max(0, int(last.get("total", 0)) - done_last)
    eta = remaining / rate * 60.0 if rate > 0 else None
    return round(rate, 2), round(eta, 1) if eta is not None else None


def _condition_breakdown(
    snapshot: Dict[str, Any], conditions: List[str]
) -> Dict[str, Dict[str, int]]:
    out: Dict[str, Dict[str, int]] = {}
    for condition in conditions:
        out[condition] = {
            "started": series_value(
                snapshot, "crawl_sites_started_total",
                condition=condition,
            ) or 0,
            "measured": series_value(
                snapshot, "crawl_sites_measured_total",
                condition=condition,
            ) or 0,
            "degraded": series_value(
                snapshot, "crawl_sites_degraded_total",
                condition=condition,
            ) or 0,
            "failed": sum(
                entry["value"]
                for entry in _series_entries(
                    snapshot, "crawl_sites_failed_total"
                )
                if entry["labels"].get("condition") == condition
            ),
        }
    return out


def _failure_causes(snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Top failure causes, summed across conditions, worst first."""
    by_cause: Dict[str, int] = {}
    for entry in _series_entries(snapshot, "crawl_sites_failed_total"):
        cause = entry["labels"].get("cause", "unknown")
        by_cause[cause] = by_cause.get(cause, 0) + int(entry["value"])
    ranked = sorted(
        by_cause.items(), key=lambda item: (-item[1], item[0])
    )
    return [
        {"cause": cause, "sites": count} for cause, count in ranked[:5]
    ]


def _workers(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    heartbeats = {
        entry["labels"].get("slot", "?"): entry["value"]
        for entry in _series_entries(
            snapshot, "worker_heartbeat_age_seconds"
        )
    }
    rss = {
        entry["labels"].get("proc", "?"): entry["value"]
        for entry in _series_entries(snapshot, "worker_rss_mb")
    }
    return {"heartbeat_age_seconds": heartbeats, "rss_mb": rss}


_FAULT_SERIES = {
    "watchdog_kills": "supervisor_watchdog_kills_total",
    "lease_revocations": "supervisor_lease_revocations_total",
    "stale_results": "supervisor_stale_results_total",
    "worker_faults": "supervisor_worker_faults_total",
    "spawn_retries": "supervisor_spawn_retries_total",
    "memory_recycles": "supervisor_memory_recycles_total",
}


def _faults(snapshot: Dict[str, Any]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for key, series in _FAULT_SERIES.items():
        value = sum(
            int(entry["value"])
            for entry in _series_entries(snapshot, series)
        )
        if value:
            out[key] = value
    corruptions = sum(
        int(entry["value"])
        for entry in _series_entries(
            snapshot, "supervisor_frame_corruptions_total"
        )
    )
    if corruptions:
        out["frame_corruptions"] = corruptions
    breaker = sum(
        int(entry["value"])
        for entry in _series_entries(snapshot, "fetch_breaker_opens_total")
    )
    if breaker:
        out["breaker_opens"] = breaker
    return out


def build_status(run_dir: str) -> Dict[str, Any]:
    """Assemble the full status view of one run directory.

    Corrupt files are reported, not raised: a corrupt ``metrics.jsonl``
    reads as no snapshots, a shard corrupt mid-file as no sites and a
    name under ``corrupt_shards``.
    """
    manifest = _manifest(run_dir)
    conditions = [str(c) for c in manifest.get("conditions", [])]
    n_domains = int(manifest.get("n_domains", 0))
    total = n_domains * len(conditions)

    try:
        records, torn = load_metrics_snapshots(run_dir)
    except CheckpointError:
        records, torn = [], 0
    latest = records[-1] if records else None
    rate, eta = _throughput(records)

    corrupt: List[str] = []
    sites = read_sites(run_dir, manifest, corrupt)
    done = {condition: len(sites[condition]) for condition in conditions}
    done_total = sum(done.values())
    snapshot = run_series(sites, latest)

    lock_payload = read_lock(os.path.join(run_dir, LOCK_NAME))
    lock_pid = (
        int(lock_payload.get("pid", 0)) if lock_payload else None
    )
    quarantine = _read_json(os.path.join(run_dir, QUARANTINE_NAME))
    strikes = (
        quarantine.get("strikes", {})
        if isinstance(quarantine, dict) else {}
    )
    leases_data = _read_json(os.path.join(run_dir, LEASES_NAME))
    leases = (
        leases_data.get("leases", {})
        if isinstance(leases_data, dict) else {}
    )

    status: Dict[str, Any] = {
        "run_dir": os.path.abspath(run_dir),
        "status": manifest.get("status"),
        "started_at": manifest.get("started_at"),
        "conditions": conditions,
        "n_domains": n_domains,
        "total": total,
        "done": done,
        "done_total": done_total,
        "progress_percent": (
            round(100.0 * done_total / total, 1) if total else 0.0
        ),
        "sites_per_minute": rate,
        "eta_seconds": eta,
        "lock": {
            "held": lock_pid is not None,
            "pid": lock_pid,
            "live": (
                pid_alive(lock_pid) if lock_pid is not None else False
            ),
        },
        "strikes": {
            "domains": len([d for d, n in strikes.items() if n]),
            "total": sum(int(n) for n in strikes.values()),
        },
        "leases": sum(len(by) for by in leases.values()),
        "corrupt_shards": corrupt,
        "metrics": {
            "snapshots": len(records),
            "torn_tail": bool(torn),
            "last_seq": latest.get("seq") if latest else None,
            "last_kind": latest.get("kind") if latest else None,
        },
        "by_condition": _condition_breakdown(snapshot, conditions),
        "failure_causes": _failure_causes(snapshot),
        "workers": _workers(snapshot),
        "faults": _faults(snapshot),
    }
    return status


# ---------------------------------------------------------------------------
# rendering


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = int(seconds)
    if seconds >= 3600:
        return "%dh%02dm" % (seconds // 3600, seconds % 3600 // 60)
    if seconds >= 60:
        return "%dm%02ds" % (seconds // 60, seconds % 60)
    return "%ds" % seconds


def status_text(status: Dict[str, Any]) -> str:
    """The human-facing dashboard for one :func:`build_status` view."""
    lock = status["lock"]
    if lock["held"] and lock["live"]:
        liveness = "locked by live pid %d" % lock["pid"]
    elif lock["held"]:
        liveness = "stale lock (pid %d dead)" % lock["pid"]
    else:
        liveness = "unlocked"
    lines = [
        "run      %s" % status["run_dir"],
        "status   %s (%s)" % (status["status"], liveness),
        "started  %s" % status["started_at"],
        "progress %d/%d sites (%.1f%%)" % (
            status["done_total"], status["total"],
            status["progress_percent"],
        ),
        "rate     %s    eta %s" % (
            "%.1f sites/min" % status["sites_per_minute"]
            if status["sites_per_minute"] is not None else "-",
            _fmt_eta(status["eta_seconds"]),
        ),
    ]
    by_condition = status.get("by_condition")
    if by_condition:
        rows = [
            (
                condition,
                "%d/%d" % (
                    status["done"].get(condition, 0),
                    status["n_domains"],
                ),
                str(detail["measured"]),
                str(detail["degraded"]),
                str(detail["failed"]),
            )
            for condition, detail in sorted(by_condition.items())
        ]
        lines += ["", render_table(
            ("condition", "done", "measured", "degraded", "failed"),
            rows,
        )]
    workers = status.get("workers") or {}
    heartbeat = workers.get("heartbeat_age_seconds") or {}
    rss = workers.get("rss_mb") or {}
    if heartbeat or rss:
        lines += ["", "workers"]
        for slot, age in sorted(heartbeat.items()):
            lines.append("  slot %s: heartbeat %.1fs ago" % (slot, age))
        for proc, mb in sorted(rss.items()):
            lines.append("  pid %s: rss %.1f MB" % (proc, mb))
    faults = status.get("faults")
    if faults:
        lines += ["", "faults   " + "  ".join(
            "%s=%d" % (key, value)
            for key, value in sorted(faults.items())
        )]
    if status["corrupt_shards"]:
        lines += ["", "corrupt  %s (see repro fsck)"
                  % ", ".join(status["corrupt_shards"])]
    strikes = status["strikes"]
    lines += ["", "strikes  %d across %d domain(s)    leases %d" % (
        strikes["total"], strikes["domains"], status["leases"],
    )]
    causes = status.get("failure_causes")
    if causes:
        lines += ["", "top failure causes"]
        for item in causes:
            lines.append(
                "  %-24s %d site(s)" % (item["cause"], item["sites"])
            )
    metrics = status["metrics"]
    lines += ["", "metrics  %d snapshot(s), last seq %s (%s)%s" % (
        metrics["snapshots"], metrics["last_seq"], metrics["last_kind"],
        ", torn tail (append in flight)" if metrics["torn_tail"]
        else "",
    )]
    return "\n".join(lines)
