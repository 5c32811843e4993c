"""Crash-safe incremental survey persistence (checkpoint/resume).

A full crawl is a multi-hour job; :mod:`repro.core.persistence` only
serializes a *finished* result, so a crash at site 9,800 used to lose
everything.  This module gives the survey runner durable intermediate
state instead:

* a **run directory** holding a ``manifest.json`` (what crawl this is:
  registry fingerprint, conditions, visits, seed, domain-list digest)
  and one **append-only JSONL shard per condition**
  (``shard-<condition>.jsonl``, one record per measured site);
* every record is written, flushed and fsynced before the crawl moves
  on, so a SIGKILL can cost at most the site in flight;
* on resume the shards are re-read, the manifest is validated against
  the live registry and config (a checkpoint recorded against a
  different corpus or crawl shape fails loudly), and already-measured
  (condition, domain) pairs are skipped;
* a torn trailing write — the classic crash artifact — is detected,
  dropped (the site is simply re-measured; the crawl is deterministic)
  and the shard repaired, while corruption *inside* the shard raises
  :class:`CheckpointError` rather than silently losing data.

Records are keyed by (condition, domain); if a shard somehow holds two
records for the same site the **last good record wins**, matching
append-only semantics.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple

from repro.browser.session import TELEMETRY_COUNTERS, SiteMeasurement
from repro.core.persistence import (
    PersistenceError,
    measurement_from_dict,
    measurement_to_dict,
    registry_fingerprint,
    survey_to_dict,
)
from repro.core.storage import (
    LOCK_NAME,
    AppendHandle,
    Storage,
    orphan_tmp_files,
    pid_alive,
    read_lock,
)
from repro.webidl.registry import FeatureRegistry

CHECKPOINT_VERSION = 1
MANIFEST_NAME = "manifest.json"
RESULT_NAME = "survey.json"
QUARANTINE_NAME = "quarantine.json"
LEASES_NAME = "leases.json"
METRICS_NAME = "metrics.jsonl"

#: run lifecycle stamps recorded in the manifest's ``status`` field
STATUS_RUNNING = "running"
STATUS_INTERRUPTED = "interrupted"
STATUS_COMPLETE = "complete"


class CheckpointError(ValueError):
    """Unusable, incompatible or corrupt survey checkpoint."""


def shard_name(condition: str) -> str:
    return "shard-%s.jsonl" % condition


def trace_shard_name(condition: str) -> str:
    """The trace shard riding next to a condition's measurement shard."""
    return "trace-%s.jsonl" % condition


def domains_digest(domains: Sequence[str]) -> str:
    """A stable identity for the crawl's target list."""
    import hashlib

    hasher = hashlib.sha256()
    for domain in domains:
        hasher.update(domain.encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()[:16]


def append_record(handle: IO[str], record: Dict[str, Any]) -> None:
    """Durably append one JSONL record: write, flush, fsync."""
    handle.write(json.dumps(record, sort_keys=True,
                            separators=(",", ":")) + "\n")
    handle.flush()
    os.fsync(handle.fileno())


def _valid_record(record: Any, payload_key: str) -> bool:
    return (
        isinstance(record, dict)
        and isinstance(record.get("condition"), str)
        and isinstance(record.get("domain"), str)
        and isinstance(record.get(payload_key), dict)
    )


def _valid_metrics_record(record: Any) -> bool:
    return (
        isinstance(record, dict)
        and isinstance(record.get("seq"), int)
        and isinstance(record.get("kind"), str)
        and isinstance(record.get("metrics"), dict)
    )


def load_shard_records(
    path: str, repair: bool = True, payload_key: str = "measurement"
) -> Tuple[List[Dict[str, Any]], int]:
    """Read a JSONL shard, recovering from a torn trailing write.

    Returns ``(records, dropped)``.  A record line only counts when it
    is newline-terminated *and* parses as a well-formed record — a
    crash mid-``write`` leaves a partial line that fails one of the
    two, and that tail is dropped (and, with ``repair``, truncated off
    the file so later appends stay parseable).  A bad line *followed by
    good data* is not a crash artifact; that raises
    :class:`CheckpointError` instead of guessing.
    """
    return _scan_jsonl(
        path, repair, lambda record: _valid_record(record, payload_key)
    )


def load_metrics_records(
    path: str, repair: bool = False
) -> Tuple[List[Dict[str, Any]], int]:
    """Read a ``metrics.jsonl`` time series of registry snapshots.

    Same torn-tail contract as :func:`load_shard_records`, but the
    records are snapshot envelopes (``kind``/``seq``/``metrics``), not
    per-site measurements.  Read-only by default: the status and
    metrics CLI surfaces poll live runs and must never write.
    """
    return _scan_jsonl(path, repair, _valid_metrics_record)


def _scan_jsonl(path, repair, validate) -> Tuple[List[Dict[str, Any]], int]:
    with open(path, "rb") as handle:
        raw = handle.read()
    records: List[Dict[str, Any]] = []
    offset = 0
    good_end = 0
    dropped = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        terminated = newline != -1
        end = newline if terminated else len(raw)
        line = raw[offset:end]
        next_offset = end + 1 if terminated else len(raw)
        if not line.strip():
            offset = next_offset
            continue
        record: Optional[Dict[str, Any]] = None
        if terminated:
            try:
                parsed = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                parsed = None
            if validate(parsed):
                record = parsed
        if record is not None:
            records.append(record)
            good_end = next_offset
            offset = next_offset
            continue
        # Bad line: a crash artifact only if nothing follows it.
        if raw[next_offset:].strip():
            raise CheckpointError(
                "corrupt checkpoint shard %s: bad record at byte %d "
                "followed by further data" % (path, offset)
            )
        dropped += 1
        break
    if dropped and repair and good_end < len(raw):
        os.truncate(path, good_end)
    return records, dropped


class SurveyCheckpoint:
    """Durable intermediate state of one survey run.

    Created by :func:`repro.core.survey.run_survey` when given a
    ``run_dir``; tests and tools can also drive it directly.
    """

    def __init__(
        self,
        run_dir: str,
        registry: FeatureRegistry,
        manifest: Dict[str, Any],
        storage: Optional[Storage] = None,
    ) -> None:
        self.run_dir = run_dir
        self.registry = registry
        self.manifest = manifest
        #: the injectable durability layer every write routes through
        self.storage = storage if storage is not None else Storage()
        #: condition -> domain -> measurement (recovered + appended)
        self._records: Dict[str, Dict[str, SiteMeasurement]] = {
            condition: {} for condition in manifest["conditions"]
        }
        #: torn trailing lines dropped while loading shards
        self.recovered_lines = 0
        #: orphan ``*.tmp`` crash litter removed while resuming
        self.recovered_tmp_files: List[str] = []
        self._handles: Dict[str, AppendHandle] = {}
        self._trace_handles: Dict[str, AppendHandle] = {}
        self._metrics_handle: Optional[AppendHandle] = None
        #: highest snapshot seq already durable in metrics.jsonl; the
        #: metrics pump continues from here so a resumed run never
        #: duplicates a snapshot sequence number
        self._metrics_seq = 0
        #: domain -> times this site killed or hung a crawl worker
        #: (the watchdog's poison-site strike counts; persisted so a
        #: resumed run never re-crawls a quarantined site)
        self._strikes: Dict[str, int] = {}
        #: condition -> domain -> highest lease epoch ever issued.
        #: Persisted so epochs stay monotonic across resume: a worker
        #: that outlived a crash cannot hold an epoch a fresh
        #: supervisor would re-issue.
        self._leases: Dict[str, Dict[str, int]] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def attach(
        cls,
        run_dir: str,
        registry: FeatureRegistry,
        config,
        domains: Sequence[str],
        resume: bool = False,
        started_at: Optional[float] = None,
        storage: Optional[Storage] = None,
    ) -> "SurveyCheckpoint":
        """Create a fresh run directory, or resume an existing one.

        Without ``resume`` the directory must not already hold a
        checkpoint (refusing beats silently clobbering hours of
        crawl); with it, an empty directory simply starts fresh.
        """
        manifest_path = os.path.join(run_dir, MANIFEST_NAME)
        exists = os.path.exists(manifest_path)
        if exists and not resume:
            raise CheckpointError(
                "%s already holds a survey checkpoint; resume it "
                "(resume=True / --resume) or choose a new directory"
                % run_dir
            )
        if not exists:
            return cls.create(
                run_dir, registry, config, domains,
                started_at=started_at, storage=storage,
            )
        return cls.open(run_dir, registry, config, domains,
                        storage=storage)

    @classmethod
    def create(
        cls,
        run_dir: str,
        registry: FeatureRegistry,
        config,
        domains: Sequence[str],
        started_at: Optional[float] = None,
        storage: Optional[Storage] = None,
    ) -> "SurveyCheckpoint":
        import datetime
        import time

        storage = storage if storage is not None else Storage()
        os.makedirs(run_dir, exist_ok=True)
        # The manifest's start stamp is the run's ONE wall-clock read,
        # kept human-readable; all duration math uses perf_counter.
        stamp = time.time() if started_at is None else started_at
        manifest = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "registry_fingerprint": registry_fingerprint(registry),
            "conditions": list(config.conditions),
            "visits_per_site": config.visits_per_site,
            "seed": config.seed,
            "max_sites": config.max_sites,
            "n_domains": len(domains),
            "domains_digest": domains_digest(domains),
            "budget": cls._budget_fingerprint(config),
            "resilience": cls._resilience_fingerprint(config),
            "tracing": bool(getattr(config, "trace", False)),
            # Recorded for provenance only — never mismatch-checked:
            # the two engines are digest-identical by construction
            # (tests/test_engine_differential.py), so resuming a tree
            # run with the compiled engine mixes nothing incomparable.
            "engine": getattr(config, "engine", "compiled"),
            # Provenance only, like the engine: lease deadlines and RSS
            # ceilings change *when* work is redone or recycled on one
            # machine, never what a completed measurement contains.
            "process": {
                "lease_deadline": getattr(config, "lease_deadline", None),
                "max_worker_rss_mb": getattr(
                    config, "max_worker_rss_mb", None
                ),
            },
            "started_at": datetime.datetime.fromtimestamp(
                stamp, datetime.timezone.utc
            ).isoformat(),
            "status": STATUS_RUNNING,
        }
        # Write-then-rename so a crash never leaves a half manifest.
        storage.replace_atomic(
            os.path.join(run_dir, MANIFEST_NAME), manifest
        )
        return cls(run_dir, registry, manifest, storage=storage)

    @classmethod
    def open(
        cls,
        run_dir: str,
        registry: FeatureRegistry,
        config,
        domains: Sequence[str],
        storage: Optional[Storage] = None,
    ) -> "SurveyCheckpoint":
        """Open an existing checkpoint, validating compatibility."""
        manifest_path = os.path.join(run_dir, MANIFEST_NAME)
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except OSError as error:
            raise CheckpointError(
                "cannot read checkpoint manifest: %s" % error
            )
        except json.JSONDecodeError as error:
            raise CheckpointError(
                "corrupt checkpoint manifest %s: %s"
                % (manifest_path, error)
            )
        cls._validate_manifest(manifest, registry, config, domains)
        checkpoint = cls(run_dir, registry, manifest, storage=storage)
        checkpoint._clean_orphan_tmp_files()
        checkpoint._load_shards()
        checkpoint._repair_trace_shards()
        checkpoint._load_metrics()
        checkpoint._load_quarantine()
        checkpoint._load_leases()
        if manifest.get("status") != STATUS_RUNNING:
            # An interrupted/complete run picked back up: re-stamp so
            # the manifest reflects what the directory is doing now.
            checkpoint.mark_status(STATUS_RUNNING)
        return checkpoint

    @staticmethod
    def _validate_manifest(
        manifest: Dict[str, Any],
        registry: FeatureRegistry,
        config,
        domains: Sequence[str],
    ) -> None:
        def mismatch(what: str, recorded, live) -> CheckpointError:
            return CheckpointError(
                "checkpoint %s mismatch: recorded %r, this run has %r "
                "— a resumed crawl must use the same corpus and "
                "configuration" % (what, recorded, live)
            )

        if manifest.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                "unsupported checkpoint version %r"
                % manifest.get("checkpoint_version")
            )
        fingerprint = registry_fingerprint(registry)
        if manifest.get("registry_fingerprint") != fingerprint:
            raise mismatch(
                "registry", manifest.get("registry_fingerprint"),
                fingerprint,
            )
        checks = [
            ("conditions", list(config.conditions)),
            ("visits_per_site", config.visits_per_site),
            ("seed", config.seed),
            ("max_sites", config.max_sites),
            ("domains_digest", domains_digest(domains)),
        ]
        if "budget" in manifest:
            # Budget limits shape what a measurement contains (partial
            # rounds); resuming under different limits would mix
            # incomparable records.  Checkpoints from before the budget
            # layer simply lack the key and stay resumable.
            checks.append(
                ("budget", SurveyCheckpoint._budget_fingerprint(config))
            )
        if "resilience" in manifest:
            # Retry counts and jitter shape which sites succeed and how
            # much budget each round burns; mixing records crawled under
            # different resilience settings would be incomparable too.
            checks.append(
                ("resilience",
                 SurveyCheckpoint._resilience_fingerprint(config))
            )
        if "tracing" in manifest:
            # A run resumed with tracing toggled would leave trace
            # shards covering only part of the crawl — refuse, like any
            # other configuration drift.  Pre-tracing checkpoints lack
            # the key and stay resumable.
            checks.append(
                ("tracing", bool(getattr(config, "trace", False)))
            )
        for key, live in checks:
            if manifest.get(key) != live:
                raise mismatch(key, manifest.get(key), live)

    @staticmethod
    def _budget_fingerprint(config) -> Optional[Dict[str, Any]]:
        budget = getattr(config, "budget", None)
        return budget.fingerprint() if budget is not None else None

    @staticmethod
    def _resilience_fingerprint(config) -> Optional[Dict[str, Any]]:
        resilience = getattr(config, "resilience", None)
        if resilience is None:
            return None
        # The fingerprint records the *effective* config: an unseeded
        # jitter seed resolves from the survey seed, exactly as
        # _build_crawler resolves it.
        return resilience.seeded(config.seed).fingerprint()

    # -- shard IO --------------------------------------------------------

    def _shard_path(self, condition: str) -> str:
        return os.path.join(self.run_dir, shard_name(condition))

    def _load_shards(self) -> None:
        for condition in self.manifest["conditions"]:
            path = self._shard_path(condition)
            if not os.path.exists(path):
                continue
            records, dropped = load_shard_records(path)
            self.recovered_lines += dropped
            for record in records:
                if record["condition"] != condition:
                    raise CheckpointError(
                        "record for condition %r found in shard %s"
                        % (record["condition"], path)
                    )
                try:
                    measurement = measurement_from_dict(
                        record["domain"], condition,
                        record["measurement"], self.registry,
                    )
                except (PersistenceError, KeyError, TypeError) as error:
                    raise CheckpointError(
                        "unusable record for %r in %s: %s"
                        % (record["domain"], path, error)
                    )
                # Last good record wins (append-only semantics).
                self._records[condition][record["domain"]] = measurement

    def append(
        self,
        measurement: SiteMeasurement,
        lease_epoch: Optional[int] = None,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Durably record one finished site-measurement.

        ``lease_epoch`` rides as a *sibling* of the measurement payload
        — never inside it — so fencing provenance is auditable
        (``repro fsck`` checks that a re-leased site's surviving record
        carries the highest epoch) without perturbing the measurement
        serialization or the survey digest.  ``metrics`` rides the same
        way: the site's deterministic metric delta
        (:func:`repro.core.runmetrics.wire_delta`) travels with the
        record, so readers derive the stable metric series from
        exactly the recorded site set.
        """
        condition = measurement.condition
        handle = self._handles.get(condition)
        if handle is None:
            handle = self.storage.open_append(
                self._shard_path(condition)
            )
            self._handles[condition] = handle
        record = {
            "condition": condition,
            "domain": measurement.domain,
            "measurement": measurement_to_dict(measurement),
        }
        if lease_epoch is not None:
            record["lease_epoch"] = lease_epoch
        if metrics is not None:
            record["metrics"] = metrics
        self.storage.append_record(handle, record)
        self._records[condition][measurement.domain] = measurement

    # -- trace shards ----------------------------------------------------

    def _trace_shard_path(self, condition: str) -> str:
        return os.path.join(self.run_dir, trace_shard_name(condition))

    def _repair_trace_shards(self) -> None:
        """Truncate torn trailing trace writes before resuming.

        The measurement shards are repaired by :func:`_load_shards`'s
        read; the trace shards are never read on resume, so a torn
        tail would otherwise sit mid-file once new records append
        after it — which readers rightly treat as corruption.
        """
        for condition in self.manifest["conditions"]:
            path = self._trace_shard_path(condition)
            if os.path.exists(path):
                _, dropped = load_shard_records(
                    path, repair=True, payload_key="trace"
                )
                self.recovered_lines += dropped

    def append_trace(
        self, condition: str, domain: str, trace: Dict[str, Any]
    ) -> None:
        """Durably record one site's span trace.

        Called *before* the matching measurement append: a crash
        between the two leaves an orphan trace (harmless — the site is
        re-measured on resume and its trace re-recorded, last-wins),
        never a measured site with no trace.
        """
        handle = self._trace_handles.get(condition)
        if handle is None:
            handle = self.storage.open_append(
                self._trace_shard_path(condition)
            )
            self._trace_handles[condition] = handle
        self.storage.append_record(handle, {
            "condition": condition,
            "domain": domain,
            "trace": trace,
        })

    # -- metrics time series ---------------------------------------------

    def _metrics_path(self) -> str:
        return os.path.join(self.run_dir, METRICS_NAME)

    def _load_metrics(self) -> None:
        """Repair the metrics tail and recover the snapshot cursor.

        Like the trace shards, ``metrics.jsonl`` is append-only and
        never read back by the crawl itself, so a torn trailing
        snapshot must be truncated before new appends land after it.
        The highest durable ``seq`` is kept so the resumed run's pump
        continues the sequence instead of duplicating it.
        """
        path = self._metrics_path()
        if not os.path.exists(path):
            return
        records, dropped = load_metrics_records(path, repair=True)
        self.recovered_lines += dropped
        for record in records:
            if record["seq"] > self._metrics_seq:
                self._metrics_seq = record["seq"]

    def append_metrics(self, record: Dict[str, Any]) -> None:
        """Durably append one registry snapshot to the time series."""
        if self._metrics_handle is None:
            self._metrics_handle = self.storage.open_append(
                self._metrics_path()
            )
        self.storage.append_record(self._metrics_handle, record)
        seq = record.get("seq")
        if isinstance(seq, int) and seq > self._metrics_seq:
            self._metrics_seq = seq

    def last_metrics_seq(self) -> int:
        """Highest snapshot seq durable so far (0 = none yet)."""
        return self._metrics_seq

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        for handle in self._trace_handles.values():
            handle.close()
        self._trace_handles.clear()
        if self._metrics_handle is not None:
            self._metrics_handle.close()
            self._metrics_handle = None

    # -- poison-site quarantine ------------------------------------------

    def _quarantine_path(self) -> str:
        return os.path.join(self.run_dir, QUARANTINE_NAME)

    def _load_quarantine(self) -> None:
        path = self._quarantine_path()
        if not os.path.exists(path):
            return
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(
                "corrupt quarantine file %s: %s" % (path, error)
            )
        strikes = data.get("strikes")
        if not isinstance(strikes, dict):
            raise CheckpointError(
                "corrupt quarantine file %s: no strikes table" % path
            )
        self._strikes = {str(d): int(n) for d, n in strikes.items()}

    def _write_quarantine(self) -> None:
        # Write-then-rename, like the manifest: a crash mid-strike
        # leaves the previous strike table, never a torn one (the site
        # then gets one free retry, which is safe — the threshold just
        # fires one kill later).
        self.storage.replace_atomic(
            self._quarantine_path(), {"strikes": self._strikes}
        )

    def add_strike(self, domain: str) -> int:
        """Record that a site killed or hung a worker; returns total."""
        self._strikes[domain] = self._strikes.get(domain, 0) + 1
        self._write_quarantine()
        return self._strikes[domain]

    def strike_count(self, domain: str) -> int:
        return self._strikes.get(domain, 0)

    # -- fenced site leases ----------------------------------------------

    def _leases_path(self) -> str:
        return os.path.join(self.run_dir, LEASES_NAME)

    def _load_leases(self) -> None:
        path = self._leases_path()
        if not os.path.exists(path):
            return
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(
                "corrupt lease file %s: %s" % (path, error)
            )
        leases = data.get("leases")
        if not isinstance(leases, dict):
            raise CheckpointError(
                "corrupt lease file %s: no leases table" % path
            )
        self._leases = {
            str(condition): {
                str(domain): int(epoch)
                for domain, epoch in by_domain.items()
            }
            for condition, by_domain in leases.items()
        }

    def _write_leases(self) -> None:
        # Write-then-rename: a crash mid-issue keeps the previous
        # table.  That can only *lower* the recorded epoch by the one
        # being issued, and the matching dispatch never happened — the
        # resumed supervisor re-issues the same number to a fresh
        # dispatch, so fencing still holds.
        self.storage.replace_atomic(
            self._leases_path(), {"leases": self._leases}
        )

    def issue_lease(self, condition: str, domain: str) -> int:
        """Issue the next lease epoch for one dispatched site.

        Epochs are monotonically increasing per (condition, domain)
        and durable: only the result carrying the *latest* epoch is
        accepted, so a hung-then-replaced worker's late result cannot
        double-count or overwrite its successor's.
        """
        by_domain = self._leases.setdefault(condition, {})
        epoch = by_domain.get(domain, 0) + 1
        by_domain[domain] = epoch
        self._write_leases()
        return epoch

    def lease_epoch(self, condition: str, domain: str) -> int:
        """The highest epoch issued for a site (0 = never leased)."""
        return self._leases.get(condition, {}).get(domain, 0)

    # -- views -----------------------------------------------------------

    def done(self, condition: str) -> Dict[str, SiteMeasurement]:
        """Already-measured sites for a condition (a copy)."""
        return dict(self._records.get(condition, {}))

    def done_counts(self) -> Dict[str, int]:
        """condition -> number of sites already measured."""
        return {
            condition: len(by_domain)
            for condition, by_domain in self._records.items()
        }

    @property
    def n_domains(self) -> int:
        return self.manifest["n_domains"]

    def write_result(self, result) -> str:
        """Save the finished survey alongside its shards.

        Write-then-rename through the durability layer — a crash mid
        result write leaves an orphan tmp, never a torn
        ``survey.json`` that fsck would flag as unreadable — then the
        manifest is stamped complete.
        """
        path = os.path.join(self.run_dir, RESULT_NAME)
        self.storage.replace_atomic(
            path, survey_to_dict(result), indent=None
        )
        self.mark_status(STATUS_COMPLETE)
        return path

    def mark_status(self, status: str) -> None:
        """Re-stamp the manifest's lifecycle field atomically."""
        self.manifest["status"] = status
        self.storage.replace_atomic(
            os.path.join(self.run_dir, MANIFEST_NAME), self.manifest
        )

    def _clean_orphan_tmp_files(self) -> None:
        """Remove ``*.tmp`` crash litter before resuming.

        A crash between tmp write and ``os.replace`` strands the tmp
        forever — the final file (when present) is the authoritative
        state, so the orphan is simply deleted.  Roll-forward is never
        needed on resume: a missing manifest means :meth:`attach`
        created a fresh one, and every other replaced file is an
        optimization the crawl rebuilds.
        """
        for name in orphan_tmp_files(self.run_dir):
            try:
                os.unlink(os.path.join(self.run_dir, name))
            except OSError:
                continue
            self.recovered_tmp_files.append(name)


# -- offline integrity check (``repro fsck``) ---------------------------

#: manifest keys every checkpoint version 1 run directory must carry
_MANIFEST_REQUIRED = (
    "checkpoint_version",
    "registry_fingerprint",
    "conditions",
    "visits_per_site",
    "seed",
    "n_domains",
    "domains_digest",
)

#: measurement keys every shard record must carry (the version-1
#: serialization floor; later fields are optional-with-defaults)
_MEASUREMENT_REQUIRED = (
    "rounds_completed",
    "rounds_ok",
    "features",
    "invocations",
)


def fsck_report(run_dir: str, repair: bool = False) -> Dict[str, Any]:
    """Integrity check of a survey run directory, structured.

    Returns ``{"run_dir", "ok", "problems", "checks", "repairs"}``
    where ``checks`` is a list of ``{"ok", "text"}`` entries and
    ``repairs`` the actions a ``repair=True`` pass performed
    (``{"action", "path", ...}``).

    Read-only by default — a torn trailing write is flagged as
    recoverable but not truncated (resume repairs it); ``ok`` is False
    for *any* damage: torn tails, orphan ``*.tmp`` crash litter, a
    stale or live run lock, an unreadable or incomplete manifest,
    mid-shard corruption, records in the wrong shard, malformed
    records, a bad quarantine file, or a ``survey.json`` inconsistent
    with the manifest it sits next to.

    With ``repair=True`` the recoverable classes are fixed offline —
    the same fixes resume applies, usable without the original corpus
    and configuration: torn tails truncated, orphan tmps removed (a
    complete tmp whose target is missing is rolled *forward* instead,
    finishing the interrupted rename), stale locks reclaimed, and a
    result file that disagrees with its manifest removed (it is
    derived data; resume regenerates it).  Repaired findings do not
    count as problems, so ``ok`` answers "is the directory clean
    *now*".  A live lock and mid-shard corruption are never repaired.
    """
    checks: List[Dict[str, Any]] = []
    repairs: List[Dict[str, Any]] = []
    problems = 0

    def report(ok: bool, text: str) -> None:
        nonlocal problems
        if not ok:
            problems += 1
        checks.append({"ok": ok, "text": text})

    def fixed(action: str, path: str, text: str, **extra: Any) -> None:
        repairs.append(dict({"action": action, "path": path}, **extra))
        checks.append({"ok": True, "text": text, "repaired": True})

    def done() -> Dict[str, Any]:
        return {
            "run_dir": run_dir,
            "ok": problems == 0,
            "problems": problems,
            "checks": checks,
            "repairs": repairs,
        }

    if not os.path.isdir(run_dir):
        report(False, "%s: not a directory" % run_dir)
        return done()

    # 0. Run lock: a live holder means the directory is mid-write and
    #    nothing below can be trusted; a stale one is crash litter.
    lock_path = os.path.join(run_dir, LOCK_NAME)
    if os.path.exists(lock_path):
        holder = read_lock(lock_path)
        pid = holder.get("pid") if holder else None
        if isinstance(pid, int) and pid_alive(pid):
            report(False, "%s: held by live process %d — a crawl is "
                   "in progress; results below may be mid-write"
                   % (LOCK_NAME, pid))
        elif repair:
            try:
                os.unlink(lock_path)
                fixed("remove-stale-lock", LOCK_NAME,
                      "%s: stale lock from dead process %s "
                      "(repaired: removed)" % (LOCK_NAME, pid))
            except OSError as error:
                report(False, "%s: stale lock could not be removed "
                       "(%s)" % (LOCK_NAME, error))
        else:
            report(False, "%s: stale lock from dead process %s "
                   "(recoverable; resume reclaims it, fsck --repair "
                   "removes it)" % (LOCK_NAME, pid))

    # 0b. Orphan *.tmp crash litter from interrupted write-then-rename.
    #     With repair: a complete tmp whose target is missing finishes
    #     its rename (the fsync already made it durable); every other
    #     tmp is discarded — the renamed file is the authoritative
    #     state.
    for name in orphan_tmp_files(run_dir):
        tmp_path = os.path.join(run_dir, name)
        target = name[: -len(".tmp")]
        target_path = os.path.join(run_dir, target)
        if not repair:
            report(False, "%s: orphan temporary file (crash litter; "
                   "recoverable — resume or fsck --repair cleans it)"
                   % name)
            continue
        payload = None
        if not os.path.exists(target_path):
            try:
                with open(tmp_path, encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):
                payload = None
        try:
            if payload is not None:
                os.replace(tmp_path, target_path)
                fixed("complete-interrupted-replace", name,
                      "%s: interrupted rename completed (repaired: "
                      "now %s)" % (name, target))
            else:
                os.unlink(tmp_path)
                fixed("remove-orphan-tmp", name,
                      "%s: orphan temporary file (repaired: removed)"
                      % name)
        except OSError as error:
            report(False, "%s: orphan temporary file could not be "
                   "cleaned (%s)" % (name, error))

    # 0c. Nothing at all (a crash before the manifest ever landed,
    #     after repair swept the litter): not a checkpoint, not damage.
    try:
        remaining = [
            n for n in os.listdir(run_dir)
            if n != LOCK_NAME and not n.endswith(".tmp")
        ]
    except OSError:
        remaining = []
    if not remaining and not os.path.exists(
        os.path.join(run_dir, MANIFEST_NAME)
    ):
        report(True, "empty directory: no checkpoint yet "
               "(nothing to verify)")
        return done()

    # 1. Manifest: readable, right version, complete.
    manifest: Optional[Dict[str, Any]] = None
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        report(False, "%s: missing" % MANIFEST_NAME)
    else:
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            report(False, "%s: unreadable (%s)" % (MANIFEST_NAME, error))
        if manifest is not None:
            missing = [k for k in _MANIFEST_REQUIRED if k not in manifest]
            if manifest.get("checkpoint_version") != CHECKPOINT_VERSION:
                report(False, "%s: unsupported version %r" % (
                    MANIFEST_NAME, manifest.get("checkpoint_version")))
                manifest = None
            elif missing:
                report(False, "%s: missing keys %s" % (
                    MANIFEST_NAME, ", ".join(missing)))
                manifest = None
            else:
                report(True, "%s: version %d, %d condition(s), %d domains"
                       % (MANIFEST_NAME, CHECKPOINT_VERSION,
                          len(manifest["conditions"]),
                          manifest["n_domains"]))

    # 2. Shards: per-condition, last-line-torn is recoverable, anything
    #    else is corruption.
    conditions = list(manifest["conditions"]) if manifest else []
    shard_records: Dict[str, int] = {}
    shard_raw: Dict[str, List[Dict[str, Any]]] = {}
    for condition in conditions:
        name = shard_name(condition)
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            report(True, "%s: not started (no records yet)" % name)
            continue
        try:
            records, dropped = load_shard_records(path, repair=False)
        except CheckpointError as error:
            report(False, "%s: %s" % (name, error))
            continue
        bad = 0
        for record in records:
            if record["condition"] != condition:
                bad += 1
                continue
            measurement = record["measurement"]
            if any(k not in measurement for k in _MEASUREMENT_REQUIRED):
                bad += 1
                continue
            # Telemetry counters, when present, must be sane: each is
            # a non-negative integer (the canonical schema the reports
            # and the trace command read).
            if any(
                not isinstance(measurement[counter], int)
                or measurement[counter] < 0
                for counter in TELEMETRY_COUNTERS
                if counter in measurement
            ):
                bad += 1
        if bad:
            report(False, "%s: %d malformed record(s)" % (name, bad))
            continue
        shard_records[condition] = len(records)
        shard_raw[condition] = records
        if dropped and repair:
            load_shard_records(path, repair=True)
            fixed("truncate-torn-tail", name,
                  "%s: %d record(s), torn trailing write (repaired: "
                  "tail truncated)" % (name, len(records)),
                  records_kept=len(records))
        elif dropped:
            report(False, "%s: %d record(s), torn trailing write "
                   "(recoverable; resume repairs it)"
                   % (name, len(records)))
        else:
            report(True, "%s: %d record(s)" % (name, len(records)))
    # Stray shards for conditions the manifest does not know about.
    if manifest is not None:
        known = {shard_name(c) for c in conditions}
        for name in sorted(os.listdir(run_dir)):
            if (name.startswith("shard-") and name.endswith(".jsonl")
                    and name not in known):
                report(False, "%s: shard for unknown condition" % name)

    # 2b. Trace shards (present only for --trace runs): well-formed
    #     span trees, torn-tail recoverable.  An orphan trace (trace
    #     recorded, crash before the measurement landed) is benign —
    #     resume re-records it last-wins — so counts need not match
    #     the measurement shard's.
    for condition in conditions:
        name = trace_shard_name(condition)
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            continue
        try:
            records, dropped = load_shard_records(
                path, repair=False, payload_key="trace"
            )
        except CheckpointError as error:
            report(False, "%s: %s" % (name, error))
            continue
        bad = sum(
            1 for record in records
            if record["condition"] != condition
            or not isinstance(record["trace"].get("name"), str)
        )
        if bad:
            report(False, "%s: %d malformed trace(s)" % (name, bad))
        elif dropped and repair:
            load_shard_records(path, repair=True, payload_key="trace")
            fixed("truncate-torn-tail", name,
                  "%s: %d trace(s), torn trailing write (repaired: "
                  "tail truncated)" % (name, len(records)),
                  records_kept=len(records))
        elif dropped:
            report(False, "%s: %d trace(s), torn trailing write "
                   "(recoverable; resume repairs it)"
                   % (name, len(records)))
        else:
            report(True, "%s: %d trace(s)" % (name, len(records)))
    if manifest is not None:
        known_traces = {trace_shard_name(c) for c in conditions}
        for name in sorted(os.listdir(run_dir)):
            if (name.startswith("trace-") and name.endswith(".jsonl")
                    and name not in known_traces):
                report(False,
                       "%s: trace shard for unknown condition" % name)

    # 2c. Lease fencing.  When the supervisor fenced dispatches with
    #     lease epochs, a site that appears more than once in a shard
    #     must resolve to exactly one survivor — the *last* record,
    #     append-only semantics — and that survivor must carry the
    #     highest epoch written for the site.  A stale-epoch survivor
    #     means a replaced worker's late result landed after (and so
    #     shadowed) its successor's: exactly the double-write fencing
    #     exists to prevent.  Epochs must also never exceed what
    #     leases.json says was issued.
    leases_path = os.path.join(run_dir, LEASES_NAME)
    issued: Optional[Dict[str, Dict[str, int]]] = None
    if os.path.exists(leases_path):
        try:
            with open(leases_path, encoding="utf-8") as handle:
                data = json.load(handle)
            table = data.get("leases")
            if not isinstance(table, dict) or not all(
                isinstance(condition, str)
                and isinstance(by_domain, dict)
                and all(
                    isinstance(domain, str)
                    and isinstance(epoch, int) and epoch > 0
                    for domain, epoch in by_domain.items()
                )
                for condition, by_domain in table.items()
            ):
                raise ValueError("no valid leases table")
            issued = table
            report(True, "%s: %d lease(s) issued" % (
                LEASES_NAME,
                sum(len(by_domain) for by_domain in table.values())))
        except (OSError, ValueError) as error:
            report(False, "%s: unreadable (%s)" % (LEASES_NAME, error))
    for condition in conditions:
        records = shard_raw.get(condition)
        if not records:
            continue
        fenced = any("lease_epoch" in record for record in records)
        if not fenced and issued is None:
            continue  # unfenced run: nothing to validate
        name = shard_name(condition)
        by_domain: Dict[str, List[Dict[str, Any]]] = {}
        for record in records:
            by_domain.setdefault(record["domain"], []).append(record)
        bad_epochs = 0
        stale_survivors = []
        over_issued = []
        duplicated = 0
        for domain, row in by_domain.items():
            epochs = []
            for record in row:
                if "lease_epoch" not in record:
                    continue
                epoch = record["lease_epoch"]
                if not isinstance(epoch, int) or epoch < 1:
                    bad_epochs += 1
                else:
                    epochs.append(epoch)
            if len(row) > 1:
                duplicated += 1
                if epochs:
                    survivor = row[-1].get("lease_epoch")
                    if survivor != max(epochs):
                        stale_survivors.append(domain)
            if issued is not None and epochs:
                cap = issued.get(condition, {}).get(domain, 0)
                if max(epochs) > cap:
                    over_issued.append(domain)
        if bad_epochs:
            report(False, "%s: %d record(s) with a malformed "
                   "lease_epoch" % (name, bad_epochs))
        if stale_survivors:
            report(False, "%s: stale lease epoch survives for %s — a "
                   "replaced worker's late result shadowed the "
                   "re-leased one" % (name, ", ".join(sorted(
                       stale_survivors))))
        if over_issued:
            report(False, "%s: records for %s carry lease epochs "
                   "never issued per %s" % (name, ", ".join(sorted(
                       over_issued)), LEASES_NAME))
        if not (bad_epochs or stale_survivors or over_issued):
            report(True, "%s: lease epochs consistent "
                   "(%d re-leased site(s), last record carries the "
                   "highest epoch)" % (name, duplicated))

    # 2d. Metrics time series (present only for metrics-on runs).
    #     Snapshots are append-only registry dumps: a torn tail is
    #     recoverable, and sequence numbers must be unique and
    #     increasing (a duplicated seq means a resumed run restarted
    #     the cursor).  They hold only unstable series, so there is
    #     nothing to reconcile with the shards: readers derive the
    #     stable series from the shards themselves.
    metrics_path = os.path.join(run_dir, METRICS_NAME)
    if os.path.exists(metrics_path):
        metric_records: List[Dict[str, Any]] = []
        try:
            metric_records, dropped = load_metrics_records(metrics_path)
        except CheckpointError as error:
            report(False, "%s: %s" % (METRICS_NAME, error))
        else:
            if dropped and repair:
                load_metrics_records(metrics_path, repair=True)
                fixed("truncate-torn-tail", METRICS_NAME,
                      "%s: %d snapshot(s), torn trailing write "
                      "(repaired: tail truncated)"
                      % (METRICS_NAME, len(metric_records)),
                      records_kept=len(metric_records))
            elif dropped:
                report(False, "%s: %d snapshot(s), torn trailing "
                       "write (recoverable; resume repairs it)"
                       % (METRICS_NAME, len(metric_records)))
            else:
                report(True, "%s: %d snapshot(s)"
                       % (METRICS_NAME, len(metric_records)))
        if metric_records:
            seqs = [record["seq"] for record in metric_records]
            if len(set(seqs)) != len(seqs):
                report(False, "%s: duplicated snapshot seq(s) — a "
                       "resumed run restarted the snapshot cursor"
                       % METRICS_NAME)
            elif seqs != sorted(seqs):
                report(False, "%s: snapshot seqs out of order"
                       % METRICS_NAME)

    # 3. Quarantine strike table (optional file).
    quarantine_path = os.path.join(run_dir, QUARANTINE_NAME)
    if os.path.exists(quarantine_path):
        try:
            with open(quarantine_path, encoding="utf-8") as handle:
                data = json.load(handle)
            strikes = data.get("strikes")
            if not isinstance(strikes, dict) or not all(
                isinstance(d, str) and isinstance(n, int)
                for d, n in strikes.items()
            ):
                raise ValueError("no valid strikes table")
            report(True, "%s: %d quarantine strike(s)"
                   % (QUARANTINE_NAME, sum(strikes.values())))
        except (OSError, ValueError) as error:
            report(False, "%s: unreadable (%s)"
                   % (QUARANTINE_NAME, error))

    # 4. Final survey.json, when present, must agree with the manifest
    #    it sits next to (same registry, conditions and domain list).
    result_path = os.path.join(run_dir, RESULT_NAME)
    if os.path.exists(result_path) and manifest is not None:
        try:
            with open(result_path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            report(False, "%s: unreadable (%s)" % (RESULT_NAME, error))
        else:
            mismatches = []
            if (data.get("registry_fingerprint")
                    != manifest["registry_fingerprint"]):
                mismatches.append("registry_fingerprint")
            if list(data.get("conditions", [])) != conditions:
                mismatches.append("conditions")
            if (domains_digest(data.get("domains", []))
                    != manifest["domains_digest"]):
                mismatches.append("domains_digest")
            if mismatches and repair:
                try:
                    os.unlink(result_path)
                    fixed("remove-stale-result", RESULT_NAME,
                          "%s: disagrees with manifest on %s "
                          "(repaired: removed — derived data, resume "
                          "regenerates it)"
                          % (RESULT_NAME, ", ".join(mismatches)),
                          mismatches=mismatches)
                except OSError as error:
                    report(False, "%s: disagrees with manifest and "
                           "could not be removed (%s)"
                           % (RESULT_NAME, error))
            elif mismatches:
                report(False, "%s: disagrees with manifest on %s"
                       % (RESULT_NAME, ", ".join(mismatches)))
            else:
                report(True, "%s: consistent with manifest" % RESULT_NAME)

    return done()


def fsck_lines(result: Dict[str, Any]) -> List[str]:
    """Flatten an :func:`fsck_report` result into the classic
    ``ok``/``BAD``-prefixed report lines plus a summary line."""
    lines = [
        "%s %s" % ("ok " if check["ok"] else "BAD", check["text"])
        for check in result["checks"]
    ]
    problems = result["problems"]
    lines.append(
        "%s: %s" % (result["run_dir"],
                    "clean" if not problems
                    else "%d problem(s) found" % problems)
    )
    return lines


def fsck_run_dir(
    run_dir: str, repair: bool = False
) -> Tuple[bool, List[str]]:
    """Line-oriented wrapper over :func:`fsck_report` — returns
    ``(ok, report_lines)`` exactly as the original read-only fsck did.
    """
    result = fsck_report(run_dir, repair=repair)
    return result["ok"], fsck_lines(result)
