"""Survey orchestration: the full automated crawl (section 4.3.3).

``run_survey`` visits every ranked site under every requested browsing
condition, five rounds each, through the instrumented browser, and
returns a :class:`SurveyResult` the analysis layer consumes.

The crawl is *streaming and fault-tolerant*: given a run directory it
checkpoints every finished site-measurement to durable storage as it
lands (see :mod:`repro.core.checkpoint`), so a crash — OOM, SIGKILL,
power loss — costs at most the site in flight.  ``resume_survey``
picks such a run back up, skipping already-measured (condition,
domain) pairs; because per-site randomness derives only from (seed,
domain, round, condition), a resumed run is bit-identical to an
uninterrupted one.  A per-site :class:`RetryPolicy` re-attempts
transient fetch failures with exponential backoff and records
exhausted or deterministic failures with their cause instead of
aborting the run.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.blocking.extension import BrowsingCondition
from repro.blocking.lists import builtin_filter_list, builtin_tracker_database
from repro.browser.browser import Browser, BrowserConfig
from repro.browser.session import TELEMETRY_COUNTERS, SiteMeasurement
from repro.core import runmetrics
from repro.core.sandbox import (
    QUARANTINE_CAUSE,
    BudgetExceeded,
    MemoryGovernor,
    ResourceBudget,
    _default_rss_probe,
    set_memory_governor,
)
from repro.core.storage import RunLock, Storage, StorageError
from repro.minijs.compile import CompileCache, shared_cache
from repro.monkey.crawler import CrawlConfig, SiteCrawler
from repro.net.fetcher import Fetcher
from repro.net.resilience import ResilienceConfig
from repro.webgen.sitegen import SyntheticWeb
from repro.webidl.registry import FeatureRegistry

ProgressCallback = Callable[[str, int, int], None]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try a site before recording it as failed.

    Only *transient* failures (see ``NetworkError.transient``) are
    retried: re-running a deterministic failure — NXDOMAIN, a site
    whose only script has a fatal syntax error — reproduces it
    exactly, so retrying wastes crawl time without changing validity.
    """

    #: total attempts per (condition, domain), including the first
    attempts: int = 3
    #: seconds before the first retry (0 disables sleeping; tests)
    backoff_base: float = 0.5
    #: exponential growth factor between retries
    backoff_factor: float = 2.0
    #: ceiling on any single backoff sleep
    backoff_max: float = 60.0

    def delay(self, failures_so_far: int) -> float:
        """Backoff before the next attempt, after N failed ones."""
        delay = self.backoff_base * (
            self.backoff_factor ** max(0, failures_so_far - 1)
        )
        return min(delay, self.backoff_max)


class DomainFailure(str):
    """A failed domain, str-compatible, carrying its failure record.

    Instances compare/hash as the bare domain (existing set-algebra
    over ``failed_domains`` keeps working) while ``cause`` holds the
    failure reason or raising exception class and ``attempts`` how many
    tries the retry policy spent.
    """

    cause: Optional[str]
    attempts: int
    transient: bool
    budget_cause: Optional[str]
    overshoot: float

    def __new__(
        cls,
        domain: str,
        cause: Optional[str] = None,
        attempts: int = 1,
        transient: bool = False,
        budget_cause: Optional[str] = None,
        overshoot: float = 0.0,
    ) -> "DomainFailure":
        self = super().__new__(cls, domain)
        self.cause = cause
        self.attempts = attempts
        self.transient = transient
        #: structured budget cause ("deadline", "steps", "quarantined",
        #: ...) when a resource budget or the watchdog failed the site
        self.budget_cause = budget_cause
        #: worst used/limit ratio the site reached against that budget
        self.overshoot = overshoot
        return self


@dataclass
class SurveyConfig:
    """What to crawl and how."""

    #: browsing conditions to run (paper: default + blocking; add the
    #: single-extension conditions for the Figure 7 analysis)
    conditions: Tuple[str, ...] = (
        BrowsingCondition.DEFAULT,
        BrowsingCondition.BLOCKING,
    )
    #: visit rounds per site per condition (the paper uses five)
    visits_per_site: int = 5
    #: master seed for the crawl's randomness
    seed: int = 606
    crawl: CrawlConfig = field(default_factory=CrawlConfig)
    browser: BrowserConfig = field(default_factory=BrowserConfig)
    #: crawl only the first N ranked sites (None = all)
    max_sites: Optional[int] = None
    #: parallel crawl workers (1 = in-process).  Per-site randomness is
    #: derived from (seed, domain, round), so worker count and schedule
    #: cannot change the measurements — parallel and serial runs are
    #: bit-identical.
    workers: int = 1
    #: multiprocessing start method for parallel crawls: "fork",
    #: "spawn", "forkserver", or None to auto-detect (fork where the
    #: platform offers it — workers inherit the pre-warmed compile
    #: cache for free — falling back to spawn elsewhere, e.g. Windows,
    #: macOS defaults, or Python >= 3.14's new default).  Worker state
    #: is rebuilt from explicitly passed initializer args either way,
    #: so every start method measures bit-identically.
    start_method: Optional[str] = None
    #: per-site retry behavior for transient failures
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: per-*request* resilience (retries with VirtualClock-charged
    #: seeded backoff, per-origin circuit breakers).  The default is
    #: inert — request-level retries change how many wire attempts a
    #: source sees, so they are opt-in; the CLI arms them
    #: (``--request-retries`` / ``--breaker-threshold``)
    resilience: ResilienceConfig = field(
        default_factory=ResilienceConfig
    )
    #: site-isolation resource budgets (the default enforces nothing);
    #: a blown budget degrades that round into a partial measurement
    budget: ResourceBudget = field(default_factory=ResourceBudget)
    #: strikes (worker kills/hangs) before a site is quarantined and
    #: never dispatched again
    quarantine_threshold: int = 3
    #: seconds a parallel worker may go without a heartbeat while
    #: holding a site before the supervisor kills and respawns it.
    #: None disables the watchdog (a hung site then hangs its worker
    #: forever, as with the plain pool).  Only parallel crawls
    #: (``workers > 1``) have a supervisor to enforce this.
    hang_timeout: Optional[float] = 300.0
    #: seconds a dispatched site may hold its lease before the
    #: supervisor revokes it: the straggling worker is killed, the
    #: site struck and re-leased under a fresh epoch (the old epoch's
    #: late result, should the corpse have piped one, is fenced off as
    #: stale).  Unlike ``hang_timeout`` this bounds *total* time on a
    #: site — a worker can beat forever while grinding one page.
    #: None (the default) disables the deadline.
    lease_deadline: Optional[float] = None
    #: RSS ceiling per worker process, in MB (``ru_maxrss`` high-water
    #: polled on the heartbeat).  A worker crossing it finishes the
    #: in-flight page, records a structured ``memory-pressure`` cause
    #: on the site's measurement, ships it, and exits so the
    #: supervisor respawns a fresh process; sites that repeatedly
    #: pressure workers accumulate quarantine strikes.  Serial crawls
    #: degrade the same way but cannot recycle the process — the
    #: high-water mark never comes back down — so a pressured serial
    #: run marks every remaining site.  None (the default) disables
    #: governance.
    max_worker_rss_mb: Optional[float] = None
    #: record a span trace of the crawl (see :mod:`repro.obs`).  With a
    #: run directory, each site's trace is appended to a per-condition
    #: ``trace-<condition>.jsonl`` shard right before its measurement;
    #: without one the spans are built and discarded.
    trace: bool = False
    #: MiniJS execution tier: "compiled" (closure-compiled, the crawl
    #: default) or "tree" (the reference tree-walking oracle).  Both
    #: engines are observationally identical — same measurements, step
    #: counts and trace digests (tests/test_engine_differential.py) —
    #: so this only selects how fast scripts run.
    engine: str = "compiled"
    #: with a run directory, append snapshots of the unstable runtime
    #: metrics (:mod:`repro.core.runmetrics`: RSS, heartbeats, fault
    #: counters) to ``metrics.jsonl``; readers derive the stable
    #: series from the shards either way.
    metrics: bool = True
    #: seconds between durable metrics snapshots (the heartbeat
    #: cadence); site completions also snapshot when the interval has
    #: lapsed, and a final snapshot always lands before the run ends
    metrics_interval: float = 10.0
    #: durability layer every checkpoint write goes through (shard
    #: appends, manifest/quarantine/result write-then-rename).  The
    #: default retries transient OSErrors with torn-tail rollback;
    #: swap in :class:`repro.core.storage.FaultyStorage` to chaos-test
    #: the crawl against ENOSPC/EIO/torn writes (``repro chaos --arms
    #: storage``)
    storage: Storage = field(default_factory=Storage)


class SurveyInterrupted(RuntimeError):
    """The crawl drained cleanly after SIGTERM/SIGINT.

    Raised by :func:`run_survey` once in-flight visits have finished,
    all shards are flushed and fsynced, and the manifest is stamped
    ``interrupted``.  The CLI maps it to exit code 3; ``--resume``
    picks the run back up bit-identically.
    """

    def __init__(self, message: str, run_dir: Optional[str] = None):
        super().__init__(message)
        self.run_dir = run_dir


class _DrainGuard:
    """SIGTERM/SIGINT → graceful drain, second signal → hard stop.

    Installed around a crawl (main thread only; worker threads and
    subprocesses leave signal state alone).  The first signal merely
    sets :attr:`requested` — the serial loop stops before its next
    site and the parallel supervisor stops dispatching while letting
    in-flight visits finish against their budgets.  A second signal
    means the operator is done waiting: it raises
    ``KeyboardInterrupt`` from the handler, abandoning the drain (the
    checkpoint is still crash-consistent; at most the in-flight sites
    are re-measured on resume).
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.requested = False
        self.signum: Optional[int] = None
        self._previous: Dict[int, object] = {}

    def _handle(self, signum, frame) -> None:
        if self.requested:
            raise KeyboardInterrupt(
                "second signal during drain — aborting hard"
            )
        self.requested = True
        self.signum = signum

    def __enter__(self) -> "_DrainGuard":
        if threading.current_thread() is threading.main_thread():
            for signum in self._SIGNALS:
                try:
                    self._previous[signum] = signal.signal(
                        signum, self._handle
                    )
                except (ValueError, OSError):
                    continue
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError, TypeError):
                pass
        self._previous.clear()


@dataclass
class SurveyResult:
    """Everything the crawl measured, ready for analysis."""

    conditions: Tuple[str, ...]
    visits_per_site: int
    domains: List[str]
    #: condition -> domain -> measurement
    measurements: Dict[str, Dict[str, SiteMeasurement]]
    #: traffic weight per domain (Figure 5)
    visit_weights: Dict[str, float]
    #: ground truth for the external validation (Figure 9)
    manual_only: Dict[str, List[str]]
    registry: FeatureRegistry
    #: crawl duration, measured on the monotonic clock
    #: (``time.perf_counter``) so NTP adjustments cannot skew it
    wall_seconds: float = 0.0
    #: compile-cache counters accumulated over the crawl (hits, misses,
    #: evictions, error_hits, parse_seconds, compiled_bytes, entries),
    #: summed across the parent and every parallel worker
    compile_cache: Dict[str, float] = field(default_factory=dict)
    #: process-fault counters from the parallel supervisor (watchdog
    #: kills, frame corruptions absorbed, stale lease results fenced,
    #: typed worker faults, spawn retries, lease revocations, memory
    #: recycles) — zero-valued entries omitted.  Observability only:
    #: deliberately excluded from serialization and the survey digest,
    #: because what was *measured* must not depend on which faults the
    #: run survived.
    process_faults: Dict[str, int] = field(default_factory=dict)

    # -- views -----------------------------------------------------------

    def measurement(self, condition: str, domain: str) -> SiteMeasurement:
        return self.measurements[condition][domain]

    def measured_domains(self, condition: str) -> List[str]:
        return [
            d for d in self.domains
            if self.measurements[condition][d].measured
        ]

    def failed_domains(self, condition: str) -> List[DomainFailure]:
        """Unmeasured domains, each carrying its failure cause.

        The elements are plain strings (``DomainFailure`` subclasses
        ``str``) annotated with ``cause``, ``attempts`` and
        ``transient`` for the failure report.
        """
        out: List[DomainFailure] = []
        for d in self.domains:
            m = self.measurements[condition][d]
            if not m.measured:
                out.append(DomainFailure(
                    d,
                    cause=m.failure_reason,
                    attempts=m.attempts,
                    transient=m.transient_failure,
                    budget_cause=m.budget_cause,
                    overshoot=m.budget_overshoot,
                ))
        return out

    def retried_domains(self, condition: str) -> List[str]:
        """Domains that needed more than one measurement attempt."""
        return [
            d for d in self.domains
            if self.measurements[condition][d].attempts > 1
        ]

    def quarantined_domains(self, condition: str) -> List[str]:
        """Domains the watchdog quarantined instead of measuring."""
        return [
            d for d in self.domains
            if self.measurements[condition][d].budget_cause
            == QUARANTINE_CAUSE
            and not self.measurements[condition][d].measured
        ]

    def telemetry_totals(self, condition: str) -> Dict[str, int]:
        """Condition-wide sums of the canonical per-site counters."""
        totals = {name: 0 for name in TELEMETRY_COUNTERS}
        for measurement in self.measurements[condition].values():
            for name in TELEMETRY_COUNTERS:
                totals[name] += getattr(measurement, name)
        return totals

    def degraded_domains(self, condition: str) -> List[str]:
        """Measured domains that lost resources along the way.

        Disjoint from :meth:`failed_domains` by construction (degraded
        requires ``measured``): these sites have real numbers that are
        lower bounds, versus failed sites which have none.
        """
        return [
            d for d in self.domains
            if self.measurements[condition][d].degraded_measurement
        ]

    def commonly_measured_domains(self) -> List[str]:
        """Domains measured under every condition (block-rate joins)."""
        out = []
        for domain in self.domains:
            if all(
                self.measurements[c][domain].measured
                for c in self.conditions
            ):
                out.append(domain)
        return out

    def feature_sites(self, condition: str) -> Dict[str, Set[str]]:
        """feature name -> set of domains using it."""
        index: Dict[str, Set[str]] = {}
        for domain in self.measured_domains(condition):
            for feature in self.measurements[condition][domain].features:
                index.setdefault(feature, set()).add(domain)
        return index

    def standard_sites(self, condition: str) -> Dict[str, Set[str]]:
        """standard abbrev -> set of domains using it."""
        index: Dict[str, Set[str]] = {
            s.abbrev: set() for s in self.registry.standards()
        }
        for domain in self.measured_domains(condition):
            measurement = self.measurements[condition][domain]
            for abbrev in measurement.standards_used():
                index[abbrev].add(domain)
        return index

    def total_pages_visited(self) -> int:
        return sum(
            m.pages
            for by_domain in self.measurements.values()
            for m in by_domain.values()
        )

    def total_invocations(self) -> int:
        return sum(
            m.invocations
            for by_domain in self.measurements.values()
            for m in by_domain.values()
        )


def _build_crawler(
    web: SyntheticWeb,
    registry: FeatureRegistry,
    config: SurveyConfig,
    condition: str,
) -> SiteCrawler:
    extensions = BrowsingCondition.extensions_for(
        condition,
        filter_list=builtin_filter_list(web.ecosystem),
        tracker_db=builtin_tracker_database(web.ecosystem),
    )
    browser_config = config.browser
    if browser_config.engine != config.engine:
        browser_config = replace(browser_config, engine=config.engine)
    browser = Browser(
        registry,
        # The jitter seed derives from the survey seed, so every
        # worker — forked, spawned or resumed — computes identical
        # backoff delays for the same (url, attempt).
        Fetcher(web, resilience=config.resilience.seeded(config.seed)),
        blocking_extensions=extensions,
        config=browser_config,
    )
    return SiteCrawler(
        browser, config.crawl, condition=condition, budget=config.budget
    )


def _measure_site_once(
    crawler: SiteCrawler,
    registry: FeatureRegistry,
    config: SurveyConfig,
    condition: str,
    domain: str,
) -> SiteMeasurement:
    measurement = SiteMeasurement(domain=domain, condition=condition)
    for round_index in range(1, config.visits_per_site + 1):
        result = crawler.visit_site(domain, round_index, seed=config.seed)
        measurement.add_round(result, registry)
    return measurement


def _measure_site_attempts(
    crawler: SiteCrawler,
    registry: FeatureRegistry,
    config: SurveyConfig,
    condition: str,
    domain: str,
) -> SiteMeasurement:
    """Measure one site under the retry policy.

    Re-runs a fully failed measurement when the failure was transient,
    sleeping the policy's exponential backoff between attempts.
    Because each attempt reseeds from (seed, domain, round, condition),
    a retried site that finally succeeds is bit-identical to one that
    never failed.  An exception
    escaping the crawl machinery is recorded as that site's failure
    cause — one hostile site must not abort a 10,000-site run.
    (``KeyboardInterrupt``/``SystemExit`` still propagate, so an
    operator can stop a checkpointed run and resume it later.)
    """
    policy = config.retry
    attempts = max(1, policy.attempts)
    measurement = SiteMeasurement(domain=domain, condition=condition)
    for attempt in range(1, attempts + 1):
        with obs.span("attempt", n=attempt):
            try:
                measurement = _measure_site_once(
                    crawler, registry, config, condition, domain
                )
            except (MemoryError, BudgetExceeded, SurveyInterrupted):
                # Not site failures, and recording them here would hide
                # them: a MemoryError means this *process* can no longer
                # be trusted (the parallel worker converts it into a
                # typed fault report and recycles itself); a
                # BudgetExceeded escaping this far means the crawler's
                # degrade-to-partial path is broken (swallowing it
                # would mask the bug as a per-site failure); a drain
                # interrupt must stop the loop, not consume a retry.
                raise
            except Exception as error:
                measurement = SiteMeasurement(
                    domain=domain, condition=condition
                )
                measurement.failure_reason = "%s: %s" % (
                    type(error).__name__, error
                )
                measurement.transient_failure = bool(
                    getattr(error, "transient", False)
                )
                obs.event("attempt-failed",
                          reason=measurement.failure_reason)
        measurement.attempts = attempt
        if measurement.measured:
            break
        if attempt >= attempts or not measurement.transient_failure:
            break
        delay = policy.delay(attempt)
        obs.event("site-retry", next_attempt=attempt + 1, delay=delay)
        if delay > 0:
            time.sleep(delay)
    return measurement


def _measure_site(
    crawler: SiteCrawler,
    registry: FeatureRegistry,
    config: SurveyConfig,
    condition: str,
    domain: str,
    lease_epoch: Optional[int] = None,
) -> Tuple[SiteMeasurement, Optional[Dict[str, object]],
           Optional[Dict[str, int]]]:
    """Measure one site; pairs the measurement with trace + metrics.

    The trace is the serialized ``site`` span tree when a tracer is
    installed, else None.  The site span is self-contained — no
    run-level parent — so a resumed run's traces merge cleanly with
    the interrupted run's.  A fenced run's lease epoch is recorded as
    an *unstable* ``lease`` event: visible in the profiling trace,
    excluded from the structural digest (a re-leased site's epoch 2 is
    scheduling history, not measurement content).

    The third element is the site's deterministic metrics delta
    (:func:`repro.core.runmetrics.wire_delta`): the cumulative fetcher
    and metered-interpreter counters snapshotted around the site in
    the measuring process, so they cover exactly this site's work
    whatever process measured it.
    """
    fetcher = crawler.browser.fetcher
    before = (
        fetcher.requests_issued, fetcher.requests_failed,
        fetcher.requests_short_circuited, fetcher.bytes_fetched,
        crawler.steps_executed, crawler.allocations_counted,
    )
    tracer = obs.current_tracer()
    trace = None
    if tracer is None:
        measurement = _measure_site_attempts(
            crawler, registry, config, condition, domain
        )
    else:
        with tracer.span("site", domain=domain, condition=condition):
            if lease_epoch is not None:
                tracer.event("lease", stable=False, epoch=lease_epoch)
            measurement = _measure_site_attempts(
                crawler, registry, config, condition, domain
            )
            tracer.set_attrs(attempts=measurement.attempts,
                             measured=measurement.measured)
        root = tracer.take_root()
        trace = obs.span_to_dict(root) if root is not None else None
    wire = runmetrics.wire_delta(
        requests=fetcher.requests_issued - before[0],
        requests_failed=fetcher.requests_failed - before[1],
        short_circuited=fetcher.requests_short_circuited - before[2],
        bytes_fetched=fetcher.bytes_fetched - before[3],
        steps=crawler.steps_executed - before[4],
        allocations=crawler.allocations_counted - before[5],
    )
    return measurement, trace, wire


def resolve_start_method(requested: Optional[str] = None) -> str:
    """The multiprocessing start method a parallel crawl should use.

    Prefers ``fork`` (workers inherit the pre-warmed compile cache and
    the generated web through copy-on-write memory, so nothing is
    pickled), but falls back to ``spawn`` on platforms without fork —
    and honors an explicit request, validated against what the
    platform actually offers.
    """
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise ValueError(
                "start method %r unavailable on this platform "
                "(offers: %s)" % (requested, ", ".join(available))
            )
        return requested
    return "fork" if "fork" in available else "spawn"


def _mirror_process(
    registry: "runmetrics.MetricsRegistry", rss_mb: float = 0.0
) -> None:
    """Refresh this process's unstable mirrors in ``registry``.

    The compile-cache cumulative counters (labeled by pid, max-merged)
    and the RSS high-water gauge: ``rss_mb`` when the caller already
    probed it (a worker's governor), a direct probe otherwise.
    """
    proc = str(os.getpid())
    counters = shared_cache().counters()
    registry.counter_floor("compile_cache_hits_total",
                           counters.get("hits", 0), proc=proc)
    registry.counter_floor("compile_cache_misses_total",
                           counters.get("misses", 0), proc=proc)
    rss = rss_mb or _default_rss_probe()
    if rss:
        registry.set_gauge("worker_rss_mb", round(rss, 1), proc=proc)


class _CrawlStats:
    """Accumulates compile-cache deltas and process faults for a run."""

    def __init__(self) -> None:
        self.cache: Dict[str, float] = {}
        self.proc: Dict[str, int] = {}
        self._cache_start = shared_cache().counters()

    def add_cache(self, delta: Dict[str, float]) -> None:
        for key, value in delta.items():
            self.cache[key] = self.cache.get(key, 0.0) + value

    def proc_faults(self) -> Dict[str, int]:
        """The nonzero process-fault counters (zero is not news)."""
        return {k: v for k, v in self.proc.items() if v}

    def finish(self) -> None:
        """Fold in the parent process's own delta since construction."""
        self.add_cache(CompileCache.counter_delta(
            shared_cache().counters(), self._cache_start
        ))
        self.cache["entries"] = float(len(shared_cache()))


class _MetricsPump:
    """Durably snapshots the merged metrics registry on a cadence.

    The parent registry holds the supervisor's fault counters and the
    parent's own unstable gauges; each worker's latest cumulative
    snapshot arrives over :data:`~repro.core.ipc.KIND_METRICS` frames
    and is folded in only at snapshot-build time.  Every snapshot is appended to
    ``metrics.jsonl`` through the checkpoint's crash-safe storage
    path, so a torn tail is repairable and ``seq`` continues across
    resume without duplication.
    """

    def __init__(
        self,
        registry: "runmetrics.MetricsRegistry",
        checkpoint,
        total: int,
        interval: float,
    ) -> None:
        self.registry = registry
        self.checkpoint = checkpoint
        self.total = total
        self.interval = interval
        self.seq = checkpoint.last_metrics_seq()
        self._last = time.monotonic()
        #: pid -> latest cumulative snapshot shipped by that worker
        self.worker_metrics: Dict[int, Dict[str, object]] = {}
        #: pre-snapshot gauge refreshers (supervisor heartbeat ages)
        self.hooks: List[Callable[[], None]] = []

    def merged(self) -> Dict[str, object]:
        """The run-wide snapshot: parent registry + worker views."""
        _mirror_process(self.registry)
        for hook in list(self.hooks):
            hook()
        snapshot = self.registry.snapshot()
        for worker in self.worker_metrics.values():
            snapshot = runmetrics.merge_snapshots(snapshot, worker)
        return snapshot

    def maybe(self, force: bool = False, kind: str = "snapshot") -> None:
        """Append a snapshot if the cadence (or ``force``) says so."""
        now = time.monotonic()
        if not force and now - self._last < self.interval:
            return
        self._last = now
        self.seq += 1
        self.checkpoint.append_metrics({
            "kind": kind,
            "seq": self.seq,
            "at": round(time.time(), 3),
            "done": self.checkpoint.done_counts(),
            "total": self.total,
            "metrics": self.merged(),
        })

    def final(self) -> None:
        """The run's last snapshot, forced whatever the cadence."""
        self.maybe(force=True, kind="final")


def run_survey(
    web: SyntheticWeb,
    registry: FeatureRegistry,
    config: Optional[SurveyConfig] = None,
    progress: Optional[ProgressCallback] = None,
    run_dir: Optional[str] = None,
    resume: bool = False,
) -> SurveyResult:
    """Crawl the web under every condition and collect the result.

    With ``run_dir``, every finished site-measurement is durably
    checkpointed there before the crawl moves on, and the finished
    survey is saved alongside the shards as ``survey.json``.  With
    ``resume`` (see :func:`resume_survey`), a directory holding a
    compatible interrupted run is picked back up where it stopped.
    """
    config = config or SurveyConfig()
    # Durations come from the monotonic clock (an NTP step mid-crawl
    # must not corrupt wall_seconds); the one wall-clock read below is
    # the human-readable start stamp recorded in the run manifest.
    started = time.perf_counter()
    started_at = time.time()

    ranked = web.ranking.all()
    if config.max_sites is not None:
        ranked = ranked[: config.max_sites]
    domains = [r.domain for r in ranked]

    # Local import: supervisor -> survey.
    from repro.core.supervisor import _CrawlSupervisor, _crawl_serial

    checkpoint = None
    lock: Optional[RunLock] = None
    if run_dir is not None:
        # Local import: checkpoint -> persistence -> survey.
        from repro.core.checkpoint import (
            STATUS_INTERRUPTED,
            SurveyCheckpoint,
        )

        # Advisory lock first: two crawls interleaving appends into the
        # same shards would corrupt both runs' ordering guarantees.  A
        # second live process raises RunLockError (CLI exit 2); a stale
        # lock from a dead pid is reclaimed silently.
        lock = RunLock.acquire(run_dir)
        try:
            checkpoint = SurveyCheckpoint.attach(
                run_dir, registry, config, domains, resume=resume,
                started_at=started_at, storage=config.storage,
            )
        except BaseException:
            lock.release()
            raise

    previous_tracer = obs.current_tracer()
    metrics_installed = False
    previous_registry: Optional[runmetrics.MetricsRegistry] = None
    pump: Optional[_MetricsPump] = None
    frozen = False
    guard = _DrainGuard()
    try:
        with guard:
            stats = _CrawlStats()
            if config.metrics and checkpoint is not None:
                # The run-wide registry lives in the parent and holds
                # only how this execution went; the stable series are
                # derived from the shards by whoever reads the run.
                metrics_registry = runmetrics.MetricsRegistry()
                previous_registry = runmetrics.set_registry(
                    metrics_registry
                )
                metrics_installed = True
                pump = _MetricsPump(
                    metrics_registry, checkpoint,
                    total=len(domains) * len(config.conditions),
                    interval=config.metrics_interval,
                )
            # Parse the high-reuse script bodies once, up front: the
            # serial crawl (and every fork-started worker, via
            # copy-on-write) runs against a hot cache from its first
            # page load.  A compiled-engine crawl also closure-lowers
            # each body, so workers inherit the code cache too.
            shared_cache().prewarm(
                web.script_bodies(domains),
                lower=config.engine == "compiled",
            )
            # The set-up heap (registry, web, compile cache) outlives
            # every page; frozen, full collections stop rescanning it,
            # and forked workers stop touching its pages.  A caller's
            # freeze is left alone: unfreezing would undo it.
            if gc.get_freeze_count() == 0:
                gc.freeze()
                frozen = True
            # The tracer goes in after the prewarm (warm-up parses are
            # not crawl work) and comes out in the finally below, so a
            # crawl never leaks tracing state into the caller's
            # process.
            if config.trace:
                obs.set_tracer(obs.Tracer())
            if (config.max_worker_rss_mb is not None
                    and config.workers <= 1):
                # Serial crawls are governed in-process: pressure still
                # degrades each site gracefully, but with no supervisor
                # to recycle the process the high-water mark persists —
                # every remaining site then records the cause honestly.
                set_memory_governor(
                    MemoryGovernor(config.max_worker_rss_mb)
                )
            # One condition-major task list for the whole survey: the
            # (condition, domain) pairs not already on disk.
            measurements: Dict[str, Dict[str, SiteMeasurement]] = {}
            tasks: List[Tuple[str, str]] = []
            for condition in config.conditions:
                done = (
                    checkpoint.done(condition)
                    if checkpoint is not None else {}
                )
                measurements[condition] = done
                tasks += [(condition, d) for d in domains if d not in done]
                if done and progress is not None:
                    progress(condition, len(done), len(domains))

            def record(
                measurement: SiteMeasurement,
                trace: Optional[Dict[str, object]] = None,
                lease_epoch: Optional[int] = None,
                site_metrics: Optional[Dict[str, int]] = None,
            ) -> None:
                """File one finished task, in task order."""
                by_domain = measurements[measurement.condition]
                by_domain[measurement.domain] = measurement
                if checkpoint is not None:
                    # Trace first: resume skips sites whose measurement
                    # is on disk, so a crash between the two appends
                    # leaves an orphan trace (re-recorded, last-wins, on
                    # resume) rather than a measured site whose trace is
                    # forever missing.
                    if trace is not None:
                        checkpoint.append_trace(
                            measurement.condition, measurement.domain,
                            trace,
                        )
                    checkpoint.append(measurement, lease_epoch=lease_epoch,
                                      metrics=site_metrics)
                if pump is not None:
                    pump.maybe()
                if progress is not None and len(by_domain) % 50 == 0:
                    progress(measurement.condition, len(by_domain),
                             len(domains))

            if config.workers > 1 and tasks:
                _CrawlSupervisor(
                    web, registry, config, tasks, checkpoint,
                    drain=guard, pump=pump,
                ).run(record, stats)
            else:
                _crawl_serial(
                    web, registry, config, tasks, record, checkpoint,
                    drain=guard,
                )
        if guard.requested:
            # Every in-flight visit has finished or been dropped, every
            # shard append is already fsynced; stamp the manifest so
            # operators (and fsck) can tell a drained run from a crash.
            if pump is not None:
                pump.final()
            if checkpoint is not None:
                checkpoint.mark_status(STATUS_INTERRUPTED)
            raise SurveyInterrupted(
                "crawl interrupted by signal %s — drained cleanly%s"
                % (guard.signum,
                   "; rerun with --resume to continue"
                   if run_dir is not None else ""),
                run_dir=run_dir,
            )

        manual_only = {
            site.domain: list(site.plan.manual_only)
            for site in web.sites.values()
            if site.plan.manual_only and site.domain in set(domains)
        }
        weights = {
            domain: web.ranking.visit_weight(domain)
            for domain in domains
        }
        if pump is not None:
            pump.final()
        stats.finish()
        result = SurveyResult(
            conditions=tuple(config.conditions),
            visits_per_site=config.visits_per_site,
            domains=domains,
            # Canonical domain order: resumed, parallel and serial runs
            # must serialize identically, so insertion order never
            # leaks in.
            measurements={
                condition: {d: by_domain[d] for d in domains}
                for condition, by_domain in measurements.items()
            },
            visit_weights=weights,
            manual_only=manual_only,
            registry=registry,
            wall_seconds=time.perf_counter() - started,
            compile_cache=stats.cache,
            process_faults=stats.proc_faults(),
        )
        if checkpoint is not None:
            checkpoint.write_result(result)
        return result
    except StorageError:
        # The durability layer exhausted its retries (ENOSPC, EIO, ...).
        # Everything already checkpointed is fsynced and parseable —
        # the failed write was rolled back to a record boundary — so
        # stamp the run interrupted (best-effort; the same storage may
        # refuse) and surface the typed, resumable error.
        if checkpoint is not None:
            try:
                checkpoint.mark_status(STATUS_INTERRUPTED)
            except OSError:
                pass
        raise
    finally:
        if frozen:
            gc.unfreeze()
        if config.trace:
            obs.set_tracer(previous_tracer)
        if metrics_installed:
            runmetrics.set_registry(previous_registry)
        if config.max_worker_rss_mb is not None:
            set_memory_governor(None)
        if checkpoint is not None:
            checkpoint.close()
        if lock is not None:
            lock.release()


def resume_survey(
    web: SyntheticWeb,
    registry: FeatureRegistry,
    run_dir: str,
    config: Optional[SurveyConfig] = None,
    progress: Optional[ProgressCallback] = None,
) -> SurveyResult:
    """Resume (or start) a checkpointed survey in ``run_dir``.

    Validates that the directory's manifest matches the live registry
    fingerprint and crawl configuration (raising
    :class:`~repro.core.checkpoint.CheckpointError` on any mismatch),
    skips every (condition, domain) pair already on disk, and crawls
    the rest.  The returned result is bit-identical to an
    uninterrupted run of the same configuration.
    """
    return run_survey(
        web, registry, config=config, progress=progress,
        run_dir=run_dir, resume=True,
    )
