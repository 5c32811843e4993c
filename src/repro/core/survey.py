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

import os
import pickle
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.blocking.extension import BrowsingCondition
from repro.blocking.lists import builtin_filter_list, builtin_tracker_database
from repro.browser.browser import Browser, BrowserConfig
from repro.browser.session import TELEMETRY_COUNTERS, SiteMeasurement
from repro.core import ipc, runmetrics
from repro.core.sandbox import (
    MEMORY_PRESSURE_CAUSE,
    QUARANTINE_CAUSE,
    BudgetExceeded,
    MemoryGovernor,
    ResourceBudget,
    _default_rss_probe,
    set_alloc_hook,
    set_heartbeat,
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
    retried by default: re-running a deterministic failure — NXDOMAIN,
    a site whose only script has a fatal syntax error — reproduces it
    exactly, so retrying wastes crawl time without changing validity.
    ``retry_deterministic`` flips that for debugging.
    """

    #: total attempts per (condition, domain), including the first
    attempts: int = 3
    #: seconds before the first retry (0 disables sleeping; tests)
    backoff_base: float = 0.5
    #: exponential growth factor between retries
    backoff_factor: float = 2.0
    #: ceiling on any single backoff sleep
    backoff_max: float = 60.0
    #: also retry failures classified as deterministic
    retry_deterministic: bool = False

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
    #: the crawl against ENOSPC/EIO/torn writes (``repro chaos
    #: --storage``)
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

    Re-runs a fully failed measurement when the failure was transient
    (or always, with ``retry_deterministic``), sleeping the policy's
    exponential backoff between attempts.  Because each attempt reseeds
    from (seed, domain, round, condition), a retried site that finally
    succeeds is bit-identical to one that never failed.  An exception
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
        if attempt >= attempts:
            break
        if not (measurement.transient_failure
                or policy.retry_deterministic):
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


def _prewarm_compile_cache(
    web: SyntheticWeb, domains: Sequence[str], lower: bool = False
) -> int:
    """Compile the crawl's high-reuse script bodies up front.

    Run in the parent before forking (children inherit the hot cache)
    and again in each spawn-started worker (which inherits nothing).
    Idempotent: warming an already-warm cache is a hash lookup per
    body.  With ``lower=True`` (a compiled-engine crawl) each body is
    also closure-lowered, so workers inherit the code cache too.
    """
    return shared_cache().prewarm(web.script_bodies(domains), lower=lower)


# Worker-process state for the parallel crawl, rebuilt by the pool
# initializer from explicitly passed arguments.  Under fork the args
# are inherited by reference (nothing is pickled — webs can be
# hundreds of MB); under spawn they are pickled once per worker, which
# is what makes the fallback correct on fork-less platforms.
_worker_state: Dict[str, object] = {}

#: Per-worker baseline of the inherited (fork) compile-cache counters,
#: so each worker reports only its own delta to the parent.
_worker_baseline: Dict[str, Dict[str, float]] = {}


def _parallel_worker_init(
    web: SyntheticWeb,
    registry: FeatureRegistry,
    config: SurveyConfig,
    condition: str,
    domains: Sequence[str],
) -> None:
    _worker_baseline["cache"] = shared_cache().counters()
    _prewarm_compile_cache(web, domains, lower=config.engine == "compiled")
    # Tracer goes in after the prewarm so warm-up parses never build
    # spans; each worker records its own sites' traces and ships them
    # with the measurement over the result pipe.
    if config.trace:
        obs.set_tracer(obs.Tracer())
    if config.metrics:
        # Worker registries carry only process-local (unstable) series
        # — RSS, compile-cache mirrors; the stable per-site deltas ride
        # the result payloads instead, so a killed worker's registry
        # can vanish without perturbing the deterministic totals.
        runmetrics.set_registry(runmetrics.MetricsRegistry())
    _worker_state["crawler"] = _build_crawler(
        web, registry, config, condition
    )
    _worker_state["registry"] = registry
    _worker_state["config"] = config
    _worker_state["condition"] = condition


def _parallel_measure(
    domain: str,
    lease_epoch: Optional[int] = None,
) -> Tuple[SiteMeasurement, Optional[Dict[str, object]],
           Optional[Dict[str, int]], int, Dict[str, float]]:
    """Measure one site; piggyback this worker's cumulative stats.

    The parent keeps the per-pid elementwise maximum (the counters are
    monotonic), so whichever result arrives last per worker carries
    its totals.
    """
    measurement, trace, wire = _measure_site(
        _worker_state["crawler"],
        _worker_state["registry"],
        _worker_state["config"],
        _worker_state["condition"],
        domain,
        lease_epoch=lease_epoch,
    )
    cache_delta = CompileCache.counter_delta(
        shared_cache().counters(), _worker_baseline["cache"]
    )
    return measurement, trace, wire, os.getpid(), cache_delta


def _quarantined_measurement(
    domain: str, condition: str, threshold: int
) -> SiteMeasurement:
    """The deterministic record a poison site gets instead of a crawl.

    Depends only on the strike threshold — never on timing — so a
    killed-and-resumed run synthesizes byte-identical records.
    """
    measurement = SiteMeasurement(domain=domain, condition=condition)
    measurement.failure_reason = (
        "%s: site killed or hung %d crawl workers"
        % (QUARANTINE_CAUSE, threshold)
    )
    measurement.transient_failure = False
    measurement.budget_cause = QUARANTINE_CAUSE
    measurement.attempts = threshold
    return measurement


def _quarantined_trace(
    domain: str, condition: str, threshold: int
) -> Dict[str, object]:
    """The trace a quarantined site gets: a synthetic site span.

    Built from the same inputs as :func:`_quarantined_measurement`
    (never from timing), so resumed runs reproduce it byte for byte.
    """
    return {
        "name": "site",
        "attrs": {
            "domain": domain,
            "condition": condition,
            "attempts": threshold,
            "measured": False,
        },
        "real_ms": 0.0,
        "children": [{
            "name": "quarantined",
            "attrs": {"strikes": threshold},
            "real_ms": 0.0,
        }],
    }


def _send_frame(conn, obj: object, kind: int = ipc.KIND_RESULT) -> None:
    """Pickle and frame one message onto a result pipe."""
    conn.send_bytes(ipc.encode_frame(pickle.dumps(obj), kind=kind))


def _worker_metrics_snapshot(governor=None):
    """This worker's metrics snapshot for the supervisor, or None.

    Freshens the process-local mirrors first: the compile-cache
    cumulative counters (labeled by pid, max-merged) and the RSS
    high-water gauge — the governor's last probe when one is polling,
    a direct probe otherwise.
    """
    registry = runmetrics.current_registry()
    if registry is None:
        return None
    proc = str(os.getpid())
    counters = shared_cache().counters()
    registry.counter_floor("compile_cache_hits_total",
                           counters.get("hits", 0), proc=proc)
    registry.counter_floor("compile_cache_misses_total",
                           counters.get("misses", 0), proc=proc)
    rss = governor.rss_mb if governor is not None else 0.0
    if not rss:
        rss = _default_rss_probe()
    if rss:
        registry.set_gauge("worker_rss_mb", round(rss, 1), proc=proc)
    return registry.snapshot()


def _watchdog_worker_main(
    slot: int,
    heartbeats,
    task_conn,
    result_conn,
    web: SyntheticWeb,
    registry: FeatureRegistry,
    config: SurveyConfig,
    condition: str,
    domains: Sequence[str],
) -> None:
    """A supervised crawl worker: register heartbeat, init, measure.

    Tasks arrive as ``(index, domain, lease_epoch)`` triples over a
    dedicated pipe; ``None`` means shut down.  Results go back over
    the slot's own result pipe as checksummed :mod:`repro.core.ipc`
    frames: a ``KIND_RESULT`` frame carrying the pickled ``(slot,
    index, domain, lease_epoch, payload)`` (payload matching
    :func:`_parallel_measure`'s return value), or a ``KIND_FAULT``
    frame carrying a typed fault report when the worker must recycle
    itself (currently: ``MemoryError`` escaping a measurement).  The
    framing means a worker dying mid-write tears at a frame boundary
    the supervisor's decoder detects and resynchronizes past — raw
    pickles on the pipe could poison the parent.

    Plain one-writer pipes, not ``multiprocessing.Queue``: a queue
    shares one write-lock semaphore among every producer, and a worker
    dying (``os._exit`` on a crasher page, or the watchdog's SIGKILL)
    between writing its bytes and releasing that lock strands the
    semaphore — every other worker's feeder thread then blocks forever
    and their results silently never arrive.  With a pipe per slot a
    dying writer can only tear its *own* channel, which the parent
    reads as EOF and handles as the worker death it is.
    """

    # Workers must outlive a Ctrl-C/SIGTERM aimed at the crawl: both
    # usually hit the whole process group, and a worker dying mid-visit
    # would turn a graceful drain into watchdog strikes.  The
    # supervisor owns worker lifetime — it drains in-flight sites, then
    # shuts workers down over their task pipes (or SIGKILLs them).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    except (ValueError, OSError):
        pass  # non-main thread or exotic platform: best-effort

    def beat() -> None:
        heartbeats[slot] = time.monotonic()

    set_heartbeat(beat)
    beat()
    # Deterministic process-fault injection (``repro chaos --proc``):
    # the plan rides on the wrapped web source and arms per-(domain,
    # epoch) faults inside this process.
    plan = getattr(web, "proc_chaos", None)
    if plan is not None:
        set_alloc_hook(plan.on_allocation)
    governor: Optional[MemoryGovernor] = None
    if config.max_worker_rss_mb is not None:
        governor = MemoryGovernor(config.max_worker_rss_mb)
        set_memory_governor(governor)
    _parallel_worker_init(web, registry, config, condition, domains)
    while True:
        # Poll with a short timeout and beat on every pass, so an
        # *idle* worker (result sent, next task not yet assigned)
        # keeps a fresh heartbeat.  A stale heartbeat then means
        # exactly one thing — stuck inside a measurement — which is
        # what the watchdog punishes.
        if not task_conn.poll(0.2):
            beat()
            continue
        try:
            task = task_conn.recv()
        except (EOFError, OSError):
            break  # parent closed our pipe: we are being replaced
        if task is None:
            break
        index, domain, lease_epoch = task
        beat()
        if plan is not None:
            plan.begin_task(domain, lease_epoch)
        try:
            payload = _parallel_measure(domain, lease_epoch=lease_epoch)
        except MemoryError as error:
            # The allocator (or an injected fault at an allocation
            # boundary) failed this process: nothing it computes from
            # here on can be trusted.  Report the typed fault — the
            # tiny frame fits the pipe buffer, so it lands even though
            # we exit immediately after — and recycle; the supervisor
            # strikes the site and re-leases it to a fresh worker.
            try:
                _send_frame(result_conn, {
                    "slot": slot, "index": index, "domain": domain,
                    "lease_epoch": lease_epoch, "cause": "memory-error",
                    "detail": str(error) or "MemoryError",
                }, kind=ipc.KIND_FAULT)
            except (BrokenPipeError, OSError):
                pass
            break
        if config.metrics:
            # Ship the worker's registry (unstable series only: cache
            # mirrors, RSS) ahead of the result.  Cumulative, so a lost
            # frame just means the supervisor keeps a slightly staler
            # view — never wrong totals.
            snapshot = _worker_metrics_snapshot(governor)
            if snapshot is not None:
                try:
                    _send_frame(
                        result_conn,
                        {"pid": os.getpid(), "metrics": snapshot},
                        kind=ipc.KIND_METRICS,
                    )
                except (BrokenPipeError, OSError):
                    pass
        if plan is not None:
            for noise in plan.pipe_noise(domain, lease_epoch):
                try:
                    result_conn.send_bytes(noise)
                except (BrokenPipeError, OSError):
                    pass
        try:
            _send_frame(
                result_conn,
                (slot, index, domain, lease_epoch, payload),
            )
        except (BrokenPipeError, OSError):
            break  # parent closed our pipe: we are being replaced
        beat()
        if governor is not None and governor.pressured:
            # The measurement just shipped carries the memory-pressure
            # cause; ``ru_maxrss`` is a high-water mark this process
            # can never shed, so exit and let the supervisor respawn a
            # fresh worker into the slot.
            break


class _CrawlSupervisor:
    """A watchdog-supervised worker fleet for one condition's crawl.

    Replaces the plain multiprocessing pool: each worker is an owned
    ``Process`` with its *own* task and result pipes, so the parent
    always knows exactly which site every worker holds — there is no
    shared queue whose in-flight items (or write-lock semaphore) a
    dead worker could strand.  Workers
    stamp a shared heartbeat array from the fetcher and page-boundary
    hooks; one whose heartbeat goes stale past ``hang_timeout`` while
    holding a site (or that dies outright, e.g. a crasher page taking
    the process down) is SIGKILLed, the site gets a strike, and a
    fresh worker takes the slot.  A site reaching
    ``quarantine_threshold`` strikes is quarantined: it gets a
    deterministic failure record and is never dispatched again —
    strikes persist in the checkpoint, so a resumed run honors them.

    Results are buffered and recorded strictly in submission order, so
    checkpoint shards are appended exactly as a serial crawl would
    append them.
    """

    _POLL_SECONDS = 0.05

    def __init__(
        self,
        web: SyntheticWeb,
        registry: FeatureRegistry,
        config: SurveyConfig,
        condition: str,
        pending: List[str],
        checkpoint=None,
        drain: Optional[_DrainGuard] = None,
        pump: Optional["_MetricsPump"] = None,
    ) -> None:
        import multiprocessing

        self.web = web
        self.registry = registry
        self.config = config
        self.condition = condition
        self.pending = list(pending)
        self.checkpoint = checkpoint
        self.drain_guard = drain
        self.metrics_pump = pump
        self.context = multiprocessing.get_context(
            resolve_start_method(config.start_method)
        )
        self.n_workers = max(1, min(config.workers, len(self.pending)))
        self.heartbeats = self.context.Array("d", self.n_workers)
        self.workers: List = [None] * self.n_workers
        #: parent-side send end of each slot's task pipe
        self.task_conns: List = [None] * self.n_workers
        #: parent-side receive end of each slot's result pipe
        self.result_conns: List = [None] * self.n_workers
        #: per-slot frame decoder for the result pipe (reset on spawn:
        #: a fresh worker must not inherit its predecessor's torn tail)
        self.decoders: List[Optional[ipc.FrameDecoder]] = (
            [None] * self.n_workers
        )
        #: slot -> (index, domain, lease_epoch, assigned_at) while a
        #: site is in flight
        self.assigned: Dict[int, Tuple[int, str, int, float]] = {}
        #: strike fallback when no checkpoint persists them
        self.local_strikes: Dict[str, int] = {}
        #: lease-epoch fallback when no checkpoint persists them
        self.local_leases: Dict[str, int] = {}
        self.worker_cache: Dict[int, Dict[str, float]] = {}
        #: indices already finished — dedupes the race where a struck
        #: worker's result was in the pipe when it was killed
        self.finished: Set[int] = set()
        #: index -> (measurement, trace-or-None, lease_epoch-or-None,
        #: wire-metrics-delta-or-None), flushed in order
        self.buffered: Dict[
            int,
            Tuple[SiteMeasurement, Optional[Dict[str, object]],
                  Optional[int], Optional[Dict[str, int]]],
        ] = {}
        self.next_flush = 0
        #: sites a typed worker fault handed back for re-dispatch
        self.requeue: deque = deque()
        #: per-slot corruption slugs awaiting the slot's next good
        #: trace, into which they are folded as unstable frame events
        self.frame_notes: Dict[int, List[str]] = {}
        #: workers killed by the watchdog (observability + tests)
        self.kills = 0
        #: frame-stream corruptions absorbed (garbage, torn writes...)
        self.frame_errors = 0
        #: results rejected for carrying a superseded lease epoch
        self.stale_results = 0
        #: typed KIND_FAULT reports received from workers
        self.worker_faults = 0
        #: leases revoked past ``lease_deadline`` (stragglers re-leased)
        self.lease_releases = 0
        #: injected or real spawn failures retried through
        self.spawn_retries = 0
        #: accepted measurements carrying the memory-pressure cause
        self.memory_recycles = 0

    # -- strikes ---------------------------------------------------------

    def _strike(self, domain: str) -> int:
        if self.checkpoint is not None:
            return self.checkpoint.add_strike(domain)
        count = self.local_strikes.get(domain, 0) + 1
        self.local_strikes[domain] = count
        return count

    def _strike_count(self, domain: str) -> int:
        if self.checkpoint is not None:
            return self.checkpoint.strike_count(domain)
        return self.local_strikes.get(domain, 0)

    # -- fenced leases ---------------------------------------------------

    def _issue_lease(self, domain: str) -> int:
        """The next lease epoch for a dispatch of ``domain``."""
        if self.checkpoint is not None:
            return self.checkpoint.issue_lease(self.condition, domain)
        epoch = self.local_leases.get(domain, 0) + 1
        self.local_leases[domain] = epoch
        return epoch

    def _current_lease(self, domain: str) -> int:
        if self.checkpoint is not None:
            return self.checkpoint.lease_epoch(self.condition, domain)
        return self.local_leases.get(domain, 0)

    # -- worker lifecycle ------------------------------------------------

    _SPAWN_ATTEMPTS = 5

    def _spawn(self, slot: int) -> None:
        """Start a worker into ``slot``, retrying spawn failures.

        ``fork``/``spawn`` can genuinely fail under memory pressure or
        pid exhaustion (EAGAIN/ENOMEM); one failed attempt must not
        abort a crawl the next attempt would carry.  A bounded retry
        also absorbs the proc-chaos arm's injected fork failures.
        Exhausting the attempts re-raises the last error.
        """
        plan = getattr(self.web, "proc_chaos", None)
        last_error: Optional[OSError] = None
        for _ in range(self._SPAWN_ATTEMPTS):
            try:
                if plan is not None:
                    plan.check_spawn()
                task_recv, task_send = self.context.Pipe(duplex=False)
                result_recv, result_send = self.context.Pipe(
                    duplex=False
                )
                process = self.context.Process(
                    target=_watchdog_worker_main,
                    args=(
                        slot, self.heartbeats, task_recv, result_send,
                        self.web, self.registry, self.config,
                        self.condition, self.pending,
                    ),
                    daemon=True,
                )
                self.heartbeats[slot] = time.monotonic()
                try:
                    process.start()
                except OSError:
                    for conn in (task_recv, task_send,
                                 result_recv, result_send):
                        conn.close()
                    raise
            except OSError as error:
                self.spawn_retries += 1
                runmetrics.inc("supervisor_spawn_retries_total")
                last_error = error
                continue
            # Close the child's ends in the parent right away: later
            # forks must not inherit them, or a sibling would hold this
            # slot's write end open and mask the EOF that signals
            # worker death.
            task_recv.close()
            result_send.close()
            self.task_conns[slot] = task_send
            self.result_conns[slot] = result_recv
            self.workers[slot] = process
            self.decoders[slot] = ipc.FrameDecoder(message_aligned=True)
            return
        assert last_error is not None
        raise last_error

    def _kill(self, slot: int) -> None:
        process = self.workers[slot]
        if process is not None:
            if process.is_alive():
                process.kill()  # SIGKILL: a hung worker can't be asked
            process.join()
        self.workers[slot] = None
        for conns in (self.task_conns, self.result_conns):
            if conns[slot] is not None:
                conns[slot].close()
                conns[slot] = None
        self.decoders[slot] = None
        self.frame_notes.pop(slot, None)

    # -- main loop -------------------------------------------------------

    def run(
        self,
        record: Callable[..., None],
        stats: "_CrawlStats",
    ) -> None:
        todo = deque(enumerate(self.pending))
        pump = self.metrics_pump
        if pump is not None:
            pump.hooks.append(self._metrics_gauges)
        try:
            for slot in range(self.n_workers):
                self._spawn(slot)
            while self.next_flush < len(self.pending):
                if (self.drain_guard is not None
                        and self.drain_guard.requested):
                    # Graceful drain: dispatch nothing more, collect
                    # what is in flight, flush the contiguous prefix
                    # to the checkpoint, and hand control back.
                    self._drain_inflight()
                    self._flush(record)
                    break
                self._dispatch(todo)
                self._drain(block=True)
                self._watchdog(todo)
                self._flush(record)
                if pump is not None:
                    pump.maybe()
        finally:
            self._shutdown()
            if pump is not None and self._metrics_gauges in pump.hooks:
                pump.hooks.remove(self._metrics_gauges)
        for cache in self.worker_cache.values():
            stats.add_cache(cache)
        stats.add_proc({
            "watchdog_kills": self.kills,
            "frame_errors": self.frame_errors,
            "stale_results": self.stale_results,
            "worker_faults": self.worker_faults,
            "lease_releases": self.lease_releases,
            "spawn_retries": self.spawn_retries,
            "memory_recycles": self.memory_recycles,
        })

    def _dispatch(self, todo) -> None:
        # Sites handed back by typed worker faults go to the front:
        # they were dispatched before everything still in ``todo``.
        while self.requeue:
            todo.appendleft(self.requeue.pop())
        for slot in range(self.n_workers):
            if not todo:
                return
            process = self.workers[slot]
            if process is None or not process.is_alive():
                continue
            if slot in self.assigned:
                continue
            index, domain = todo.popleft()
            if index in self.finished:
                continue
            if (self._strike_count(domain)
                    >= self.config.quarantine_threshold):
                # Struck out since it was (re)queued.
                self.finished.add(index)
                self.buffered[index] = self._quarantine(domain)
                continue
            epoch = self._issue_lease(domain)
            try:
                self.task_conns[slot].send((index, domain, epoch))
            except (BrokenPipeError, OSError):
                # Worker died between the liveness check and the send;
                # requeue and let the watchdog replace the worker.
                # (The issued epoch is skipped — epochs are monotonic,
                # not dense, so a gap fences nothing incorrectly.)
                todo.appendleft((index, domain))
                continue
            self.assigned[slot] = (
                index, domain, epoch, time.monotonic()
            )

    def _drain_inflight(self) -> None:
        """Let assigned sites finish (bounded), dropping the rest.

        Workers ignore the drain signal, so every in-flight visit keeps
        running against its own resource budgets; the wait here is
        bounded by ``hang_timeout`` (the point past which the watchdog
        would have struck the site anyway).  Sites still unfinished at
        the deadline — or held by a worker that died — are simply
        dropped: they were never checkpointed, so resume re-measures
        them bit-identically.  No strikes are charged; a drain is not
        the site's fault.
        """
        timeout = self.config.hang_timeout
        deadline = time.monotonic() + (
            timeout if timeout is not None else 30.0
        )
        while self.assigned and time.monotonic() < deadline:
            self._drain(block=True)
            for slot in list(self.assigned):
                process = self.workers[slot]
                if process is None or not process.is_alive():
                    self._drain()  # last chance for a piped result
                    self.assigned.pop(slot, None)
        self.assigned.clear()

    def _drain(self, block: bool = False) -> None:
        from multiprocessing.connection import wait as connection_wait

        conns = [c for c in self.result_conns if c is not None]
        if not conns:
            return
        timeout = self._POLL_SECONDS if block else 0
        for conn in connection_wait(conns, timeout=timeout):
            slot = self.result_conns.index(conn)
            decoder = self.decoders[slot]
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                # The worker died (possibly mid-send, tearing its own
                # pipe — never anyone else's).  Flush the decoder —
                # whole frames already buffered must not die with the
                # worker — then stop polling the channel; the watchdog
                # handles the corpse.
                conn.close()
                self.result_conns[slot] = None
                if decoder is not None:
                    frames = decoder.finish()
                    self._note_frame_errors(slot, decoder)
                    for frame in frames:
                        self._handle_frame(slot, frame)
                continue
            if decoder is None:
                continue
            runmetrics.observe("ipc_frame_bytes", float(len(data)))
            frames = decoder.feed(data)
            # Corruption notes first: noise preceding a good result on
            # the same pipe belongs to that result's trace.
            self._note_frame_errors(slot, decoder)
            for frame in frames:
                self._handle_frame(slot, frame)

    def _note_frame_errors(self, slot: int, decoder) -> None:
        for error in decoder.take_errors():
            self.frame_errors += 1
            runmetrics.inc("supervisor_frame_corruptions_total",
                           reason=error.reason)
            self.frame_notes.setdefault(slot, []).append(error.reason)

    def _handle_frame(self, slot: int, frame) -> None:
        try:
            obj = pickle.loads(frame.payload)
        except Exception:
            # CRC-valid but unpicklable: a sender bug rather than wire
            # damage, absorbed the same way — the stream stays usable.
            self.frame_errors += 1
            self.frame_notes.setdefault(slot, []).append("bad-payload")
            return
        if frame.kind == ipc.KIND_FAULT:
            self._handle_fault(slot, obj)
        elif frame.kind == ipc.KIND_RESULT:
            self._handle_result(slot, obj)
        elif frame.kind == ipc.KIND_METRICS:
            self._handle_metrics(obj)
        # Unknown kinds are ignored: a newer worker may speak frame
        # kinds this supervisor predates.

    def _handle_metrics(self, report) -> None:
        """Keep the latest registry snapshot shipped by one worker.

        Worker snapshots are cumulative, so only the most recent per
        pid matters, and it is folded into the durable view at
        snapshot-build time — merging every frame as it arrives would
        double-count.
        """
        pump = self.metrics_pump
        if (pump is None or not isinstance(report, dict)
                or not isinstance(report.get("metrics"), dict)):
            return
        pump.worker_metrics[report.get("pid", 0)] = report["metrics"]

    def _metrics_gauges(self) -> None:
        """Refresh supervisor-side gauges just before a snapshot."""
        now = time.monotonic()
        for slot in range(self.n_workers):
            age = max(0.0, now - self.heartbeats[slot])
            runmetrics.set_gauge("worker_heartbeat_age_seconds",
                                 round(age, 3), slot=str(slot))
        runmetrics.set_gauge("crawl_inflight_sites",
                             float(len(self.assigned)))

    def _handle_result(self, slot: int, item) -> None:
        _, index, domain, epoch, payload = item
        self.assigned.pop(slot, None)
        if epoch is not None and epoch != self._current_lease(domain):
            # Fencing: the lease moved on (revoked past its deadline,
            # or struck and re-issued) — this is a replaced worker's
            # late result.  Accepting it could double-count the site
            # or overwrite its successor's record.
            self.stale_results += 1
            runmetrics.inc("supervisor_stale_results_total")
            return
        if index in self.finished:
            return  # a requeued duplicate landed first
        self.finished.add(index)
        measurement, trace, wire, pid, cache = payload
        if trace is not None:
            self._annotate_frame_notes(slot, trace)
        else:
            self.frame_notes.pop(slot, None)
        if measurement.budget_cause == MEMORY_PRESSURE_CAUSE:
            # The worker measured what it could, shipped it, and is
            # about to recycle itself.  The measurement stands (it is
            # honest, if partial); the *site* earns a strike so a
            # repeat offender is eventually quarantined.
            self.memory_recycles += 1
            runmetrics.inc("supervisor_memory_recycles_total")
            self._strike(domain)
        self.buffered[index] = (measurement, trace, epoch, wire)
        self.worker_cache[pid] = _elementwise_max(
            self.worker_cache.get(pid, {}), cache
        )

    def _annotate_frame_notes(self, slot: int, trace) -> None:
        """Fold pending corruption slugs into a trace as frame events.

        The supervisor has no span of its own to attach events to, so
        corruption observed on a slot's pipe is recorded as unstable
        ``frame`` children of the next good site trace off that slot —
        profiling-visible, excluded from the structural digest (what
        the pipe suffered is not part of what the site did).
        """
        notes = self.frame_notes.pop(slot, None)
        if not notes or not isinstance(trace, dict):
            return
        children = trace.setdefault("children", [])
        for reason in notes:
            children.append({
                "name": "frame",
                "attrs": {"reason": reason},
                "real_ms": 0.0,
                "unstable": True,
            })

    def _handle_fault(self, slot: int, report) -> None:
        """A worker announced a typed fault and is recycling itself.

        The site is struck and handed back for re-dispatch under a
        fresh lease (or quarantined at the strike threshold); the
        worker's corpse is the watchdog's to replace.
        """
        self.worker_faults += 1
        runmetrics.inc("supervisor_worker_faults_total")
        assignment = self.assigned.pop(slot, None)
        if assignment is None:
            return
        index, domain, _epoch, _at = assignment
        if index in self.finished:
            return
        strikes = self._strike(domain)
        if strikes >= self.config.quarantine_threshold:
            self.finished.add(index)
            self.buffered[index] = self._quarantine(domain)
        else:
            self.requeue.append((index, domain))

    def _watchdog(self, todo) -> None:
        timeout = self.config.hang_timeout
        lease_deadline = self.config.lease_deadline
        now = time.monotonic()
        for slot in range(self.n_workers):
            process = self.workers[slot]
            alive = process is not None and process.is_alive()
            assignment = self.assigned.get(slot)
            if assignment is None:
                if not alive and (todo or self.requeue):
                    # Died idle (e.g. crashed in init, or recycled
                    # after a fault/pressure exit): replace it.
                    self._kill(slot)
                    self._spawn(slot)
                continue
            index, domain, _epoch, assigned_at = assignment
            last_beat = max(assigned_at, self.heartbeats[slot])
            hung = (
                alive and timeout is not None
                and now - last_beat > timeout
            )
            # A lease deadline bounds *total* time on a site: a worker
            # can keep a fresh heartbeat forever while grinding, but
            # past the deadline the site is a straggler — revoke the
            # lease and re-issue it elsewhere.  The revoked worker is
            # killed, not trusted to stop: if its result were already
            # in the pipe, the stale epoch fences it off anyway.
            overdue = (
                alive and lease_deadline is not None
                and now - assigned_at > lease_deadline
            )
            if alive and not hung and not overdue:
                continue
            # The worker died, hung or overstayed its lease on this
            # site.  Last chance for an in-flight result to disqualify
            # the strike:
            self._drain()
            if slot not in self.assigned:
                continue  # its result landed after all
            del self.assigned[slot]
            self._kill(slot)
            self.kills += 1
            runmetrics.inc("supervisor_watchdog_kills_total")
            if overdue and not hung:
                self.lease_releases += 1
                runmetrics.inc("supervisor_lease_revocations_total")
            strikes = self._strike(domain)
            if index not in self.finished:
                if strikes >= self.config.quarantine_threshold:
                    self.finished.add(index)
                    self.buffered[index] = self._quarantine(domain)
                else:
                    todo.append((index, domain))
            self._spawn(slot)

    def _quarantine(
        self, domain: str
    ) -> Tuple[SiteMeasurement, Optional[Dict[str, object]],
               Optional[int], Optional[Dict[str, int]]]:
        threshold = self.config.quarantine_threshold
        measurement = _quarantined_measurement(
            domain, self.condition, threshold
        )
        trace = (
            _quarantined_trace(domain, self.condition, threshold)
            if self.config.trace else None
        )
        # A fresh epoch fences off any late result from the strikes
        # that led here, and gives fsck the invariant it checks: the
        # surviving record carries the site's highest epoch.  No wire
        # delta: a synthesized measurement did no metered work.
        return measurement, trace, self._issue_lease(domain), None

    def _flush(self, record) -> None:
        while self.next_flush in self.buffered:
            measurement, trace, epoch, wire = self.buffered.pop(
                self.next_flush
            )
            record(measurement, trace, epoch, wire)
            self.next_flush += 1

    def _shutdown(self) -> None:
        for slot in range(self.n_workers):
            process = self.workers[slot]
            tasks = self.task_conns[slot]
            if (process is not None and process.is_alive()
                    and tasks is not None):
                try:
                    tasks.send(None)
                except (BrokenPipeError, OSError, ValueError):
                    pass
        deadline = time.monotonic() + 5.0
        for slot in range(self.n_workers):
            process = self.workers[slot]
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            self._kill(slot)


def _crawl_condition_parallel(
    web: SyntheticWeb,
    registry: FeatureRegistry,
    config: SurveyConfig,
    condition: str,
    pending: List[str],
    record: Callable[..., None],
    stats: "_CrawlStats",
    checkpoint=None,
    drain: Optional[_DrainGuard] = None,
    pump=None,
) -> None:
    supervisor = _CrawlSupervisor(
        web, registry, config, condition, pending, checkpoint,
        drain=drain, pump=pump,
    )
    supervisor.run(record, stats)


def _elementwise_max(
    a: Dict[str, float], b: Dict[str, float]
) -> Dict[str, float]:
    out = dict(a)
    for key, value in b.items():
        out[key] = max(out.get(key, 0.0), value)
    return out


class _CrawlStats:
    """Accumulates compile-cache deltas and process faults for a run."""

    def __init__(self) -> None:
        self.cache: Dict[str, float] = {}
        self.proc: Dict[str, int] = {}
        self._cache_start = shared_cache().counters()

    def add_cache(self, delta: Dict[str, float]) -> None:
        for key, value in delta.items():
            self.cache[key] = self.cache.get(key, 0.0) + value

    def add_proc(self, delta: Dict[str, int]) -> None:
        for key, value in delta.items():
            self.proc[key] = self.proc.get(key, 0) + value

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
        self._parent_mirrors()
        for hook in list(self.hooks):
            hook()
        snapshot = self.registry.snapshot()
        for worker in self.worker_metrics.values():
            snapshot = runmetrics.merge_snapshots(snapshot, worker)
        return snapshot

    def _parent_mirrors(self) -> None:
        """Refresh the parent process's own unstable mirrors."""
        proc = str(os.getpid())
        counters = shared_cache().counters()
        self.registry.counter_floor("compile_cache_hits_total",
                                    counters.get("hits", 0), proc=proc)
        self.registry.counter_floor("compile_cache_misses_total",
                                    counters.get("misses", 0),
                                    proc=proc)
        rss = _default_rss_probe()
        if rss:
            self.registry.set_gauge("worker_rss_mb", round(rss, 1),
                                    proc=proc)

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


def _crawl_condition(
    web: SyntheticWeb,
    registry: FeatureRegistry,
    config: SurveyConfig,
    condition: str,
    domains: List[str],
    progress: Optional[ProgressCallback],
    checkpoint=None,
    stats: Optional[_CrawlStats] = None,
    drain: Optional[_DrainGuard] = None,
    pump: Optional[_MetricsPump] = None,
) -> Dict[str, SiteMeasurement]:
    """Measure one condition, streaming each site to the checkpoint."""
    done = checkpoint.done(condition) if checkpoint is not None else {}
    pending = [d for d in domains if d not in done]
    by_domain: Dict[str, SiteMeasurement] = dict(done)
    if done and progress is not None:
        progress(condition, len(done), len(domains))
    completed = len(done)

    def record(
        measurement: SiteMeasurement,
        trace: Optional[Dict[str, object]] = None,
        lease_epoch: Optional[int] = None,
        site_metrics: Optional[Dict[str, int]] = None,
    ) -> None:
        nonlocal completed
        by_domain[measurement.domain] = measurement
        if checkpoint is not None:
            # Trace first: resume skips sites whose *measurement* is
            # on disk, so a crash between the two appends leaves an
            # orphan trace (re-recorded, last-wins, on resume) rather
            # than a measured site whose trace is forever missing.
            if trace is not None:
                checkpoint.append_trace(
                    condition, measurement.domain, trace
                )
            checkpoint.append(measurement, lease_epoch=lease_epoch,
                              metrics=site_metrics)
        if pump is not None:
            pump.maybe()
        completed += 1
        if progress is not None and completed % 50 == 0:
            progress(condition, completed, len(domains))

    # Sites already quarantined — in this run (an earlier condition) or
    # the run being resumed — are never dispatched again: they get the
    # same deterministic record a live quarantine would synthesize.
    if checkpoint is not None and pending:
        threshold = config.quarantine_threshold
        poisoned = {
            d for d in pending
            if checkpoint.strike_count(d) >= threshold
        }
        for domain in pending:
            if domain in poisoned:
                record(
                    _quarantined_measurement(
                        domain, condition, threshold
                    ),
                    _quarantined_trace(domain, condition, threshold)
                    if config.trace else None,
                    checkpoint.issue_lease(condition, domain),
                )
        pending = [d for d in pending if d not in poisoned]

    if config.workers > 1 and pending:
        _crawl_condition_parallel(
            web, registry, config, condition, pending, record,
            stats or _CrawlStats(), checkpoint, drain=drain,
            pump=pump,
        )
    else:
        crawler = _build_crawler(web, registry, config, condition)
        for domain in pending:
            if drain is not None and drain.requested:
                break  # drain: the in-flight site already finished
            epoch = (
                checkpoint.issue_lease(condition, domain)
                if checkpoint is not None else None
            )
            measurement, trace, wire = _measure_site(
                crawler, registry, config, condition, domain,
                lease_epoch=epoch,
            )
            record(measurement, trace, epoch, wire)
    # Canonical domain order: resumed, parallel and serial runs must
    # serialize identically, so insertion order never leaks in.
    if drain is not None and drain.requested:
        # Partial by design — run_survey raises SurveyInterrupted
        # before this dict could ever reach the analysis layer.
        return {d: by_domain[d] for d in domains if d in by_domain}
    return {d: by_domain[d] for d in domains}


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
            # page load.
            _prewarm_compile_cache(
                web, domains, lower=config.engine == "compiled"
            )
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
            measurements: Dict[str, Dict[str, SiteMeasurement]] = {}
            for condition in config.conditions:
                measurements[condition] = _crawl_condition(
                    web, registry, config, condition, domains,
                    progress, checkpoint, stats, drain=guard,
                    pump=pump,
                )
                if guard.requested:
                    break
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
            measurements=measurements,
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
