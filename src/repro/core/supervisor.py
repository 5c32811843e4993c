"""One survey's crawl tasks, walked in-process or by one worker fleet.

:func:`repro.core.survey.run_survey` turns a survey into one
condition-major list of ``(condition, domain)`` tasks — every site
under the first condition, then every site under the next — and hands
the whole list to :func:`_crawl_serial` (one worker) or to one
:class:`_CrawlSupervisor` (a watchdog-supervised fleet that lasts the
whole survey).  Either way results are recorded in task order, so each
condition's checkpoint shard is appended exactly as a serial crawl
appends it; a site's strikes count across every condition, with or
without a run directory; and a site struck out under one condition is
never dispatched again under any.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.browser.session import SiteMeasurement
from repro.core import ipc, runmetrics
from repro.core.sandbox import (
    MEMORY_PRESSURE_CAUSE,
    QUARANTINE_CAUSE,
    MemoryGovernor,
    set_alloc_hook,
    set_heartbeat,
    set_memory_governor,
)
from repro.core.survey import (
    SurveyConfig,
    _build_crawler,
    _measure_site,
    _mirror_process,
    resolve_start_method,
)
from repro.minijs.compile import CompileCache, shared_cache
from repro.webgen.sitegen import SyntheticWeb
from repro.webidl.registry import FeatureRegistry

#: One finished task as the survey's record callback takes it:
#: (measurement, trace-or-None, lease epoch, wire-metrics-delta-or-None).
Record = Tuple[SiteMeasurement, Optional[Dict[str, object]],
               Optional[int], Optional[Dict[str, int]]]


class _Ledger:
    """Strikes per domain and lease epochs per (condition, domain).

    The checkpoint keeps both when the survey has one, so a resumed run
    honors them; otherwise they live here.  Either way they last the
    whole survey: a site struck out under one condition is quarantined
    under every later one without being dispatched.
    """

    def __init__(self, config: SurveyConfig, checkpoint=None) -> None:
        self.threshold = config.quarantine_threshold
        self.trace = config.trace
        self.checkpoint = checkpoint
        #: strike fallback when no checkpoint persists them
        self.local_strikes: Dict[str, int] = {}
        #: lease-epoch fallback when no checkpoint persists them
        self.local_leases: Dict[Tuple[str, str], int] = {}

    def strike(self, domain: str) -> int:
        if self.checkpoint is not None:
            return self.checkpoint.add_strike(domain)
        count = self.local_strikes.get(domain, 0) + 1
        self.local_strikes[domain] = count
        return count

    def struck_out(self, domain: str) -> bool:
        if self.checkpoint is not None:
            strikes = self.checkpoint.strike_count(domain)
        else:
            strikes = self.local_strikes.get(domain, 0)
        return strikes >= self.threshold

    def issue_lease(self, condition: str, domain: str) -> int:
        """The next lease epoch for a dispatch of one task."""
        if self.checkpoint is not None:
            return self.checkpoint.issue_lease(condition, domain)
        epoch = self.local_leases.get((condition, domain), 0) + 1
        self.local_leases[(condition, domain)] = epoch
        return epoch

    def lease(self, condition: str, domain: str) -> int:
        if self.checkpoint is not None:
            return self.checkpoint.lease_epoch(condition, domain)
        return self.local_leases.get((condition, domain), 0)

    def quarantine(self, condition: str, domain: str) -> Record:
        """The record a struck-out site gets instead of a crawl.

        Measurement and trace depend only on the strike threshold —
        never on timing — so a killed-and-resumed run synthesizes
        byte-identical records.
        """
        threshold = self.threshold
        measurement = SiteMeasurement(domain=domain, condition=condition)
        measurement.failure_reason = (
            "%s: site killed or hung %d crawl workers"
            % (QUARANTINE_CAUSE, threshold)
        )
        measurement.transient_failure = False
        measurement.budget_cause = QUARANTINE_CAUSE
        measurement.attempts = threshold
        trace = None
        if self.trace:
            trace = {
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
        # A fresh epoch fences off any late result from the strikes
        # that led here, and gives fsck the invariant it checks: the
        # surviving record carries the site's highest epoch.  No wire
        # delta: a synthesized measurement did no metered work.
        return measurement, trace, self.issue_lease(condition, domain), None


class _Crawlers(dict):
    """condition -> its site crawler, built the first time it is used."""

    def __init__(
        self, web: SyntheticWeb, registry: FeatureRegistry,
        config: SurveyConfig,
    ) -> None:
        super().__init__()
        self.setup = (web, registry, config)

    def __missing__(self, condition: str):
        crawler = self[condition] = _build_crawler(*self.setup, condition)
        return crawler


def _crawl_serial(
    web: SyntheticWeb,
    registry: FeatureRegistry,
    config: SurveyConfig,
    tasks: Sequence[Tuple[str, str]],
    record: Callable[..., None],
    checkpoint=None,
    drain=None,
) -> None:
    """Walk the task list in-process, with the supervisor's strike
    check: a struck-out site is recorded as quarantined, not crawled."""
    ledger = _Ledger(config, checkpoint)
    crawlers = _Crawlers(web, registry, config)
    for condition, domain in tasks:
        if drain is not None and drain.requested:
            break  # drain: the in-flight site already finished
        if ledger.struck_out(domain):
            record(*ledger.quarantine(condition, domain))
            continue
        epoch = ledger.issue_lease(condition, domain)
        measurement, trace, wire = _measure_site(
            crawlers[condition], registry, config, condition, domain,
            lease_epoch=epoch,
        )
        record(measurement, trace, epoch, wire)


def _send_frame(conn, obj: object, kind: int = ipc.KIND_RESULT) -> None:
    """Pickle and frame one message onto a result pipe."""
    conn.send_bytes(ipc.encode_frame(pickle.dumps(obj), kind=kind))


def _worker_metrics_snapshot(governor=None):
    """This worker's metrics snapshot for the supervisor, or None.

    Freshens the process-local mirrors first, with the governor's last
    RSS probe when one is polling.
    """
    registry = runmetrics.current_registry()
    if registry is None:
        return None
    rss = governor.rss_mb if governor is not None else 0.0
    _mirror_process(registry, rss)
    return registry.snapshot()


def _watchdog_worker_main(
    slot: int,
    heartbeats,
    task_conn,
    result_conn,
    web: SyntheticWeb,
    registry: FeatureRegistry,
    config: SurveyConfig,
    domains: Sequence[str],
) -> None:
    """A supervised crawl worker: register heartbeat, set up, measure.

    Tasks arrive as ``(index, condition, domain, lease_epoch)`` over a
    dedicated pipe; ``None`` means shut down.  The worker builds a
    condition's crawler the first time one of its tasks arrives and
    keeps it.  Results go back over the slot's own result pipe as
    checksummed :mod:`repro.core.ipc` frames: a ``KIND_RESULT`` frame
    carrying the pickled ``(slot, index, domain, lease_epoch, payload,
    exiting)`` (``payload`` is ``(measurement, trace, wire, pid,
    cache_delta)``, the delta being this worker's cumulative
    compile-cache counters; ``exiting`` is true when the worker leaves
    after this result), or a ``KIND_FAULT`` frame carrying a typed
    fault report when the worker must recycle itself (currently:
    ``MemoryError`` escaping a measurement).  The framing means a
    worker dying mid-write tears at a frame boundary the supervisor's
    decoder detects and resynchronizes past — raw pickles on the pipe
    could poison the parent.

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
    # Deterministic process-fault injection (``repro chaos --arms
    # proc``): the :class:`repro.core.faults.FaultPlan` rides on the
    # wrapped web source and arms per-(domain, epoch) faults inside
    # this process.
    plan = getattr(web, "fault_plan", None)
    if plan is not None:
        set_alloc_hook(plan.on_allocation)
    governor: Optional[MemoryGovernor] = None
    if config.max_worker_rss_mb is not None:
        governor = MemoryGovernor(config.max_worker_rss_mb)
        set_memory_governor(governor)
    # Inherited (fork) compile-cache counters are the parent's: each
    # result reports only this worker's delta from here.  The prewarm
    # is a hash lookup per body under fork (the parent's cache came
    # along) and the real work under spawn.
    cache_baseline = shared_cache().counters()
    shared_cache().prewarm(
        web.script_bodies(domains), lower=config.engine == "compiled"
    )
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
    crawlers = _Crawlers(web, registry, config)
    # Spawned workers built their set-up heap just now; forked ones
    # inherit the parent's.  The worker never unfreezes: the heap
    # lives until it exits.
    gc.freeze()
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
        index, condition, domain, lease_epoch = task
        beat()
        if plan is not None:
            plan.begin_task(domain, lease_epoch)
        try:
            measurement, trace, wire = _measure_site(
                crawlers[condition], registry, config, condition, domain,
                lease_epoch=lease_epoch,
            )
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
        payload = (
            measurement, trace, wire, os.getpid(),
            CompileCache.counter_delta(
                shared_cache().counters(), cache_baseline
            ),
        )
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
        # A latched governor means this process leaves: ``ru_maxrss``
        # is a high-water mark it can never shed.  The decision rides
        # on the result, so the supervisor dispatches nothing more to
        # this slot; the governor may have latched during the site's
        # last page, leaving the measurement itself without a cause.
        exiting = governor is not None and governor.pressured
        try:
            _send_frame(
                result_conn,
                (slot, index, domain, lease_epoch, payload, exiting),
            )
        except (BrokenPipeError, OSError):
            break  # parent closed our pipe: we are being replaced
        beat()
        if exiting:
            break


class _CrawlSupervisor:
    """A watchdog-supervised worker fleet for one survey's task list.

    Replaces the plain multiprocessing pool: each worker is an owned
    ``Process`` with its *own* task and result pipes, so the parent
    always knows exactly which task every worker holds — there is no
    shared queue whose in-flight items (or write-lock semaphore) a
    dead worker could strand.  The fleet lasts the whole survey: tasks
    of every condition go to the same workers, and each worker keeps
    one crawler per condition.  Workers stamp a shared heartbeat array
    from the fetcher and page-boundary hooks; one whose heartbeat goes
    stale past ``hang_timeout`` while holding a site (or that dies
    outright, e.g. a crasher page taking the process down) is
    SIGKILLed, the site gets a strike and goes back to the front of
    the queue, and a fresh worker takes the slot.  A site reaching
    ``quarantine_threshold`` strikes is quarantined when it is next
    taken: it gets a deterministic failure record and is never
    dispatched again, under this condition or any later one.

    Results are buffered and recorded strictly in task order, so
    checkpoint shards are appended exactly as a serial crawl would
    append them.
    """

    _POLL_SECONDS = 0.05

    def __init__(
        self,
        web: SyntheticWeb,
        registry: FeatureRegistry,
        config: SurveyConfig,
        tasks: Sequence[Tuple[str, str]],
        checkpoint=None,
        drain=None,
        pump=None,
    ) -> None:
        import multiprocessing

        self.web = web
        self.registry = registry
        self.config = config
        #: index -> (condition, domain), condition-major
        self.tasks: List[Tuple[str, str]] = list(tasks)
        #: the distinct domains, for each worker's compile-cache prewarm
        self.domains = list(dict.fromkeys(d for _, d in self.tasks))
        self.ledger = _Ledger(config, checkpoint)
        self.drain_guard = drain
        self.metrics_pump = pump
        self.context = multiprocessing.get_context(
            resolve_start_method(config.start_method)
        )
        self.n_workers = max(1, min(config.workers, len(self.tasks)))
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
        #: task indices not yet dispatched, next first; a struck or
        #: faulted task goes back to the front
        self.todo: deque = deque(range(len(self.tasks)))
        #: slot -> (index, domain, lease_epoch, assigned_at) while a
        #: site is in flight
        self.assigned: Dict[int, Tuple[int, str, int, float]] = {}
        self.worker_cache: Dict[int, Dict[str, float]] = {}
        #: indices already finished — dedupes the race where a struck
        #: worker's result was in the pipe when it was killed
        self.finished: Set[int] = set()
        #: index -> record arguments, flushed in order
        self.buffered: Dict[int, Record] = {}
        self.next_flush = 0
        #: slots whose worker announced its own exit (a typed fault, or
        #: a result frame declaring it): ``is_alive()`` stays true until
        #: the process is gone, but no site may be dispatched to it
        self.exiting: Set[int] = set()
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
        #: workers that declared their exit for memory pressure
        self.memory_recycles = 0

    # -- worker lifecycle ------------------------------------------------

    _SPAWN_ATTEMPTS = 5

    def _spawn(self, slot: int) -> None:
        """Start a worker into ``slot``, retrying spawn failures.

        ``fork``/``spawn`` can genuinely fail under memory pressure or
        pid exhaustion (EAGAIN/ENOMEM); one failed attempt must not
        abort a crawl the next attempt would carry.  A bounded retry
        also absorbs a fault plan's injected fork failures.
        Exhausting the attempts re-raises the last error.
        """
        plan = getattr(self.web, "fault_plan", None)
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
                        self.domains,
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
        self.exiting.discard(slot)

    # -- main loop -------------------------------------------------------

    def run(self, record: Callable[..., None], stats) -> None:
        pump = self.metrics_pump
        if pump is not None:
            pump.hooks.append(self._metrics_gauges)
        try:
            for slot in range(self.n_workers):
                self._spawn(slot)
            while self.next_flush < len(self.tasks):
                if (self.drain_guard is not None
                        and self.drain_guard.requested):
                    # Graceful drain: dispatch nothing more, collect
                    # what is in flight, flush the contiguous prefix
                    # to the checkpoint, and hand control back.
                    self._drain_inflight()
                    self._flush(record)
                    break
                self._dispatch()
                self._drain(block=True)
                self._watchdog()
                self._flush(record)
                if pump is not None:
                    pump.maybe()
        finally:
            self._shutdown()
            if pump is not None and self._metrics_gauges in pump.hooks:
                pump.hooks.remove(self._metrics_gauges)
        for cache in self.worker_cache.values():
            stats.add_cache(cache)
        stats.proc.update({
            "watchdog_kills": self.kills,
            "frame_errors": self.frame_errors,
            "stale_results": self.stale_results,
            "worker_faults": self.worker_faults,
            "lease_releases": self.lease_releases,
            "spawn_retries": self.spawn_retries,
            "memory_recycles": self.memory_recycles,
        })

    def _take(self) -> Optional[int]:
        """The next task to dispatch, or None when none can go yet.

        The serial loop's strike check: a site struck out since it was
        queued, under this condition or an earlier one, is recorded as
        quarantined here instead of reaching a worker.  A site runs in
        one worker at a time: its strikes count for every condition, so
        a later condition's task waits while an earlier one is in
        flight rather than risk a second kill for the same strike.
        """
        busy = {assignment[1] for assignment in self.assigned.values()}
        position = 0
        while position < len(self.todo):
            index = self.todo[position]
            condition, domain = self.tasks[index]
            if domain in busy:
                position += 1
                continue
            del self.todo[position]
            if index in self.finished:
                continue
            if self.ledger.struck_out(domain):
                self.finished.add(index)
                self.buffered[index] = self.ledger.quarantine(
                    condition, domain
                )
                continue
            return index
        return None

    def _dispatch(self) -> None:
        for slot in range(self.n_workers):
            process = self.workers[slot]
            if process is None or not process.is_alive():
                continue
            if slot in self.assigned or slot in self.exiting:
                continue
            index = self._take()
            if index is None:
                return
            condition, domain = self.tasks[index]
            epoch = self.ledger.issue_lease(condition, domain)
            try:
                self.task_conns[slot].send((index, condition, domain, epoch))
            except (BrokenPipeError, OSError):
                # Worker died between the liveness check and the send;
                # requeue and let the watchdog replace the worker.
                # (The issued epoch is skipped — epochs are monotonic,
                # not dense, so a gap fences nothing incorrectly.)
                self.todo.appendleft(index)
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
                    self._drain_slot(slot)  # last chance for a result
                    self.assigned.pop(slot, None)
        self.assigned.clear()

    def _drain(self, block: bool = False) -> None:
        from multiprocessing.connection import wait as connection_wait

        conns = [c for c in self.result_conns if c is not None]
        if not conns:
            return
        timeout = self._POLL_SECONDS if block else 0
        for conn in connection_wait(conns, timeout=timeout):
            self._read(self.result_conns.index(conn))

    def _drain_slot(self, slot: int) -> None:
        """Read everything already in one slot's result pipe.

        A worker sends its metrics frame, and any injected pipe noise,
        ahead of its result, so a single read can leave a dead worker's
        result unread and strike a site that was in fact measured.
        """
        conn = self.result_conns[slot]
        while conn is not None and conn.poll():
            self._read(slot)
            conn = self.result_conns[slot]

    def _read(self, slot: int) -> None:
        """Receive one message from ``slot``'s result pipe."""
        conn = self.result_conns[slot]
        decoder = self.decoders[slot]
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            # The worker died (possibly mid-send, tearing its own
            # pipe — never anyone else's).  Flush the decoder — whole
            # frames already buffered must not die with the worker —
            # then stop polling the channel; the watchdog handles the
            # corpse.
            conn.close()
            self.result_conns[slot] = None
            if decoder is not None:
                frames = decoder.finish()
                self._note_frame_errors(slot, decoder)
                for frame in frames:
                    self._handle_frame(slot, frame)
            return
        if decoder is None:
            return
        runmetrics.observe("ipc_frame_bytes", float(len(data)))
        frames = decoder.feed(data)
        # Corruption notes first: noise preceding a good result on the
        # same pipe belongs to that result's trace.
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
        _, index, domain, epoch, payload, exiting = item
        self.assigned.pop(slot, None)
        measurement, trace, wire, pid, cache = payload
        if exiting:
            # The worker shipped this and is recycling itself: its
            # governor latched, whether or not the measurement shows it.
            self.exiting.add(slot)
            self.memory_recycles += 1
            runmetrics.inc("supervisor_memory_recycles_total")
        condition = self.tasks[index][0]
        if epoch is not None and epoch != self.ledger.lease(condition, domain):
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
        if trace is not None:
            self._annotate_frame_notes(slot, trace)
        else:
            self.frame_notes.pop(slot, None)
        if measurement.budget_cause == MEMORY_PRESSURE_CAUSE:
            # The worker measured what it could and shipped it.  The
            # measurement stands (it is honest, if partial); the *site*
            # earns a strike so a repeat offender is eventually
            # quarantined.
            self.ledger.strike(domain)
        self.buffered[index] = (measurement, trace, epoch, wire)
        # Cumulative per worker: keep the elementwise maximum.
        totals = self.worker_cache.setdefault(pid, {})
        for key, value in cache.items():
            totals[key] = max(totals.get(key, 0.0), value)

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

        The site is struck and goes back to the front of the queue, to
        be re-leased (or quarantined at the strike threshold) when it
        is next taken; the worker's corpse is the watchdog's to
        replace.
        """
        self.worker_faults += 1
        runmetrics.inc("supervisor_worker_faults_total")
        self.exiting.add(slot)
        assignment = self.assigned.pop(slot, None)
        if assignment is None:
            return
        index, domain, _epoch, _at = assignment
        if index in self.finished:
            return
        self.ledger.strike(domain)
        self.todo.appendleft(index)

    def _watchdog(self) -> None:
        timeout = self.config.hang_timeout
        lease_deadline = self.config.lease_deadline
        now = time.monotonic()
        for slot in range(self.n_workers):
            process = self.workers[slot]
            alive = process is not None and process.is_alive()
            assignment = self.assigned.get(slot)
            if assignment is None:
                if (alive and slot in self.exiting and timeout is not None
                        and now - self.heartbeats[slot] > timeout):
                    # Announced its exit but never went: reap it.
                    self._kill(slot)
                    alive = False
                if not alive and self.todo:
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
            self._drain_slot(slot)
            if slot not in self.assigned:
                continue  # its result landed after all
            del self.assigned[slot]
            self._kill(slot)
            self.kills += 1
            runmetrics.inc("supervisor_watchdog_kills_total")
            if overdue and not hung:
                self.lease_releases += 1
                runmetrics.inc("supervisor_lease_revocations_total")
            self.ledger.strike(domain)
            if index not in self.finished:
                # Front of the queue: every task behind it was
                # dispatched later, and the flush waits on this one.
                self.todo.appendleft(index)
            self._spawn(slot)

    def _flush(self, record) -> None:
        while self.next_flush in self.buffered:
            record(*self.buffered.pop(self.next_flush))
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
