"""Site isolation: hierarchical per-visit resource budgets.

The paper could not measure 267 of the Alexa 10k because real sites
hang, crash and misbehave.  The only guard the engine itself offers is
MiniJS's per-*script* step budget; a hostile site can still stall a
crawl worker with runaway timers, unbounded DOM growth, deep recursion
or fetch storms — none of which any single script's step count sees.

This module is the budget layer the rest of the pipeline threads
through (``run_survey`` → ``Browser`` → interpreter/DOM/fetcher):

* :class:`ResourceBudget` — immutable limits for one site visit round:
  a wall-clock deadline spanning every phase (fetch/parse/execute/
  monkey), a MiniJS allocation budget (objects + string bytes), a
  recursion-depth cap below the engine's own, a DOM-node cap, a
  per-page fetch cap, and a whole-round step budget on top of the
  per-script one.
* :class:`BudgetMeter` — the mutable per-round counters.  Every
  exhaustion raises a typed :class:`BudgetExceeded` subclass carrying a
  structured ``cause`` slug plus the used/limit pair the failure report
  turns into per-cause headroom.
* :class:`VirtualClock` — an injectable deterministic clock: it
  advances only on *counted* events (interpreter steps, fetches, timer
  jumps), so deadline-limited runs are bit-identical across start
  methods and machines.  Production runs keep the default
  ``time.perf_counter``.

Deliberately **not** a :class:`~repro.minijs.errors.MiniJSError`:
page ``try``/``catch`` must never swallow a budget exhaustion, and the
browser's per-script error handling must not either — a blown budget
aborts the whole visit into a *partial* measurement (features counted
so far are kept), never a silently mis-measured one.

The module also hosts the crawl watchdog's heartbeat hook: worker
processes register a callback with :func:`set_heartbeat`, and the
fetcher/crawler call :func:`heartbeat` at phase boundaries so the
supervisor can tell a slow-but-alive worker from a hung one.

This module imports nothing from the rest of the package, so every
layer (including :mod:`repro.minijs`) can depend on it without cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

#: Structured cause slug for sites removed by the crawl supervisor
#: after repeatedly killing or hanging workers (no exception type: the
#: poison verdict is reached in the parent, not raised in a worker).
QUARANTINE_CAUSE = "quarantined"

#: Structured cause slug for visits cut short because the worker
#: process crossed its RSS ceiling (see :class:`MemoryGovernor`).
MEMORY_PRESSURE_CAUSE = "memory-pressure"

#: How often (in meter ticks) the deadline is re-checked mid-script.
#: A power of two minus one: the check is a single AND per tick.
_DEADLINE_CHECK_MASK = 2047


class BudgetExceeded(Exception):
    """A site visit exhausted one of its resource budgets.

    Subclasses pin a structured ``cause`` slug; ``used``/``limit``
    quantify the exhaustion (``overshoot`` is their ratio) so the
    failure report can show per-cause headroom.  Intentionally not a
    ``MiniJSError``: page scripts cannot catch it, and the browser's
    per-script error recovery lets it abort the visit.
    """

    cause = "budget"

    def __init__(self, detail: str, limit: float, used: float) -> None:
        super().__init__(detail)
        self.limit = limit
        self.used = used

    @property
    def overshoot(self) -> float:
        """How far past the limit the site got (1.0 = exactly at it)."""
        if self.limit <= 0:
            return 0.0
        return self.used / self.limit

    @property
    def failure_reason(self) -> str:
        """The structured cause string recorded on the measurement."""
        return "budget:%s: %s" % (self.cause, self.args[0])


class DeadlineExceeded(BudgetExceeded):
    """The visit's wall-clock deadline passed (spanning all phases)."""

    cause = "deadline"


class ScriptBudgetExceeded(BudgetExceeded):
    """The whole-round step budget ran out (across every script)."""

    cause = "steps"


class AllocationBudgetExceeded(BudgetExceeded):
    """The MiniJS allocation budget (objects + string bytes) ran out."""

    cause = "allocation"


class RecursionBudgetExceeded(BudgetExceeded):
    """Call depth passed the budget's cap (below the engine's own)."""

    cause = "recursion"


class DomBudgetExceeded(BudgetExceeded):
    """The page grew the DOM past the node cap."""

    cause = "dom-nodes"


class FetchBudgetExceeded(BudgetExceeded):
    """One page issued more requests than the per-page fetch cap."""

    cause = "fetches"


class MemoryPressure(BudgetExceeded):
    """The worker process crossed its RSS ceiling mid-visit.

    Raised at a *page boundary* by the crawler when the installed
    :class:`MemoryGovernor` has latched: the in-flight page finishes,
    the visit degrades into a partial measurement carrying this cause,
    and the worker recycles itself (``ru_maxrss`` is a high-water mark
    — only a fresh process can shed it).
    """

    cause = MEMORY_PRESSURE_CAUSE

    @property
    def failure_reason(self) -> str:
        # Not a "budget:" cause — the limit is on the host process,
        # not the visit, and the failure report groups it separately.
        return "%s: %s" % (MEMORY_PRESSURE_CAUSE, self.args[0])


class VirtualClock:
    """A deterministic clock driven by counted work, not the OS.

    Reads return accumulated virtual seconds; the meter advances it per
    interpreter step and per fetch, and the DOM realm credits timer
    jumps (a page napping via ``setTimeout(fn, 3600000)`` burns an hour
    of virtual deadline in one flush).  Two runs that execute the same
    work therefore read the same clock — the property the bit-identity
    acceptance test leans on.
    """

    def __init__(
        self,
        seconds_per_step: float = 0.0,
        seconds_per_fetch: float = 0.0,
    ) -> None:
        self.seconds_per_step = seconds_per_step
        self.seconds_per_fetch = seconds_per_fetch
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        if seconds > 0:
            self.now += seconds

    def __call__(self) -> float:
        return self.now

    def __reduce__(self):
        # Spawn-started workers rebuild the clock from its rates; the
        # accumulated reading is per-visit state that must start at 0.
        return (
            VirtualClock,
            (self.seconds_per_step, self.seconds_per_fetch),
        )


@dataclass(frozen=True)
class ResourceBudget:
    """Immutable per-site-visit resource limits (None = unlimited).

    The default instance enforces nothing, so the ordinary crawl pays
    no budget overhead; chaos and production runs opt in per limit.
    """

    #: wall-clock seconds per visit round, spanning every phase
    deadline_seconds: Optional[float] = None
    #: interpreter steps per visit round, across all scripts/handlers
    #: (the per-script ``step_limit`` still applies underneath)
    max_steps: Optional[int] = None
    #: MiniJS objects/arrays/functions allocated per visit round
    max_allocations: Optional[int] = None
    #: bytes of string built by concatenation per visit round
    max_string_bytes: Optional[int] = None
    #: call depth cap; must sit below the engine's own (catchable) one
    #: to fire first
    max_call_depth: Optional[int] = None
    #: DOM nodes attached per visit round (parsing + script growth)
    max_dom_nodes: Optional[int] = None
    #: requests issued per page (documents, scripts, images, XHR...)
    max_fetches_per_page: Optional[int] = None
    #: clock the deadline reads; ``time.perf_counter`` in production,
    #: a :class:`VirtualClock` for deterministic budget-limited runs
    clock: Callable[[], float] = field(default=time.perf_counter)

    @property
    def limited(self) -> bool:
        """Does this budget enforce anything at all?"""
        return any(
            getattr(self, name) is not None
            for name in self._limit_fields()
        )

    @staticmethod
    def _limit_fields():
        return (
            "deadline_seconds", "max_steps", "max_allocations",
            "max_string_bytes", "max_call_depth", "max_dom_nodes",
            "max_fetches_per_page",
        )

    def fingerprint(self) -> Dict[str, Any]:
        """The limits as a JSON-ready dict (checkpoint manifests).

        The clock is deliberately excluded: it changes *when* a
        deadline fires, never what a completed measurement contains,
        and injected clocks need not be serializable.
        """
        return {
            name: getattr(self, name) for name in self._limit_fields()
        }

    def meter(self) -> "BudgetMeter":
        """A fresh meter for one visit round."""
        return BudgetMeter(self)


class BudgetMeter:
    """Mutable per-visit-round counters enforcing a ResourceBudget.

    One meter spans one full visit round — every page, every phase —
    which is what makes the deadline and the allocation/step/DOM caps
    *site-level* guards rather than per-script ones.  The per-page
    fetch counter alone resets at :meth:`begin_page`.

    The first exhaustion is remembered in :attr:`exceeded` so callers
    that caught the raise far away can still report used/limit.
    """

    def __init__(self, budget: ResourceBudget) -> None:
        self.budget = budget
        self.total_steps = 0
        self.allocations = 0
        self.string_bytes = 0
        self.dom_nodes = 0
        self.page_fetches = 0
        self.pages_started = 0
        self.exceeded: Optional[BudgetExceeded] = None
        clock = budget.clock
        self._vclock = clock if isinstance(clock, VirtualClock) else None
        if self._vclock is not None:
            # Rewind: virtual time is per-visit-round state.  Starting
            # every round at 0.0 makes its float arithmetic identical
            # whatever ran before, so budget-limited measurements are
            # bit-identical serial vs parallel vs resumed (a shared
            # accumulating clock differs from a fresh worker's in the
            # last ulp of ``elapsed``).
            self._vclock.now = 0.0
        self._started = clock()

    # -- time ----------------------------------------------------------------

    def virtual_clock(self) -> Optional[VirtualClock]:
        """The meter's deterministic clock, or None on a real clock.

        Tracing stamps span timestamps from this clock only — virtual
        time restarts at 0.0 every visit round, so the stamps are
        bit-identical across start methods and resume boundaries.
        """
        return self._vclock

    def elapsed(self) -> float:
        return self.budget.clock() - self._started

    def check_deadline(self) -> None:
        deadline = self.budget.deadline_seconds
        if deadline is None:
            return
        elapsed = self.elapsed()
        if elapsed > deadline:
            self._blow(DeadlineExceeded(
                "visit exceeded its %.3gs deadline (%.3gs elapsed)"
                % (deadline, elapsed),
                limit=deadline, used=elapsed,
            ))

    def advance_clock_ms(self, milliseconds: float) -> None:
        """Credit a virtual-clock jump (timer fast-forwarding).

        Real clocks ignore this — the wall time genuinely passed or it
        didn't; only the injected deterministic clock needs telling
        that a page slept its way through the visit.
        """
        if self._vclock is not None and milliseconds > 0:
            self._vclock.advance(milliseconds / 1000.0)

    # -- interpreter ---------------------------------------------------------

    def tick(self) -> None:
        """One interpreter step (the hot path — keep it a few ops)."""
        self.total_steps += 1
        vclock = self._vclock
        if vclock is not None and vclock.seconds_per_step:
            vclock.advance(vclock.seconds_per_step)
        limit = self.budget.max_steps
        if limit is not None and self.total_steps > limit:
            self._blow(ScriptBudgetExceeded(
                "visit exceeded its %d-step budget across all scripts"
                % limit,
                limit=limit, used=self.total_steps,
            ))
        if (self.total_steps & _DEADLINE_CHECK_MASK) == 0:
            self.check_deadline()
            heartbeat()

    def charge_allocation(self, count: int = 1) -> None:
        self.allocations += count
        hook = _ALLOC_HOOK
        if hook is not None:
            hook(self.allocations)
        limit = self.budget.max_allocations
        if limit is not None and self.allocations > limit:
            self._blow(AllocationBudgetExceeded(
                "visit allocated more than %d MiniJS objects" % limit,
                limit=limit, used=self.allocations,
            ))

    def charge_string_bytes(self, nbytes: int) -> None:
        self.string_bytes += nbytes
        limit = self.budget.max_string_bytes
        if limit is not None and self.string_bytes > limit:
            self._blow(AllocationBudgetExceeded(
                "visit built more than %d bytes of string" % limit,
                limit=limit, used=self.string_bytes,
            ))

    def check_depth(self, depth: int) -> None:
        limit = self.budget.max_call_depth
        if limit is not None and depth > limit:
            self._blow(RecursionBudgetExceeded(
                "visit recursed past the %d-frame budget" % limit,
                limit=limit, used=depth,
            ))

    # -- DOM -----------------------------------------------------------------

    def charge_dom_node(self, count: int = 1) -> None:
        self.dom_nodes += count
        limit = self.budget.max_dom_nodes
        if limit is not None and self.dom_nodes > limit:
            self._blow(DomBudgetExceeded(
                "visit grew the DOM past %d nodes" % limit,
                limit=limit, used=self.dom_nodes,
            ))

    # -- network / pages -----------------------------------------------------

    def begin_page(self) -> None:
        """A new page starts: fresh fetch allowance, deadline check."""
        self.pages_started += 1
        self.page_fetches = 0
        heartbeat()
        self.check_deadline()

    def charge_fetch(self) -> None:
        self.page_fetches += 1
        vclock = self._vclock
        if vclock is not None and vclock.seconds_per_fetch:
            vclock.advance(vclock.seconds_per_fetch)
        limit = self.budget.max_fetches_per_page
        if limit is not None and self.page_fetches > limit:
            self._blow(FetchBudgetExceeded(
                "page issued more than %d requests" % limit,
                limit=limit, used=self.page_fetches,
            ))
        self.check_deadline()

    # ------------------------------------------------------------------------

    def _blow(self, error: BudgetExceeded) -> None:
        if self.exceeded is None:
            self.exceeded = error
        raise error


# -- watchdog heartbeats -----------------------------------------------------

#: Process-global heartbeat sink.  ``None`` (the default, and always in
#: serial crawls) makes :func:`heartbeat` a no-op; parallel crawl
#: workers register a callback that stamps their slot in the
#: supervisor's shared heartbeat array.
_HEARTBEAT: Optional[Callable[[], None]] = None


def set_heartbeat(fn: Optional[Callable[[], None]]) -> None:
    """Install (or clear) the process's watchdog heartbeat callback."""
    global _HEARTBEAT
    _HEARTBEAT = fn


def heartbeat() -> None:
    """Signal liveness to the crawl supervisor, if one is listening.

    Called from the fetcher (before touching the network — the one
    place a hostile web can genuinely block) and from the crawler at
    page boundaries, so a worker grinding through a slow-but-legal site
    keeps its heartbeat fresh while a hung one goes stale.

    The beat doubles as the memory governor's polling point: RSS is
    re-probed on the same cadence liveness is signalled, so pressure is
    noticed without a dedicated thread or timer.
    """
    fn = _HEARTBEAT
    if fn is not None:
        fn()
    governor = _MEMORY_GOVERNOR
    if governor is not None:
        governor.poll()


# -- memory-pressure governance -----------------------------------------------


def _default_rss_probe() -> float:
    """Current process high-water RSS in MB (0.0 if unknowable).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are a
    high-water mark, which is exactly what the governor wants — a
    worker that ever ballooned must recycle even if the allocator gave
    pages back.
    """
    try:
        import resource
    except ImportError:  # non-POSIX: govern nothing rather than crash
        return 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys
    if sys.platform == "darwin":
        return rss / (1024.0 * 1024.0)
    return rss / 1024.0


class MemoryGovernor:
    """Per-worker RSS watchdog, polled on the heartbeat.

    The governor never interrupts work itself: :meth:`poll` only
    latches :attr:`pressured` once the probe crosses ``max_rss_mb``.
    The crawler checks the latch at page boundaries and degrades the
    visit gracefully (finish the in-flight page, record a structured
    ``memory-pressure`` cause); the parallel worker then exits so the
    supervisor respawns a fresh process — the high-water mark cannot
    come back down inside this one.
    """

    def __init__(
        self,
        max_rss_mb: float,
        probe: Optional[Callable[[], float]] = None,
    ) -> None:
        self.max_rss_mb = max_rss_mb
        self._probe = probe if probe is not None else _default_rss_probe
        self.pressured = False
        self.rss_mb = 0.0

    def poll(self) -> bool:
        """Re-probe RSS; return (and latch) the pressured verdict."""
        if not self.pressured:
            self.rss_mb = self._probe()
            if self.rss_mb > self.max_rss_mb:
                self.pressured = True
        return self.pressured

    def pressure(self) -> "MemoryPressure":
        """The typed exception describing the latched pressure."""
        return MemoryPressure(
            "worker RSS high-water %.1f MB crossed the %.1f MB ceiling"
            % (self.rss_mb, self.max_rss_mb),
            limit=self.max_rss_mb, used=self.rss_mb,
        )


#: Process-global memory governor.  ``None`` (the default) keeps
#: :func:`heartbeat` free of any RSS probing; parallel workers install
#: one when the survey sets ``max_worker_rss_mb``.
_MEMORY_GOVERNOR: Optional[MemoryGovernor] = None


def set_memory_governor(governor: Optional[MemoryGovernor]) -> None:
    """Install (or clear) the process's memory governor."""
    global _MEMORY_GOVERNOR
    _MEMORY_GOVERNOR = governor


def current_memory_governor() -> Optional[MemoryGovernor]:
    return _MEMORY_GOVERNOR


#: Process-global allocation hook, called from
#: :meth:`BudgetMeter.charge_allocation` with the running allocation
#: count.  Exists for deterministic fault injection: a fault plan's
#: ``memerr`` raises a ``MemoryError`` at an exact allocation
#: boundary, the same boundary in every run.  ``None`` (the default)
#: costs one global load per allocation.
_ALLOC_HOOK: Optional[Callable[[int], None]] = None


def set_alloc_hook(fn: Optional[Callable[[int], None]]) -> None:
    """Install (or clear) the allocation-boundary fault hook."""
    global _ALLOC_HOOK
    _ALLOC_HOOK = fn
