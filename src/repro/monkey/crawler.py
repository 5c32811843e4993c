"""The per-site crawl schedule (section 4.3.1).

One *visit round* of a site:

1. load the home page, monkey-test it for "30 seconds";
2. from the intercepted navigations, keep same-site URLs and pick 3,
   preferring URLs whose directory structure (path minus the last
   segment) has not been seen this round;
3. visit each, monkey-test, pick 3 more from each — 1 + 3 + 9 = 13
   pages, 390 interaction-seconds per site per round;
4. record every feature invocation along the way.

Each site gets five rounds per browsing condition; the union captures
interaction-dependent functionality (validated in section 6 / Table 3).
"""

from __future__ import annotations

import random
from contextlib import closing
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro import obs
from repro.browser.browser import Browser
from repro.browser.session import VisitResult
from repro.core.sandbox import (
    BudgetExceeded,
    BudgetMeter,
    MemoryGovernor,
    ResourceBudget,
    current_memory_governor,
    heartbeat,
)
from repro.dom.node import install_dom_meter
from repro.monkey.gremlins import Gremlins, MonkeyConfig
from repro.net.resilience import merge_degraded
from repro.net.url import Url
from repro.seeding import derive_seed


@dataclass(frozen=True)
class CrawlConfig:
    """The paper's crawl-shape parameters."""

    #: links selected per visited page (breadth-first fan-out)
    links_per_page: int = 3
    #: crawl depth beyond the home page (2 -> 1 + 3 + 9 = 13 pages)
    depth: int = 2
    #: prefer URLs whose directory structure is unseen (section 4.3.1);
    #: False picks uniformly — the ablation baseline
    prefer_novel_paths: bool = True
    #: start each visit round from a fresh browser profile (cleared
    #: localStorage).  Authenticated crawling turns this off so a login
    #: performed before the round survives it.
    fresh_profile_per_round: bool = True
    monkey: MonkeyConfig = MonkeyConfig()

    @property
    def max_pages(self) -> int:
        total, layer = 1, 1
        for _ in range(self.depth):
            layer *= self.links_per_page
            total += layer
        return total


class SiteCrawler:
    """Runs visit rounds against one browser/extension configuration."""

    def __init__(
        self,
        browser: Browser,
        config: Optional[CrawlConfig] = None,
        condition: str = "default",
        budget: Optional[ResourceBudget] = None,
    ) -> None:
        self.browser = browser
        self.config = config or CrawlConfig()
        self.condition = condition
        #: site-isolation budgets; one fresh meter is drawn per visit
        #: round, so the deadline and counters span all 13 pages and
        #: every phase (fetch, parse, execute, monkey) of that round
        self.budget = budget
        #: metered interpreter work accumulated across this crawler's
        #: rounds (virtual-clock-counted, so deterministic); harvested
        #: at site boundaries into the runtime metrics registry
        self.steps_executed = 0
        self.allocations_counted = 0

    # ------------------------------------------------------------------

    def visit_site(
        self, domain: str, round_index: int, seed: int
    ) -> VisitResult:
        """One full visit round of one site."""
        tracer = obs.current_tracer()
        if tracer is None:
            return self._visit_round(domain, round_index, seed)
        with tracer.span("visit", round=round_index):
            result = self._visit_round(domain, round_index, seed)
            tracer.set_attrs(pages=result.pages_visited, ok=result.ok)
        return result

    def _visit_round(
        self, domain: str, round_index: int, seed: int
    ) -> VisitResult:
        result = VisitResult(
            domain=domain,
            round_index=round_index,
            condition=self.condition,
            ok=False,
        )
        rng = random.Random(
            derive_seed(seed, domain, round_index, self.condition)
        )
        if self.config.fresh_profile_per_round:
            self.browser.reset_storage()
        home = Url.parse("https://%s/" % domain)
        seen_signatures: Set[Tuple[str, ...]] = set()
        visited_paths: Set[str] = set()

        meter: Optional[BudgetMeter] = None
        if self.budget is not None and self.budget.limited:
            meter = self.budget.meter()
        # Span timestamps come from the meter's virtual clock (freshly
        # rewound to 0.0 above) so the trace's structure is as
        # deterministic as the measurement itself; without a virtual
        # clock the stamps stay None rather than leak wall time.
        tracer = obs.current_tracer()
        previous_clock = None
        if tracer is not None:
            previous_clock = tracer.virtual_clock
            tracer.virtual_clock = (
                meter.virtual_clock() if meter is not None else None
            )
        # The meter stays installed for the whole round — the monkey
        # phase runs page scripts too, and its fetch storms and DOM
        # growth must charge the same budgets as the load phase.
        fetcher = self.browser.fetcher
        # Circuit-breaker state is per visit round: a resumed or
        # parallel run's round then sees exactly the (empty) breaker
        # history a serial run's would.  The counter snapshots turn
        # the fetcher's cumulative telemetry into per-round deltas.
        fetcher.reset_round()
        retried_before = fetcher.requests_retried
        opens_before = fetcher.breaker_opens
        previous_fetch_meter = fetcher.budget_meter
        previous_dom_meter = install_dom_meter(meter)
        fetcher.budget_meter = meter
        try:
            frontier = [home]
            executed_any = False
            for depth in range(self.config.depth + 1):
                next_frontier: List[Url] = []
                for url in frontier:
                    # Memory pressure degrades at *page* boundaries:
                    # the in-flight page finished (its features are
                    # already merged); nothing further starts in this
                    # process, which the worker then recycles.
                    governor = current_memory_governor()
                    if governor is not None and governor.pressured:
                        self._record_memory_abort(result, governor)
                        break
                    with obs.span("page", url=str(url), depth=depth):
                        page = self._visit_one(url, rng, result, meter)
                    if result.partial:
                        break
                    if page is None:
                        continue
                    visited_paths.add(url.path)
                    seen_signatures.add(url.directory_signature)
                    executed_any = executed_any or page[1]
                    harvested = page[0]
                    chosen = self._select_links(
                        harvested, home, seen_signatures, visited_paths,
                        rng,
                    )
                    next_frontier.extend(chosen)
                if result.partial:
                    break
                frontier = next_frontier
                if not frontier:
                    break
        finally:
            if tracer is not None:
                tracer.virtual_clock = previous_clock
            fetcher.budget_meter = previous_fetch_meter
            install_dom_meter(previous_dom_meter)
            result.requests_retried = (
                fetcher.requests_retried - retried_before
            )
            result.breaker_opens = (
                fetcher.breaker_opens - opens_before
            )
            if meter is not None:
                self.steps_executed += meter.total_steps
                self.allocations_counted += meter.allocations

        if result.partial:
            # A blown budget ends the round where it stood: whatever
            # was recorded up to the abort is the round's contribution.
            return result
        if result.pages_visited == 0:
            result.failure_reason = result.failure_reason or "unreachable"
            return result
        if not executed_any and not result.feature_counts:
            # The home page loaded but no script ever ran (fatal syntax
            # errors): the paper counts such domains as unmeasurable.
            result.failure_reason = "no script executed"
            return result
        result.ok = True
        return result

    # ------------------------------------------------------------------

    def _visit_one(
        self,
        url: Url,
        rng: random.Random,
        result: VisitResult,
        meter: Optional[BudgetMeter] = None,
    ) -> Optional[Tuple[List[Url], bool]]:
        # Page boundaries are natural liveness points: a worker that
        # stops reaching them is hung, and the supervisor can tell.
        heartbeat()
        page = self.browser.visit_page(
            url, seed=rng.randrange(1 << 30), meter=meter
        )
        # The page's life ends with this block, its features merged:
        # closing it frees its realm rather than leave it to the cycle
        # collector.
        with closing(page):
            if page.degraded_total:
                # Losses fold in whatever happens next: a page that
                # degraded and then blew a budget still lost them.
                result.degraded_resources += page.degraded_total
                merge_degraded(result.degraded, page.degraded)
            if page.budget_error is not None:
                self._record_budget_abort(result, page, page.budget_error)
                return None
            if not page.ok:
                if result.failure_reason is None:
                    result.failure_reason = page.failure_reason
                    result.transient = page.transient
                return None
            result.pages_visited += 1
            result.scripts_blocked += page.scripts_blocked
            result.requests_blocked += page.requests_blocked
            gremlins = Gremlins(page, rng, self.config.monkey)
            try:
                with obs.phase("monkey"):
                    gremlins.run()
            except BudgetExceeded as error:
                result.interaction_events += gremlins.events_fired
                self._record_budget_abort(result, page, error)
                return None
            result.interaction_events += gremlins.events_fired
            page.recorder.merge_into_counts(result.feature_counts)
            return gremlins.harvested_urls, page.executed_any_script

    def _record_budget_abort(
        self, result: VisitResult, page, error: BudgetExceeded
    ) -> None:
        """Salvage a budget-aborted page into a partial round."""
        obs.event("budget-exhausted", cause=error.cause,
                  overshoot=error.overshoot)
        result.partial = True
        result.budget_cause = error.cause
        result.budget_overshoot = error.overshoot
        result.failure_reason = error.failure_reason
        # Features observed before the abort still count (the partial
        # measurement the issue calls for).
        page.recorder.merge_into_counts(result.feature_counts)

    def _record_memory_abort(
        self, result: VisitResult, governor: MemoryGovernor
    ) -> None:
        """End the round under RSS pressure, keeping what it measured."""
        error = governor.pressure()
        # Unstable: the RSS reading is real memory, different every run.
        obs.event("memory", stable=False,
                  rss_mb=governor.rss_mb, limit_mb=governor.max_rss_mb)
        result.partial = True
        result.budget_cause = error.cause
        result.budget_overshoot = error.overshoot
        result.failure_reason = error.failure_reason

    def _select_links(
        self,
        harvested: List[Url],
        home: Url,
        seen_signatures: Set[Tuple[str, ...]],
        visited_paths: Set[str],
        rng: random.Random,
    ) -> List[Url]:
        """Pick up to ``links_per_page`` same-site URLs, novelty first."""
        candidates: List[Url] = []
        seen_paths: Set[str] = set()
        for url in harvested:
            if not url.same_site(home):
                continue  # never leave the domain (or related domains)
            if url.path in visited_paths or url.path in seen_paths:
                continue
            seen_paths.add(url.path)
            candidates.append(url)
        if not candidates:
            return []
        if self.config.prefer_novel_paths:
            novel = [
                u for u in candidates
                if u.directory_signature not in seen_signatures
            ]
            familiar = [
                u for u in candidates
                if u.directory_signature in seen_signatures
            ]
            rng.shuffle(novel)
            rng.shuffle(familiar)
            ordered = novel + familiar
        else:
            ordered = list(candidates)
            rng.shuffle(ordered)
        chosen = ordered[: self.config.links_per_page]
        for url in chosen:
            visited_paths.add(url.path)
            seen_signatures.add(url.directory_signature)
        return chosen
