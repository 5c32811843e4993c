"""The page-load pipeline.

``Browser.visit_page`` reproduces one iteration of the paper's Figure 2
loop:

1. request the document through the injecting proxy (instrumentation
   lands at the start of ``<head>``);
2. parse the HTML into a DOM, build a fresh MiniJS realm over it;
3. install the measuring extension's hooks;
4. execute scripts in document order — the injected instrumentation
   first, then the page's inline and external scripts (external fetches
   run through the blocking extensions' request gates, so an ad
   blocker's veto silently removes that script's features);
5. load subresources (images), flush the timer queue;
6. hand the live page to the caller for monkey testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.blocking.extension import BlockingExtension
from repro.browser.extension import FeatureRecorder, MeasuringExtension
from repro.core.sandbox import BudgetExceeded, BudgetMeter
from repro.dom.bindings import DomRealm
from repro.dom.html import HtmlParseError, parse_html, parse_html_lenient
from repro.dom.node import DomNode, install_dom_meter
from repro.minijs.compile import compile_source, shared_cache
from repro.minijs.errors import (
    JSLexError,
    JSParseError,
    MiniJSError,
    StepLimitExceeded,
)
from repro.net.fetcher import Fetcher, NetworkError
from repro.net.proxy import InjectingProxy
from repro.net.resilience import DegradedResource, merge_degraded
from repro.net.resources import Request, ResourceKind
from repro.net.url import Url, UrlError
from repro.webidl.registry import FeatureRegistry


@dataclass
class BrowserConfig:
    """Browser behavior knobs."""

    #: instrumentation mode: "accelerated" or "pure-js"
    instrumentation_mode: str = "accelerated"
    #: maximum timer tasks flushed after load (a 30 s dwell, roughly)
    timer_task_budget: int = 24
    #: per-script step budget
    step_limit: int = 200_000
    #: whether to fetch images (ad banners etc.)
    load_images: bool = True
    #: instrument property writes on singletons (section 4.2.2); False
    #: is the methods-only ablation
    instrument_property_writes: bool = True
    #: parse documents in browser-grade recovering mode (never fail a
    #: page on malformed HTML; record what was salvaged as a degraded
    #: cause instead).  The crawl default — real browsers render
    #: whatever bytes arrived.  False restores the strict parser, where
    #: hopeless markup fails the visit ("unparseable html: ...").
    recover_html: bool = True
    #: MiniJS execution engine: "compiled" (slot-resolved closure
    #: compilation + inline caches, the crawl default) or "tree" (the
    #: reference tree-walking oracle).  Observable behavior is
    #: bit-identical; only throughput differs.
    engine: str = "compiled"


@dataclass
class PageVisit:
    """The outcome of loading (and later interacting with) one page."""

    url: Url
    ok: bool
    failure_reason: Optional[str] = None
    #: the failure (if any) was transient — worth retrying the visit
    transient: bool = False
    recorder: FeatureRecorder = field(default_factory=FeatureRecorder)
    realm: Optional[DomRealm] = None
    root: Optional[DomNode] = None
    scripts_executed: int = 0
    #: page-authored scripts executed (excludes the injected
    #: instrumentation, which always runs)
    page_scripts_executed: int = 0
    scripts_blocked: int = 0
    script_errors: List[str] = field(default_factory=list)
    requests_blocked: int = 0
    hidden_selectors: List[str] = field(default_factory=list)
    #: set when a site-isolation budget blew mid-load; the recorder
    #: keeps everything observed up to that point (partial measurement)
    budget_error: Optional[BudgetExceeded] = None
    #: what this page lost without the visit failing: subresources
    #: that exhausted their retries, HTML salvaged by the recovering
    #: parser.  Deduplicated and capped; ``degraded_total`` is the
    #: exact occurrence count.
    degraded: List[DegradedResource] = field(default_factory=list)
    degraded_total: int = 0

    def record_degraded(
        self, slug: str, url: str, attempts: int = 1
    ) -> None:
        """Record one lost-but-survivable resource on this page."""
        self.degraded_total += merge_degraded(
            self.degraded, [DegradedResource(slug, url, attempts)]
        )

    @property
    def executed_any_script(self) -> bool:
        """Did any of the page's own scripts run?

        A domain where none ever does (fatal syntax errors in its only
        bundle) is unmeasurable, per the paper's 267 excluded domains.
        """
        return self.page_scripts_executed > 0

    def close(self) -> None:
        """End the page's life: tear down its realm, if it has one.

        :meth:`Browser.visit_page` returns a live page; whoever is done
        with it closes it (``contextlib.closing``), so refcounting
        frees the realm instead of the cycle collector.
        """
        if self.realm is not None:
            self.realm.close()


class Browser:
    """An instrumented browser bound to a fetcher and an extension set."""

    def __init__(
        self,
        registry: FeatureRegistry,
        fetcher: Fetcher,
        blocking_extensions: Optional[List[BlockingExtension]] = None,
        config: Optional[BrowserConfig] = None,
    ) -> None:
        self.registry = registry
        self.config = config or BrowserConfig()
        self.measuring = MeasuringExtension(
            registry,
            mode=self.config.instrumentation_mode,
            include_property_writes=self.config.instrument_property_writes,
        )
        self.fetcher = fetcher
        self.blocking_extensions = list(blocking_extensions or [])
        fetcher.clear_observers()
        for extension in self.blocking_extensions:
            fetcher.add_observer(extension.gate)
        self.proxy = InjectingProxy(
            fetcher, injected_script=self.measuring.injected_script()
        )
        self.pages_visited = 0
        #: timer tasks still flushable on the *current* page.  Reset at
        #: the top of every visit_page: each page gets the full dwell
        #: budget, so a timer-heavy page cannot starve the pages after
        #: it of their setTimeout work.
        self._timer_tasks_remaining = self.config.timer_task_budget
        #: per-registrable-domain localStorage jars (persist across the
        #: pages of a visit; the crawler clears them between rounds the
        #: way each of the paper's ten visits starts a fresh profile)
        self._storage_jars: Dict[str, Dict[str, str]] = {}

    def storage_for(self, url: Url) -> Dict[str, str]:
        """The localStorage jar for a URL's origin."""
        return self._storage_jars.setdefault(url.registrable_domain, {})

    def reset_storage(self, domain: Optional[str] = None) -> None:
        """Clear one origin's storage, or all of it (fresh profile)."""
        if domain is None:
            self._storage_jars.clear()
        else:
            self._storage_jars.pop(domain, None)

    # ------------------------------------------------------------------

    def visit_page(
        self,
        url: Url,
        seed: int = 0,
        meter: Optional[BudgetMeter] = None,
    ) -> PageVisit:
        """Load one page; returns a live PageVisit for interaction.

        ``meter`` (a :class:`repro.core.sandbox.BudgetMeter`) enforces
        the enclosing site visit's resource budgets across the load.  A
        blown budget aborts the load into a *partial* visit:
        ``budget_error`` is set and everything the recorder observed up
        to that point is kept.
        """
        self.pages_visited += 1
        # A fresh page gets the full timer dwell, whatever the previous
        # page consumed.
        self._timer_tasks_remaining = self.config.timer_task_budget
        visit = PageVisit(url=url, ok=False)
        # Route this page's requests and DOM growth through the meter.
        # Previous values are restored on exit so the crawler (which
        # installs the same meter around the whole visit round, monkey
        # phase included) and meterless standalone use both stay
        # correct.
        previous_fetch_meter = self.fetcher.budget_meter
        previous_dom_meter = install_dom_meter(meter)
        self.fetcher.budget_meter = meter
        # Compile-cache traffic per page goes on the span as profiling
        # metadata only: hit/miss counts depend on worker warm-up, so
        # they must stay out of the structural digest.
        tracer = obs.current_tracer()
        if tracer is not None:
            cache = shared_cache()
            hits_before, misses_before = cache.hits, cache.misses
        try:
            if meter is not None:
                meter.begin_page()
            return self._load(url, seed, visit, meter)
        except BudgetExceeded as error:
            visit.budget_error = error
            visit.failure_reason = error.failure_reason
            return visit
        finally:
            self.fetcher.budget_meter = previous_fetch_meter
            install_dom_meter(previous_dom_meter)
            if tracer is not None:
                tracer.annotate(
                    cache_hits=cache.hits - hits_before,
                    cache_misses=cache.misses - misses_before,
                )

    def _load(
        self,
        url: Url,
        seed: int,
        visit: PageVisit,
        meter: Optional[BudgetMeter],
    ) -> PageVisit:
        request = Request(url=url, kind=ResourceKind.DOCUMENT,
                          first_party=url)
        try:
            response = self.proxy.fetch(request)
        except NetworkError as error:
            visit.failure_reason = error.reason
            visit.transient = error.transient
            return visit
        if not response.is_html:
            visit.failure_reason = "not html"
            return visit
        if self.config.recover_html:
            # Browser-grade parsing: never fail the page on malformed
            # markup.  Whatever had to be salvaged is a degraded cause,
            # not a failure — matching how Firefox renders a truncated
            # document and runs the scripts that survived.
            root, recovery_kinds = parse_html_lenient(response.body)
            for kind in recovery_kinds:
                visit.record_degraded(
                    "recovered-html:%s" % kind, str(url)
                )
        else:
            try:
                root = parse_html(response.body)
            except HtmlParseError as error:
                visit.failure_reason = "unparseable html: %s" % error
                return visit

        realm = DomRealm(
            self.registry,
            root,
            seed=seed,
            url=str(url),
            network_hook=self._network_hook(url, visit),
            step_limit=self.config.step_limit,
            storage=self.storage_for(url),
            meter=meter,
            engine=self.config.engine,
        )
        visit.realm = realm
        visit.root = root
        self.measuring.install(realm, visit.recorder)

        # Element hiding (AdBlock Plus): hide before scripts run, the
        # way the extension's content script applies its stylesheet.
        self._apply_element_hiding(visit, root, url)

        # Execute scripts in document order.  The proxy-injected
        # instrumentation is the first script; it is the browser's, not
        # the page's, for measurability accounting.
        injected_source = self.measuring.injected_script()
        for node in list(root.elements()):
            if node.tag != "script":
                continue
            source = self._script_source(node, url, visit)
            if source is None:
                continue
            self._execute(
                realm, source, visit,
                is_page_script=(source != injected_source),
            )

        if self.config.load_images:
            self._load_images(root, url, visit)
        executed = realm.flush_timers(self._timer_tasks_remaining)
        self._timer_tasks_remaining -= executed
        visit.script_errors.extend(realm.timer_errors)
        visit.ok = True
        return visit

    # ------------------------------------------------------------------

    def _script_source(
        self, node: DomNode, page_url: Url, visit: PageVisit
    ) -> Optional[str]:
        src = node.attributes.get("src")
        if not src:
            return node.text_content()
        try:
            script_url = page_url.join(src)
        except UrlError:
            visit.script_errors.append("bad script URL %r" % src)
            return None
        request = Request(
            url=script_url, kind=ResourceKind.SCRIPT, first_party=page_url
        )
        try:
            response = self.proxy.fetch(request)
        except NetworkError as error:
            if error.reason == "blocked":
                visit.scripts_blocked += 1
                visit.requests_blocked += 1
            else:
                # A lost script degrades the page (its features go
                # unmeasured) but never aborts the visit — the rest of
                # the page still runs, as in a real browser.
                visit.script_errors.append(str(error))
                visit.record_degraded(
                    "subresource:script", str(script_url),
                    attempts=error.attempts,
                )
            return None
        return response.body

    def _execute(
        self,
        realm: DomRealm,
        source: str,
        visit: PageVisit,
        is_page_script: bool = True,
    ) -> None:
        # Compilation is content-addressed and process-wide: every
        # browser (and, after pre-warm, every forked worker) shares one
        # parse of each distinct script body.
        try:
            program = compile_source(source)
        except (JSLexError, JSParseError) as error:
            visit.script_errors.append("syntax error: %s" % error)
            return
        realm.interp.reset_steps()
        try:
            with obs.phase("execute"):
                realm.interp.run(program)
            visit.scripts_executed += 1
            if is_page_script:
                visit.page_scripts_executed += 1
        except StepLimitExceeded as error:
            visit.script_errors.append(str(error))
        except MiniJSError as error:
            # The page survives its own runtime errors (so does the
            # measurement: features recorded before the throw count).
            visit.scripts_executed += 1
            if is_page_script:
                visit.page_scripts_executed += 1
            visit.script_errors.append(str(error))

    def _network_hook(self, page_url: Url, visit: PageVisit):
        def hook(raw_url: str, kind: str) -> None:
            try:
                target = page_url.join(raw_url)
            except UrlError:
                return
            request_kind = {
                "xhr": ResourceKind.XHR,
                "fetch": ResourceKind.XHR,
                "beacon": ResourceKind.BEACON,
            }.get(kind, ResourceKind.OTHER)
            request = Request(
                url=target, kind=request_kind, first_party=page_url
            )
            try:
                self.proxy.fetch(request)
            except NetworkError as error:
                if error.reason == "blocked":
                    visit.requests_blocked += 1
                else:
                    visit.record_degraded(
                        "subresource:%s" % request_kind, str(target),
                        attempts=error.attempts,
                    )

        return hook

    def _load_images(
        self, root: DomNode, page_url: Url, visit: PageVisit
    ) -> None:
        for node in root.find_all("img"):
            src = node.attributes.get("src")
            if not src:
                continue
            try:
                target = page_url.join(src)
            except UrlError:
                continue
            request = Request(
                url=target, kind=ResourceKind.IMAGE, first_party=page_url
            )
            try:
                self.proxy.fetch(request)
            except NetworkError as error:
                if error.reason == "blocked":
                    visit.requests_blocked += 1
                    node.attributes["data-blocked"] = "1"
                else:
                    visit.record_degraded(
                        "subresource:image", str(target),
                        attempts=error.attempts,
                    )

    def _apply_element_hiding(
        self, visit: PageVisit, root: DomNode, url: Url
    ) -> None:
        selectors: List[str] = []
        for extension in self.blocking_extensions:
            filter_list = getattr(extension, "filter_list", None)
            if filter_list is not None:
                selectors.extend(filter_list.hiding_selectors_for(url))
        if not selectors:
            return
        visit.hidden_selectors = selectors
        for selector in selectors:
            for node in root.query_selector_all(selector):
                node.attributes["data-hidden"] = "1"
