"""Failure-injection tests: the crawl must survive a hostile web.

The paper's pipeline ran for 480 interaction-days against the real web
— pages that throw, loop, define broken handlers, serve garbage HTML
or die mid-crawl.  Each test here injects one failure class and checks
the crawler degrades exactly as designed: record what ran, skip what
did not, never crash, never mis-attribute.
"""

import pytest

from repro.browser import Browser, BrowserConfig
from repro.core.faults import FaultPlan, FaultSource, Outage
from repro.core.persistence import measurement_to_dict
from repro.core.survey import RetryPolicy, SurveyConfig, run_survey
from repro.monkey import Gremlins, MonkeyConfig, SiteCrawler
from repro.net.fetcher import DictWebSource, Fetcher
from repro.net.resources import Request, ResourceKind, Response
from repro.net.url import Url
from repro.webgen.sitegen import build_web

import random


def page(body_html, script=""):
    script_tag = "<script>%s</script>" % script if script else ""
    return (
        "<html><head></head><body>%s%s</body></html>"
        % (body_html, script_tag)
    )


def browse(registry, web, url, **config_kwargs):
    browser = Browser(
        registry, Fetcher(web),
        config=BrowserConfig(**config_kwargs) if config_kwargs else None,
    )
    return browser.visit_page(Url.parse(url), seed=7)


class TestHostileScripts:
    def test_infinite_loop_contained(self, registry):
        web = DictWebSource()
        web.add_html("https://evil.test/", page(
            "<p>x</p>",
            "while (true) { var burn = 1 + 1; }"
            ,
        ))
        visit = browse(registry, web, "https://evil.test/",
                       step_limit=20_000)
        assert visit.ok
        assert any("step budget" in e for e in visit.script_errors)

    def test_next_script_runs_after_runaway(self, registry):
        web = DictWebSource()
        web.add_html(
            "https://evil.test/",
            "<html><head></head><body>"
            "<script>while (true) {}</script>"
            "<script>document.title = 'survived';</script>"
            "</body></html>",
        )
        visit = browse(registry, web, "https://evil.test/",
                       step_limit=20_000)
        assert "Document.prototype.title" in visit.recorder.counts

    def test_deep_recursion_contained(self, registry):
        web = DictWebSource()
        web.add_html("https://evil.test/", page(
            "<p>x</p>", "function r(n) { return r(n + 1); } r(0);"
        ))
        visit = browse(registry, web, "https://evil.test/",
                       step_limit=50_000)
        assert visit.ok

    def test_throwing_top_level_script(self, registry):
        web = DictWebSource()
        web.add_html("https://evil.test/", page(
            "<p>x</p>",
            "document.createElement('div'); throw 'chaos';",
        ))
        visit = browse(registry, web, "https://evil.test/")
        assert visit.ok
        assert visit.recorder.counts[
            "Document.prototype.createElement"
        ] == 1

    def test_throwing_event_handler_does_not_stop_monkey(self, registry):
        web = DictWebSource()
        web.add_html(
            "https://evil.test/",
            page('<button onclick="throw 1;">a</button>'
                 '<a href="/next">link</a><p>x</p>'),
        )
        browser = Browser(registry, Fetcher(web))
        visit = browser.visit_page(Url.parse("https://evil.test/"), seed=7)
        gremlins = Gremlins(visit, random.Random(1),
                            MonkeyConfig(events_per_page=40))
        assert gremlins.run() == 40

    def test_script_redefining_globals(self, registry):
        """Pages that clobber their own environment stay measurable."""
        web = DictWebSource()
        web.add_html("https://evil.test/", page(
            "<p>x</p>",
            "document.createElement('div');"
            "Document = null; document = null;"
            "window.XMLHttpRequest = 5;",
        ))
        visit = browse(registry, web, "https://evil.test/")
        assert visit.ok
        assert "Document.prototype.createElement" in visit.recorder.counts


class TestHostileMarkup:
    @pytest.mark.parametrize(
        "html",
        [
            "<html><body><div><div><div><p>unclosed everywhere",
            "<body></span></div></p>only closers</body>",
            "<!DOCTYPE html><body><p>< 1 2 3 ><<<</body>",
            "",
        ],
    )
    def test_malformed_html_still_loads(self, registry, html):
        web = DictWebSource()
        web.add_html("https://ugly.test/", html)
        visit = browse(registry, web, "https://ugly.test/")
        assert visit.ok

    def test_deeply_nested_markup(self, registry):
        html = "<body>%s fin %s</body>" % ("<div>" * 120, "</div>" * 120)
        web = DictWebSource()
        web.add_html("https://deep.test/", html)
        visit = browse(registry, web, "https://deep.test/")
        assert visit.ok


class TestFlakyNetwork:
    class FlakySource:
        """Serves the home page, dies on everything else."""

        def __init__(self):
            self.inner = DictWebSource()
            self.inner.add_html(
                "https://flaky.test/",
                page('<a href="/gone/">next</a><p>x</p>',
                     "document.title = 't';"),
            )

        def respond(self, request):
            if request.url.path == "/":
                return self.inner.respond(request)
            return None

    def test_crawl_survives_dead_subpages(self, registry):
        browser = Browser(registry, Fetcher(self.FlakySource()))
        crawler = SiteCrawler(browser)
        result = crawler.visit_site("flaky.test", 1, seed=4)
        assert result.ok
        assert result.pages_visited == 1
        assert "Document.prototype.title" in result.feature_counts

    class ErrorSource:
        """Responds 500 to every request."""

        def respond(self, request):
            return Response(url=request.url, status=500, body="oops")

    def test_http_errors_reported_as_failure(self, registry):
        browser = Browser(registry, Fetcher(self.ErrorSource()))
        crawler = SiteCrawler(browser)
        result = crawler.visit_site("err.test", 1, seed=4)
        assert not result.ok
        assert "500" in (result.failure_reason or "")


VISITS = 2


def _retry_config(attempts=3, **kwargs):
    kwargs.setdefault("conditions", ("default", "blocking"))
    kwargs.setdefault("visits_per_site", VISITS)
    kwargs.setdefault("seed", 17)
    kwargs.setdefault(
        "retry", RetryPolicy(attempts=attempts, backoff_base=0.0)
    )
    return SurveyConfig(**kwargs)


def outage_source(inner, fail, rounds, **options):
    """``inner`` with an :class:`Outage` failing ``fail``'s attempts."""
    return FaultSource(inner, FaultPlan({
        domain: {"net": [Outage(attempts, rounds, **options)]}
        for domain, attempts in fail.items()
    }))


def _without_attempts(measurement):
    data = measurement_to_dict(measurement)
    data.pop("attempts")
    return data


class TestRetryPolicy:
    """The per-site retry matrix, driven by deterministic injection.

    An :class:`Outage` fails chosen (domain, attempt)
    pairs; each test checks one row of the matrix: retry-then-succeed,
    retry-exhausted, deterministic-not-retried, mixed-condition, and
    an exception escaping the crawl machinery.
    """

    @pytest.fixture(scope="class")
    def flaky_web(self, registry):
        return build_web(registry, n_sites=6, seed=21)

    @pytest.fixture(scope="class")
    def clean(self, registry, flaky_web):
        return run_survey(flaky_web, registry, _retry_config())

    @pytest.fixture(scope="class")
    def target(self, clean):
        """A domain that measures fine when nothing is injected."""
        return clean.measured_domains("default")[0]

    def _assert_others_unaffected(self, clean, result, target):
        for condition in clean.conditions:
            for domain in clean.domains:
                if domain == target:
                    continue
                assert _without_attempts(
                    result.measurement(condition, domain)
                ) == _without_attempts(
                    clean.measurement(condition, domain)
                ), (condition, domain)

    def test_retry_then_succeed(self, registry, flaky_web, clean,
                                target):
        source = outage_source(flaky_web, {target: {1}}, VISITS)
        result = run_survey(source, registry, _retry_config())
        m = result.measurement("default", target)
        assert m.measured
        assert m.attempts == 2
        assert target in result.retried_domains("default")
        # The recovered measurement is bit-identical to a never-failed
        # one: retries reseed from (seed, domain, round, condition).
        assert _without_attempts(m) == _without_attempts(
            clean.measurement("default", target)
        )
        # One failure per round of attempt 1, none afterwards.
        assert set(source.injected) == {(target, 1)}
        assert len(source.injected) == VISITS
        self._assert_others_unaffected(clean, result, target)

    def test_retry_exhausted_records_cause(self, registry, flaky_web,
                                           clean, target):
        source = outage_source(flaky_web, {target: {1, 2}}, VISITS)
        result = run_survey(source, registry,
                            _retry_config(attempts=2))
        m = result.measurement("default", target)
        assert not m.measured
        assert m.attempts == 2
        failures = {
            str(f): f for f in result.failed_domains("default")
        }
        assert target in failures
        failure = failures[target]
        assert failure.cause == "injected outage"
        assert failure.attempts == 2
        assert failure.transient
        self._assert_others_unaffected(clean, result, target)

    def test_deterministic_failure_not_retried(self, registry,
                                               flaky_web, clean,
                                               target):
        """NXDOMAIN-style failures burn one attempt, not three."""
        source = outage_source(
            flaky_web, {target: {1}}, VISITS, transient=False
        )
        result = run_survey(source, registry, _retry_config())
        m = result.measurement("default", target)
        assert not m.measured
        assert m.attempts == 1
        assert not m.transient_failure
        assert m.failure_reason == "host not found"

    def test_mixed_condition_injection(self, registry, flaky_web,
                                       clean, target):
        """An outage during one condition leaves the other untouched.

        Attempt numbering is global per domain: the default-condition
        crawl spends attempt 1, so injecting at attempt 2 hits the
        blocking-condition crawl only.
        """
        source = outage_source(flaky_web, {target: {2}}, VISITS)
        result = run_survey(source, registry, _retry_config())
        default_m = result.measurement("default", target)
        blocking_m = result.measurement("blocking", target)
        assert default_m.attempts == 1
        assert blocking_m.attempts == 2
        assert blocking_m.measured
        assert _without_attempts(blocking_m) == _without_attempts(
            clean.measurement("blocking", target)
        )
        self._assert_others_unaffected(clean, result, target)

    def test_unexpected_exception_recorded_not_fatal(self, registry,
                                                     flaky_web, clean,
                                                     target):
        """One exploding site must not abort the whole run."""
        class ExplodingSource:
            def __init__(self, inner, domain):
                self._inner = inner
                self._domain = domain

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def respond(self, request):
                if request.url.host == self._domain:
                    raise RuntimeError("boom")
                return self._inner.respond(request)

        source = ExplodingSource(flaky_web, target)
        result = run_survey(source, registry, _retry_config())
        m = result.measurement("default", target)
        assert not m.measured
        assert m.attempts == 1
        failures = {
            str(f): f for f in result.failed_domains("default")
        }
        assert failures[target].cause == "RuntimeError: boom"
        self._assert_others_unaffected(clean, result, target)


class TestInjectionScopes:
    """``scope`` controls an injected outage's blast radius.

    ``"home"`` (every test above) kills only the front door; these
    pin the two wider radii — ``"site"`` (everything fails) and
    ``"subresources"`` (the home page loads but every deeper request
    dies: the degraded-page case, exercised on both non-home-page
    documents and subresources).
    """

    def _site_web(self):
        web = DictWebSource()
        web.add_html("https://inj.test/", page(
            '<img src="/logo.png"><a href="/next/">next</a><p>x</p>',
            "document.title = 'home';",
        ) .replace("</body>",
                   '<script src="/app.js"></script></body>'))
        web.add_script("https://inj.test/app.js",
                       "document.createElement('div');")
        web.add_html("https://inj.test/next/", page(
            "<p>deep</p>", "navigator.vibrate(5);"
        ))
        logo = Url.parse("https://inj.test/logo.png")
        web.pages[str(logo)] = Response(
            url=logo, content_type="image/png", body="\x89PNG"
        )
        return web

    def _crawl(self, registry, source):
        crawler = SiteCrawler(browser=Browser(registry, Fetcher(source)))
        return crawler.visit_site("inj.test", 1, seed=4)

    def test_uninjected_baseline_is_whole(self, registry):
        result = self._crawl(registry, self._site_web())
        assert result.ok
        assert result.pages_visited == 2
        assert result.degraded_resources == 0
        assert "Document.prototype.createElement" in result.feature_counts
        assert "Navigator.prototype.vibrate" in result.feature_counts

    def test_subresources_scope_degrades_instead_of_failing(
        self, registry
    ):
        source = outage_source(
            self._site_web(), {"inj.test": {1}}, 1,
            scope="subresources",
        )
        result = self._crawl(registry, source)
        # The home page (inline script included) measured fine...
        assert result.ok
        assert result.pages_visited == 1
        assert "Document.prototype.title" in result.feature_counts
        # ...while every deeper request died and was accounted for:
        # the script and image as structured degraded causes, the
        # /next/ document as a skipped (not fatal) page.
        slugs = {d.slug for d in result.degraded}
        assert slugs == {"subresource:script", "subresource:image"}
        assert result.degraded_resources == 2
        for d in result.degraded:
            assert d.url.startswith("https://inj.test/")
        assert "Document.prototype.createElement" not in (
            result.feature_counts
        )
        assert "Navigator.prototype.vibrate" not in result.feature_counts
        # All three non-home requests really went through the injector.
        assert source.injected == [("inj.test", 1)] * 3

    def test_site_scope_takes_the_home_page_down_too(self, registry):
        source = outage_source(
            self._site_web(), {"inj.test": {1}}, 1,
            scope="site",
        )
        result = self._crawl(registry, source)
        assert not result.ok
        assert "injected outage" in (result.failure_reason or "")
        assert result.transient
        assert result.feature_counts == {}

    def test_subresources_scope_at_survey_level(self, registry):
        """Degraded sites stay *measured* and disjoint from failed."""
        web = build_web(registry, n_sites=4, seed=21)
        domains = [r.domain for r in web.ranking.all()]
        source = outage_source(
            web, {d: {1, 2, 3} for d in domains},
            VISITS, scope="subresources",
        )
        result = run_survey(source, registry, _retry_config())
        degraded = result.degraded_domains("default")
        assert degraded, "no site lost a subresource"
        failed = {str(f) for f in result.failed_domains("default")}
        assert not failed & set(degraded)
        for domain in degraded:
            m = result.measurement("default", domain)
            assert m.measured
            assert m.degraded_resources > 0
            assert m.rounds_degraded > 0
            for d in m.degraded:
                assert d.slug.startswith("subresource:")


class TestMeasurementIntegrity:
    def test_counts_unaffected_by_failures_elsewhere(self, registry):
        """A broken site must not contaminate the next site's counts."""
        web = DictWebSource()
        web.add_html("https://bad.test/", page(
            "<p>x</p>", "while (true) {}"
        ))
        web.add_html("https://good.test/", page(
            "<p>x</p>", "navigator.vibrate(10);"
        ))
        browser = Browser(registry, Fetcher(web),
                          config=BrowserConfig(step_limit=20_000))
        bad = browser.visit_page(Url.parse("https://bad.test/"), seed=1)
        good = browser.visit_page(Url.parse("https://good.test/"), seed=2)
        assert good.recorder.counts == {
            "Navigator.prototype.vibrate": 1,
        }
        assert "Navigator.prototype.vibrate" not in bad.recorder.counts
