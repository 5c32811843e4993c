"""Tests for the fetcher (failure semantics, request gates) and proxy."""

import pytest

from repro.core.faults import FaultPlan, FaultSource, Outage
from repro.net.fetcher import (
    DictWebSource,
    Fetcher,
    NetworkError,
    TransientNetworkError,
)
from repro.net.proxy import InjectingProxy
from repro.net.resources import Request, ResourceKind, Response
from repro.net.url import Url


@pytest.fixture()
def source():
    web = DictWebSource()
    web.add_html("https://site.com/", "<html><head></head><body>hi</body></html>")
    web.add_script("https://site.com/app.js", "var x = 1;")
    return web


def doc_request(url="https://site.com/"):
    parsed = Url.parse(url)
    return Request(url=parsed, kind=ResourceKind.DOCUMENT,
                   first_party=parsed)


class TestFetcher:
    def test_success(self, source):
        response = Fetcher(source).fetch(doc_request())
        assert response.ok
        assert response.is_html

    def test_unknown_host_raises(self, source):
        fetcher = Fetcher(source)
        with pytest.raises(NetworkError) as exc:
            fetcher.fetch(doc_request("https://dead.example/"))
        assert exc.value.reason == "host not found"
        assert fetcher.requests_failed == 1

    def test_http_error_raises(self, source):
        url = Url.parse("https://site.com/missing")
        source.pages[str(url)] = Response(url=url, status=404, body="")
        with pytest.raises(NetworkError) as exc:
            Fetcher(source).fetch(
                Request(url=url, first_party=url)
            )
        assert "404" in str(exc.value)

    def test_request_counting(self, source):
        fetcher = Fetcher(source)
        fetcher.fetch(doc_request())
        fetcher.fetch(doc_request())
        assert fetcher.requests_issued == 2
        assert fetcher.requests_failed == 0

    def test_observer_blocks(self, source):
        fetcher = Fetcher(source)
        fetcher.add_observer(lambda request: False)
        with pytest.raises(NetworkError) as exc:
            fetcher.fetch(doc_request())
        assert exc.value.reason == "blocked"

    def test_observer_allows(self, source):
        fetcher = Fetcher(source)
        fetcher.add_observer(lambda request: True)
        assert fetcher.fetch(doc_request()).ok

    def test_any_blocking_observer_wins(self, source):
        fetcher = Fetcher(source)
        fetcher.add_observer(lambda request: True)
        fetcher.add_observer(lambda request: False)
        with pytest.raises(NetworkError):
            fetcher.fetch(doc_request())

    def test_clear_observers(self, source):
        fetcher = Fetcher(source)
        fetcher.add_observer(lambda request: False)
        fetcher.clear_observers()
        assert fetcher.fetch(doc_request()).ok


class TestRequestClassification:
    def test_third_party_detection(self):
        page = Url.parse("https://site.com/")
        own = Request(url=Url.parse("https://cdn.site.com/x.js"),
                      first_party=page)
        other = Request(url=Url.parse("https://ads.net/x.js"),
                        first_party=page)
        assert not own.is_third_party
        assert other.is_third_party

    def test_no_first_party_means_first_party(self):
        request = Request(url=Url.parse("https://x.com/"))
        assert not request.is_third_party


class TestInjectingProxy:
    def test_injects_at_head_start(self, source):
        proxy = InjectingProxy(Fetcher(source), "INSTRUMENT();")
        response = proxy.fetch(doc_request())
        head_at = response.body.index("<head>")
        script_at = response.body.index("<script>INSTRUMENT();</script>")
        assert script_at == head_at + len("<head>")
        assert proxy.documents_rewritten == 1

    def test_injection_precedes_existing_head_content(self):
        web = DictWebSource()
        web.add_html(
            "https://s.com/",
            "<html><head><script>page();</script></head><body></body></html>",
        )
        proxy = InjectingProxy(Fetcher(web), "first();")
        body = proxy.fetch(doc_request("https://s.com/")).body
        assert body.index("first();") < body.index("page();")

    def test_html_without_head(self):
        web = DictWebSource()
        web.add_html("https://s.com/", "<html><body>x</body></html>")
        proxy = InjectingProxy(Fetcher(web), "hook();")
        body = proxy.fetch(doc_request("https://s.com/")).body
        assert body.index("hook();") < body.index("<body>")

    def test_headless_htmlless_document(self):
        web = DictWebSource()
        web.add_html("https://s.com/", "<p>bare</p>")
        proxy = InjectingProxy(Fetcher(web), "hook();")
        body = proxy.fetch(doc_request("https://s.com/")).body
        assert body.startswith("<head><script>hook();</script></head>")

    def test_head_with_attributes(self):
        web = DictWebSource()
        web.add_html(
            "https://s.com/",
            '<html><head data-x="1"><title>t</title></head><body></body></html>',
        )
        proxy = InjectingProxy(Fetcher(web), "hook();")
        body = proxy.fetch(doc_request("https://s.com/")).body
        assert '<head data-x="1"><script>hook();</script>' in body

    def test_scripts_pass_through_untouched(self, source):
        proxy = InjectingProxy(Fetcher(source), "hook();")
        request = Request(
            url=Url.parse("https://site.com/app.js"),
            kind=ResourceKind.SCRIPT,
            first_party=Url.parse("https://site.com/"),
        )
        response = proxy.fetch(request)
        assert response.body == "var x = 1;"
        assert proxy.documents_rewritten == 0

    def test_no_injection_when_unset(self, source):
        proxy = InjectingProxy(Fetcher(source), None)
        response = proxy.fetch(doc_request())
        assert "<script>" not in response.body

    def test_set_injected_script(self, source):
        proxy = InjectingProxy(Fetcher(source), None)
        proxy.set_injected_script("late();")
        assert "late();" in proxy.fetch(doc_request()).body


class TestTransientPropagation:
    """The proxy must pass failures through exactly as raised.

    The survey RetryPolicy keys on ``NetworkError.transient`` (via
    ``getattr(error, "transient", False)`` far up the stack), so a
    proxy that wrapped or re-raised fetch failures would silently turn
    retryable outages into deterministic ones.
    """

    def _proxied(self, source):
        return InjectingProxy(Fetcher(source), "hook();")

    def test_transient_error_keeps_type_and_flag(self, source):
        outage = FaultSource(source, FaultPlan(
            {"site.com": {"net": [Outage({1}, rounds=1)]}}
        ))
        proxy = self._proxied(outage)
        with pytest.raises(TransientNetworkError) as exc:
            proxy.fetch(doc_request())
        assert exc.value.transient
        # The next attempt goes through (the outage hit attempt 1
        # only), exactly what the retry policy banks on.
        assert proxy.fetch(doc_request()).ok

    def test_deterministic_error_stays_nontransient(self, source):
        proxy = self._proxied(source)
        with pytest.raises(NetworkError) as exc:
            proxy.fetch(doc_request("https://dead.example/"))
        assert not exc.value.transient

    def test_transient_classification_is_the_retry_key(self):
        # What the survey's retry loop actually reads off an escaping
        # exception, kept honest here at the source.
        url = Url.parse("https://x.test/")
        transient = TransientNetworkError(url, "overloaded")
        hard = NetworkError(url, "host not found")
        assert getattr(transient, "transient", False) is True
        assert getattr(hard, "transient", False) is False
