"""The instrumentation-injecting proxy.

Figure 2 of the paper: every browser request flows through a proxy that
injects the measuring hooks "at the beginning of <head>" so the DOM is
modified before any page content runs.  This class reproduces that
rewrite on HTML responses; everything else passes through untouched.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.minijs.compile import shared_cache
from repro.minijs.errors import JSLexError, JSParseError
from repro.net.fetcher import Fetcher
from repro.net.resources import Request, Response
from repro.obs import phase

_HEAD_OPEN_RE = re.compile(r"<head(\s[^>]*)?>", re.IGNORECASE)
_HTML_OPEN_RE = re.compile(r"<html(\s[^>]*)?>", re.IGNORECASE)


class InjectingProxy:
    """Wraps a Fetcher, injecting a script into HTML documents."""

    def __init__(self, fetcher: Fetcher,
                 injected_script: Optional[str] = None) -> None:
        self._fetcher = fetcher
        self._injected = injected_script
        self.documents_rewritten = 0
        self._precompile_injected()

    @property
    def fetcher(self) -> Fetcher:
        return self._fetcher

    def set_injected_script(self, source: Optional[str]) -> None:
        self._injected = source
        self._precompile_injected()

    def _precompile_injected(self) -> None:
        """Warm the shared compile cache with the instrumentation.

        The injected payload runs on *every* page the proxy rewrites;
        compiling it once at set time means even the first page load of
        a crawl executes it from the cache.
        """
        if not self._injected:
            return
        try:
            shared_cache().compile(self._injected)
        except (JSLexError, JSParseError):
            pass  # surfaced as a script error at execution time

    def fetch(self, request: Request) -> Response:
        # Failures pass through untouched: a NetworkError (and its
        # ``transient`` flag, which the survey RetryPolicy keys on) or
        # a BudgetExceeded from the fetcher must reach the browser
        # exactly as raised — the proxy only ever rewrites *successful*
        # HTML responses.
        with phase("fetch"):
            response = self._fetcher.fetch(request)
        if self._injected and response.is_html:
            response = Response(
                url=response.url,
                status=response.status,
                content_type=response.content_type,
                body=self.inject(response.body),
                headers=dict(response.headers),
            )
            self.documents_rewritten += 1
        return response

    def inject(self, html: str) -> str:
        """Place the instrumentation at the start of <head>.

        When a page has no <head>, inject immediately after <html> (or
        at the top of the document as a last resort) — before any other
        markup either way, so no page script can run first.
        """
        tag = "<script>%s</script>" % (self._injected or "")
        match = _HEAD_OPEN_RE.search(html)
        if match is not None:
            insert_at = match.end()
            return html[:insert_at] + tag + html[insert_at:]
        match = _HTML_OPEN_RE.search(html)
        if match is not None:
            insert_at = match.end()
            return html[:insert_at] + "<head>" + tag + "</head>" + html[insert_at:]
        return "<head>" + tag + "</head>" + html
