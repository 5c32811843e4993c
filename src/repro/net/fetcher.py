"""Fetching documents and subresources from a web source.

:class:`WebSource` is the interface a "web" must implement to be
crawlable (the synthetic web implements it; a test double can too).
:class:`Fetcher` layers request accounting and failure semantics on
top: unknown hosts raise :class:`NetworkError` the way a dead domain
times out, and unresponsive sites stay unresponsive — the paper could
not measure 267 of the Alexa 10k for exactly these reasons.

The fetcher is also where the resilience layer
(:mod:`repro.net.resilience`) lives: per-request retries with
deterministic VirtualClock-charged backoff, and per-origin circuit
breakers.  The default :class:`ResilienceConfig` is inert, so a bare
``Fetcher(source)`` behaves exactly like the pre-resilience one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro import obs
from repro.core.sandbox import heartbeat
from repro.net.resilience import (
    SYNTHETIC_DELAY_HEADER,
    ResilienceConfig,
    ResilienceState,
)
from repro.net.resources import Request, ResourceKind, Response
from repro.net.url import Url


class NetworkError(Exception):
    """Host unreachable / connection refused / timeout.

    ``transient`` distinguishes failures worth retrying (an overloaded
    host, a dropped connection) from deterministic ones (NXDOMAIN, a
    page that always serves HTTP 404): the retry layers re-attempt
    only the former by default, since re-running a deterministic
    failure just repeats it.  ``attempts`` is stamped by the fetcher
    with how many wire attempts it spent before giving up (0 when a
    circuit breaker fast-failed the request without touching the
    wire); the browser copies it onto the degraded-resource record.
    """

    def __init__(
        self, url: Url, reason: str, transient: bool = False
    ) -> None:
        super().__init__("%s: %s" % (url, reason))
        self.url = url
        self.reason = reason
        self.transient = transient
        self.attempts = 1


class TransientNetworkError(NetworkError):
    """A failure that may succeed on retry (timeout, reset, overload)."""

    def __init__(self, url: Url, reason: str) -> None:
        super().__init__(url, reason, transient=True)


class WebSource(Protocol):
    """Anything that can serve responses for URLs."""

    def respond(self, request: Request) -> Optional[Response]:
        """Return a response, or None when the host does not exist."""


def classify_status(status: int) -> bool:
    """Is an HTTP error status transient (worth a retry)?

    5xx is the server falling over and 429 is it asking for backoff —
    both may clear on retry.  4xx (other than 429) is a deterministic
    answer about the resource: retrying a 404 just re-fetches the 404.
    """
    return status >= 500 or status == 429


class Fetcher:
    """Issues requests against a web source, with accounting.

    ``observers`` get a callback per request so blocking extensions can
    veto loads *before* they happen, which is where AdBlock Plus and
    Ghostery actually intervene.  Counter semantics:

    * ``requests_issued`` — every ``fetch()`` call (the crawl
      statistics in Table 1 come from here);
    * ``requests_blocked`` — extension vetoes.  Deliberately **not**
      counted as failed: a veto is policy, not a dead host;
    * ``requests_failed`` — requests that exhausted every attempt;
    * ``requests_retried`` — extra wire attempts beyond the first;
    * ``requests_short_circuited`` — fast-failed by an open breaker;
    * ``breaker_opens`` — origin breakers tripping open;
    * ``bytes_fetched`` — response body bytes delivered to callers.
    """

    def __init__(
        self,
        source: WebSource,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        self._source = source
        self.resilience = resilience or ResilienceConfig()
        self._state = ResilienceState(self.resilience)
        self.requests_issued = 0
        self.requests_failed = 0
        self.requests_blocked = 0
        self.requests_retried = 0
        self.requests_short_circuited = 0
        self.breaker_opens = 0
        self.bytes_fetched = 0
        self._observers: List[Callable[[Request], bool]] = []
        #: The active visit's budget meter (repro.core.sandbox),
        #: installed by the browser around each page so fetch storms
        #: charge the per-page cap.  None = unmetered.
        self.budget_meter = None

    def add_observer(self, observer: Callable[[Request], bool]) -> None:
        """Register a request gate; returning False blocks the request."""
        self._observers.append(observer)

    def clear_observers(self) -> None:
        self._observers = []

    def reset_round(self) -> None:
        """Forget per-round resilience state (circuit breakers).

        The crawler calls this at the top of every visit round so
        breaker history never leaks across rounds — which is what keeps
        parallel and resumed crawls bit-identical to serial ones.
        """
        self._state.reset_round()

    def breaker_states(self) -> Dict[str, Tuple[str, int]]:
        """origin -> (breaker state, times opened), for telemetry."""
        return self._state.breaker_states()

    def fetch(self, request: Request) -> Response:
        """Fetch a resource; raises NetworkError on failure or block.

        A blocked request raises with reason ``"blocked"`` so callers
        can distinguish extension vetoes from dead hosts.  Transient
        failures are retried per the resilience config, each extra
        attempt charging the page's fetch budget and advancing the
        virtual clock by the seeded backoff delay — never sleeping.
        """
        self.requests_issued += 1
        # Touching the (possibly hostile) web source is the one place a
        # crawl worker can genuinely block, so signal liveness to the
        # watchdog just before — a hung respond() leaves the heartbeat
        # stale and the supervisor kills the worker.
        heartbeat()
        meter = self.budget_meter
        if meter is not None:
            meter.charge_fetch()
        for observer in self._observers:
            if not observer(request):
                self.requests_blocked += 1
                raise NetworkError(request.url, "blocked")

        config = self.resilience
        attempts = max(1, config.request_attempts)
        breaker = self._state.breaker_for(request.url.host)
        failure: Optional[NetworkError] = None
        made = 0
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                # The extra wire attempt costs what a real one would:
                # one unit of the page's fetch budget plus the policy's
                # backoff, served on the virtual clock.
                self.requests_retried += 1
                obs.event("net:retry", url=str(request.url),
                          attempt=attempt)
                heartbeat()
                if meter is not None:
                    meter.advance_clock_ms(1000.0 * config.delay(
                        str(request.url), attempt - 1
                    ))
                    meter.charge_fetch()
            if breaker is not None and not breaker.allow():
                self.requests_short_circuited += 1
                obs.event("net:short-circuit",
                          origin=request.url.host)
                failure = TransientNetworkError(
                    request.url, "circuit-open"
                )
                break
            made = attempt
            wire_request = (
                request if attempt == 1
                else replace(request, attempt=attempt)
            )
            try:
                response = self._respond_once(wire_request, meter)
            except TransientNetworkError as error:
                failure = error
                if breaker is not None and breaker.record_failure():
                    self.breaker_opens += 1
                    obs.event("net:breaker-open",
                              origin=request.url.host)
                continue
            except NetworkError as error:
                failure = error
                break
            if breaker is not None:
                breaker.record_success()
            self.bytes_fetched += len(response.body)
            return response
        self.requests_failed += 1
        assert failure is not None
        failure.attempts = made
        raise failure

    def _respond_once(
        self, request: Request, meter
    ) -> Response:
        """One wire attempt: classify the outcome, credit latency."""
        response = self._source.respond(request)
        if response is None:
            raise NetworkError(request.url, "host not found")
        # A slow origin's synthetic latency burns deadline budget even
        # when the response is an error — the time passed either way.
        delay_header = response.headers.get(SYNTHETIC_DELAY_HEADER)
        if delay_header and meter is not None:
            try:
                seconds = float(delay_header)
            except ValueError:
                seconds = 0.0
            meter.advance_clock_ms(seconds * 1000.0)
            meter.check_deadline()
        if not response.ok:
            reason = "HTTP %d" % response.status
            if classify_status(response.status):
                raise TransientNetworkError(request.url, reason)
            raise NetworkError(request.url, reason)
        return response


class DictWebSource:
    """A trivial WebSource backed by a {url-string: Response} dict.

    Used by tests and examples that need a hand-built two-page web.
    """

    def __init__(self, pages: Optional[Dict[str, Response]] = None) -> None:
        self.pages: Dict[str, Response] = dict(pages or {})

    def add_html(self, url: str, body: str) -> None:
        parsed = Url.parse(url)
        self.pages[str(parsed)] = Response(
            url=parsed, content_type="text/html", body=body
        )

    def add_script(self, url: str, body: str) -> None:
        parsed = Url.parse(url)
        self.pages[str(parsed)] = Response(
            url=parsed, content_type="application/javascript", body=body
        )

    def respond(self, request: Request) -> Optional[Response]:
        return self.pages.get(str(request.url))
