"""Authenticated crawling: measuring the closed web (section 7.3).

The paper's future-work paragraph: "The closed web (i.e. web content
and functionality that are only available after logging in to a
website) likely uses a broader set of features.  With the correct
credentials, the monkey testing approach could be used to evaluate
those sites."  This module implements exactly that:

1. visit the site's login page;
2. type the supplied credential into the login field (engine-side, the
   way a credentialed testing harness would, not the monkey's random
   strings);
3. submit, which stores the site's session token in localStorage;
4. run the ordinary monkey-testing crawl *without* resetting the
   profile, so gated functionality executes.

``AuthenticatedCrawler.measure`` returns both the logged-in visit
result and the set of standards that only the authenticated session
reached — the "closed web premium".
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Optional, Set

from repro.browser.browser import Browser
from repro.browser.session import VisitResult
from repro.monkey.crawler import CrawlConfig, SiteCrawler
from repro.net.url import Url


@dataclass(frozen=True)
class AuthenticatedMeasurement:
    """Outcome of a logged-in crawl of one site."""

    domain: str
    logged_in: bool
    result: VisitResult
    #: standards seen logged-in that the open crawl missed
    closed_web_standards: Set[str]


class LoginError(Exception):
    """The login flow could not be completed."""


class AuthenticatedCrawler:
    """Crawls sites with credentials, then measures the difference."""

    def __init__(
        self,
        browser: Browser,
        config: Optional[CrawlConfig] = None,
        login_path: str = "/login/",
        account_path: str = "/account/",
    ) -> None:
        base = config or CrawlConfig()
        # The login must survive the crawl: no fresh profile per round.
        self.config = CrawlConfig(
            links_per_page=base.links_per_page,
            depth=base.depth,
            prefer_novel_paths=base.prefer_novel_paths,
            fresh_profile_per_round=False,
            monkey=base.monkey,
        )
        self.browser = browser
        self.login_path = login_path
        self.account_path = account_path

    # ------------------------------------------------------------------

    def login(self, domain: str, credential: str) -> bool:
        """Perform the login flow; True if a session was established."""
        url = Url.parse("https://%s%s" % (domain, self.login_path))
        page = self.browser.visit_page(url, seed=1)
        with closing(page):
            if not page.ok or page.root is None or page.realm is None:
                return False
            field = page.root.get_element_by_id("login-user")
            button = page.root.get_element_by_id("login-btn")
            if field is None or button is None:
                return False
            # A credentialed harness types the real credential.
            field.attributes["value"] = credential
            page.realm.events.dispatch(button, "click")
        jar = self.browser.storage_for(url)
        return "session" in jar

    def measure(
        self,
        domain: str,
        credential: str,
        open_result: VisitResult,
        round_index: int = 1,
        seed: int = 0,
    ) -> AuthenticatedMeasurement:
        """Login, crawl, and diff against an open-web visit result."""
        self.browser.reset_storage(
            Url.parse("https://%s/" % domain).registrable_domain
        )
        logged_in = self.login(domain, credential)
        crawler = SiteCrawler(
            self.browser, self.config, condition="authenticated"
        )
        result = crawler.visit_site(domain, round_index, seed=seed)
        # A credentialed harness knows where the account area is (the
        # paper's "rudimentary understanding of site semantics"): visit
        # it deliberately rather than hoping the random walk lands there.
        if logged_in:
            self._visit_account(domain, result, seed)
        registry = self.browser.registry
        authenticated_standards = {
            registry.standard_of(f) for f in result.feature_counts
        }
        open_standards = {
            registry.standard_of(f) for f in open_result.feature_counts
        }
        return AuthenticatedMeasurement(
            domain=domain,
            logged_in=logged_in,
            result=result,
            closed_web_standards=authenticated_standards - open_standards,
        )

    def _visit_account(
        self, domain: str, result: VisitResult, seed: int
    ) -> None:
        import random

        from repro.monkey.gremlins import Gremlins
        from repro.seeding import derive_seed

        url = Url.parse("https://%s%s" % (domain, self.account_path))
        page = self.browser.visit_page(url, seed=seed)
        with closing(page):
            if not page.ok:
                return
            result.pages_visited += 1
            gremlins = Gremlins(
                page, random.Random(derive_seed(seed, domain, "account")),
                self.config.monkey,
            )
            gremlins.run()
            result.interaction_events += gremlins.events_fired
            page.recorder.merge_into_counts(result.feature_counts)
