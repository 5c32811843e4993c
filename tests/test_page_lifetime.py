"""Page lifetimes: a page's realm dies with the page.

The crawler closes each page's :class:`DomRealm` once the page's
features are merged, so refcounting frees the realm at once instead of
the cycle collector dragging it through its old generations; and
``run_survey`` keeps the set-up heap frozen for the length of the
crawl.  These tests pin the garbage a crawl leaves behind, check that
teardown never touches what the next realm shares, and check that the
freeze is undone however the survey ends.
"""

import gc
import os

import pytest

from repro.core.persistence import survey_digest
from repro.core.survey import (
    RetryPolicy,
    SurveyConfig,
    SurveyInterrupted,
    run_survey,
)
from repro.dom.bindings import DomRealm
from repro.monkey.crawler import SiteCrawler
from repro.webgen.sitegen import build_web
from tests.test_drain import SigtermSource

#: cyclic objects per page that a crawl of this web leaves for the
#: collector when no realm is ever torn down
UNCLOSED_GARBAGE_PER_PAGE = 2250


def make_config(**overrides):
    settings = dict(
        conditions=("default",),
        visits_per_site=1,
        seed=3,
        retry=RetryPolicy(attempts=1, backoff_base=0.0),
    )
    settings.update(overrides)
    return SurveyConfig(**settings)


@pytest.fixture(scope="module")
def web(registry):
    return build_web(registry, n_sites=3, seed=5)


class TestRealmTeardown:
    def test_a_crawl_leaves_a_tenth_of_the_cyclic_garbage(
        self, registry, web
    ):
        config = make_config()
        run_survey(web, registry, config)  # warm every shared cache
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = run_survey(web, registry, config)
            garbage = gc.collect()
        finally:
            if enabled:
                gc.enable()
        pages = result.total_pages_visited()
        assert pages > 0
        assert garbage / pages < UNCLOSED_GARBAGE_PER_PAGE / 10

    def test_every_realm_closes_and_leaves_shared_state_intact(
        self, registry, web, monkeypatch
    ):
        counts = {"built": 0, "closed": 0}
        init, close = DomRealm.__init__, DomRealm.close

        def counted_init(realm, *args, **kwargs):
            counts["built"] += 1
            init(realm, *args, **kwargs)

        def counted_close(realm):
            counts["closed"] += 1
            close(realm)

        monkeypatch.setattr(DomRealm, "__init__", counted_init)
        monkeypatch.setattr(DomRealm, "close", counted_close)
        first = run_survey(web, registry, make_config())
        assert counts["built"] > 0
        assert counts["closed"] == counts["built"]
        # A close that mutated a shared stub, shim, compiled program
        # or registry object would change what later realms measure.
        second = run_survey(web, registry, make_config())
        tree = run_survey(web, registry, make_config(engine="tree"))
        assert survey_digest(second) == survey_digest(first)
        assert survey_digest(tree) == survey_digest(first)


@pytest.fixture
def crawl_freeze_counts(monkeypatch):
    """``gc.get_freeze_count()`` at the start of every visit round."""
    counts = []
    visit_site = SiteCrawler.visit_site

    def spy(crawler, *args, **kwargs):
        counts.append(gc.get_freeze_count())
        return visit_site(crawler, *args, **kwargs)

    monkeypatch.setattr(SiteCrawler, "visit_site", spy)
    return counts


class TestSetupHeapFreeze:
    def test_frozen_for_the_crawl_only(
        self, registry, web, crawl_freeze_counts
    ):
        assert gc.get_freeze_count() == 0
        run_survey(web, registry, make_config())
        assert crawl_freeze_counts
        assert min(crawl_freeze_counts) > 0
        assert gc.get_freeze_count() == 0
        # A caller's own freeze is neither extended nor undone.
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            del crawl_freeze_counts[:]
            run_survey(web, registry, make_config())
            assert set(crawl_freeze_counts) == {frozen}
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    @pytest.mark.skipif(os.name != "posix",
                        reason="the drain is triggered by SIGTERM")
    def test_a_drained_survey_unfreezes(
        self, registry, web, crawl_freeze_counts, tmp_path
    ):
        assert gc.get_freeze_count() == 0
        with pytest.raises(SurveyInterrupted):
            run_survey(SigtermSource(web, 1, 1), registry, make_config(),
                       run_dir=str(tmp_path / "run"))
        assert min(crawl_freeze_counts) > 0
        assert gc.get_freeze_count() == 0
