"""Network-chaos acceptance: the resilience layer recovers the clean
web's numbers from a faulty one, deterministically.

The paper's counts are only trustworthy if transport faults cannot
silently shift them.  Pinned here:

* a web where *every* request's first attempt fails (flaky ``*``)
  measures **bit-for-feature identically** to the clean web once
  per-request retries are on — zero failed domains, with the repair
  work visible in the ``requests_retried`` telemetry;
* the same web with retries disabled loses sites — the control that
  proves the acceptance test can fail;
* content pathologies (truncated/garbled bodies) degrade pages into
  measured-with-recorded-losses, never silent mis-measurement, and a
  stalled site fails its deadline budget instead of hanging the crawl;
* retry backoff + seeded jitter stay on the virtual clock: a
  budget-limited chaos crawl is digest-identical across serial, fork,
  spawn and kill+resume.
"""

import multiprocessing

import pytest

from repro.core import persistence
from repro.core.survey import (
    RetryPolicy,
    SurveyConfig,
    resume_survey,
    run_survey,
)
from repro.core.faults import FaultPlan, FaultSource
from repro.net.resilience import ALL_HOSTS, ResilienceConfig
from repro.net.resources import ResourceKind
from repro.webgen.hostile import chaos_budget, hostile_web
from repro.webgen.sitegen import build_web

N_SITES = 10
WEB_SEED = 55
VISITS = 2
SURVEY_SEED = 7

#: absorbs ``flaky``: one retry after the first failed attempt
RESILIENT = ResilienceConfig(request_attempts=2)


def make_config(**overrides):
    settings = dict(
        conditions=("default",),
        visits_per_site=VISITS,
        seed=SURVEY_SEED,
        retry=RetryPolicy(attempts=1, backoff_base=0.0),
        resilience=RESILIENT,
    )
    settings.update(overrides)
    return SurveyConfig(**settings)


@pytest.fixture(scope="module")
def clean_web(registry):
    return build_web(registry, n_sites=N_SITES, seed=WEB_SEED)


@pytest.fixture(scope="module")
def flaky_web(clean_web):
    """Every request to every host fails on its first attempt."""
    return FaultSource(clean_web, FaultPlan({ALL_HOSTS: {"net": ["flaky"]}}))


@pytest.fixture(scope="module")
def clean_result(registry, clean_web):
    return run_survey(clean_web, registry,
                      make_config(resilience=ResilienceConfig()))


class TestFlakyWebAcceptance:
    @pytest.fixture(scope="class")
    def flaky_result(self, registry, flaky_web):
        return run_survey(flaky_web, registry, make_config())

    def test_retries_absorb_every_injected_fault(self, clean_result,
                                                 flaky_result):
        # The clean web has its own quirks (a site that ships no
        # scripts, sample beacons that 404 by design); the contract is
        # that the injected flakiness adds *nothing* on top of them.
        assert (flaky_result.failed_domains("default")
                == clean_result.failed_domains("default"))
        assert (flaky_result.measured_domains("default")
                == clean_result.measured_domains("default"))

    def test_feature_counts_identical_to_clean_web(self, clean_result,
                                                   flaky_result):
        for domain in clean_result.domains:
            clean = clean_result.measurement("default", domain)
            flaky = flaky_result.measurement("default", domain)
            assert flaky.features == clean.features, domain
            assert flaky.invocations == clean.invocations, domain
            assert flaky.pages == clean.pages, domain

    def test_repair_work_is_visible_in_telemetry(self, clean_result,
                                                 flaky_result):
        for domain in flaky_result.domains:
            m = flaky_result.measurement("default", domain)
            # every wire request failed once, so retries >= requests
            assert m.requests_retried > 0, domain
            clean = clean_result.measurement("default", domain)
            assert clean.requests_retried == 0, domain

    def test_no_degradation_beyond_the_clean_web_baseline(
        self, clean_result, flaky_result
    ):
        # Same losses (the deterministic 404 beacons), one extra wire
        # attempt each — the injected resets themselves all healed.
        assert (flaky_result.degraded_domains("default")
                == clean_result.degraded_domains("default"))
        for domain in clean_result.degraded_domains("default"):
            clean = clean_result.measurement("default", domain)
            flaky = flaky_result.measurement("default", domain)
            assert ({(d.slug, d.url) for d in flaky.degraded}
                    == {(d.slug, d.url) for d in clean.degraded})
            assert flaky.degraded_resources == clean.degraded_resources
            by_key = {(d.slug, d.url): d.attempts for d in clean.degraded}
            for d in flaky.degraded:
                assert d.attempts == by_key[(d.slug, d.url)] + 1

    def test_without_retries_the_flaky_web_loses_sites(self, registry,
                                                       flaky_web,
                                                       clean_result):
        crippled = run_survey(
            flaky_web, registry,
            make_config(resilience=ResilienceConfig()),
        )
        failed = crippled.failed_domains("default")
        assert failed, "flaky web measured fine without retries"
        assert all(f.transient for f in failed)
        measured = {
            d: crippled.measurement("default", d).features
            for d in crippled.measured_domains("default")
        }
        clean_total = sum(
            len(clean_result.measurement("default", d).features)
            for d in clean_result.domains
        )
        assert sum(len(f) for f in measured.values()) < clean_total


class TestContentPathologies:
    """Truncated/garbled/stalled sites from the hostile net web."""

    @pytest.fixture(scope="class")
    def net_result(self, registry):
        web = hostile_web(include_poison=False, include_net=True)
        return run_survey(
            web, registry, make_config(budget=chaos_budget()),
        )

    def _measurement(self, result, pathology):
        return result.measurement("default", "%s.chaos" % pathology)

    def test_flaky_site_measured_with_retries(self, net_result):
        m = self._measurement(net_result, "flaky")
        assert m.measured
        assert m.requests_retried > 0

    @pytest.mark.parametrize("pathology", ["trunc", "garbage"])
    def test_damaged_body_degrades_instead_of_failing(self, net_result,
                                                      pathology):
        m = self._measurement(net_result, pathology)
        assert m.measured
        assert m.degraded_resources > 0
        assert m.rounds_degraded == VISITS
        slugs = {d.slug for d in m.degraded}
        assert slugs, "cap swallowed every degraded cause"
        assert all(s.startswith("recovered-html:") for s in slugs)
        for d in m.degraded:
            assert d.url.endswith("%s.chaos/" % pathology)

    def test_stalled_site_fails_its_deadline_budget(self, net_result):
        m = self._measurement(net_result, "slow")
        assert not m.measured
        assert m.budget_cause == "deadline"

    def test_degraded_and_failed_are_disjoint(self, net_result):
        degraded = set(net_result.degraded_domains("default"))
        failed = set(net_result.failed_domains("default"))
        assert not degraded & failed

    def test_control_sites_untouched(self, net_result):
        controls = [d for d in net_result.domains
                    if d.startswith("ok-")]
        assert controls
        for domain in controls:
            m = net_result.measurement("default", domain)
            assert m.measured
            assert m.degraded_resources == 0
            assert m.features


class KillSwitchSource:
    """Hard-crashes the crawl after N completed site-measurements.

    Counts only first-attempt home-page document requests so that the
    resilience layer's retries (attempt >= 2 on the same round) do not
    shift the kill point.
    """

    def __init__(self, inner, kill_after_sites, visits_per_site):
        self._inner = inner
        self._limit = kill_after_sites * visits_per_site
        self._rounds = 0

    def __getattr__(self, name):
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)

    def respond(self, request):
        if (request.kind == ResourceKind.DOCUMENT
                and request.url.path == "/"
                and getattr(request, "attempt", 1) == 1):
            if self._rounds >= self._limit:
                raise KeyboardInterrupt("simulated crash")
            self._rounds += 1
        return self._inner.respond(request)


class TestChaosDeterminism:
    """Backoff + jitter never touch the wall clock, so a budget-limited
    chaos crawl is bit-identical however it is executed."""

    @pytest.fixture(scope="class")
    def chaos_web(self, registry):
        web = build_web(registry, n_sites=8, seed=WEB_SEED)
        slow = web.ranking.all()[3].domain
        source = FaultSource(web, FaultPlan({
            ALL_HOSTS: {"net": ["flaky"]},
            slow: {"net": ["slow"]},
        }))
        return source, slow

    def chaos_config(self, **overrides):
        # Real backoff and jitter (the ResilienceConfig defaults), an
        # extra attempt so delays actually happen, and the reference
        # budget so the slow site fails its deadline — all of it on
        # the virtual clock.
        return make_config(
            resilience=ResilienceConfig(request_attempts=3,
                                        breaker_threshold=5),
            budget=chaos_budget(),
            **overrides,
        )

    @pytest.fixture(scope="class")
    def serial_digest(self, registry, chaos_web):
        source, slow = chaos_web
        result = run_survey(source, registry, self.chaos_config())
        # The pathologies really fired: retries everywhere, one
        # deadline failure — otherwise the equality below is vacuous.
        assert sum(
            result.measurement("default", d).requests_retried
            for d in result.domains
        ) > 0
        causes = {str(f): f.budget_cause
                  for f in result.failed_domains("default")}
        assert causes.get(slow) == "deadline"
        return persistence.survey_digest(result)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_parallel_start_methods_bit_identical(
        self, registry, chaos_web, serial_digest, method
    ):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip("start method %r unavailable" % method)
        result = run_survey(
            chaos_web[0], registry,
            self.chaos_config(workers=2, start_method=method),
        )
        assert persistence.survey_digest(result) == serial_digest

    def test_kill_and_resume_bit_identical(self, registry, chaos_web,
                                           serial_digest, tmp_path):
        run_dir = str(tmp_path / "run")
        killer = KillSwitchSource(chaos_web[0], 3, VISITS)
        with pytest.raises(KeyboardInterrupt):
            run_survey(killer, registry, self.chaos_config(),
                       run_dir=run_dir)
        resumed = resume_survey(
            chaos_web[0], registry, run_dir, self.chaos_config()
        )
        assert persistence.survey_digest(resumed) == serial_digest
