"""Supervisor watchdog + poison-site quarantine, end to end.

The hostile web's ``hang.chaos`` site blocks a worker mid-fetch and
``crash.chaos`` takes its worker process down outright.  The parallel
supervisor must notice both (stale heartbeat / dead process), kill and
respawn the worker, strike the site, and after ``quarantine_threshold``
strikes stop dispatching it forever — recording a deterministic
quarantined failure while every other site still gets measured.

These tests need real worker processes, so they run only where fork is
available (spawn coverage for the same machinery lives in the chaos
determinism tests and the CI chaos smoke job).
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.core.checkpoint import QUARANTINE_NAME, SurveyCheckpoint
from repro.core.faults import FaultPlan, FaultSource
from repro.core.sandbox import QUARANTINE_CAUSE
from repro.core.survey import RetryPolicy, SurveyConfig, run_survey
from repro.webgen.hostile import (
    BUDGET_PATHOLOGIES,
    EXPECTED_CAUSES,
    HostileWeb,
    chaos_budget,
    hostile_web,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="watchdog tests need fork workers",
)

VISITS = 2
THRESHOLD = 2


def watchdog_config(**overrides):
    settings = dict(
        conditions=("default",),
        visits_per_site=VISITS,
        seed=424,
        budget=chaos_budget(),
        retry=RetryPolicy(attempts=1, backoff_base=0.0),
        workers=2,
        start_method="fork",
        hang_timeout=1.5,
        quarantine_threshold=THRESHOLD,
    )
    settings.update(overrides)
    return SurveyConfig(**settings)


@pytest.fixture(scope="module")
def poison_run(registry, tmp_path_factory):
    """One supervised crawl over the fully armed hostile web."""
    run_dir = str(tmp_path_factory.mktemp("watchdog") / "run")
    started = time.perf_counter()
    result = run_survey(
        hostile_web(include_poison=True), registry, watchdog_config(),
        run_dir=run_dir,
    )
    return result, run_dir, time.perf_counter() - started


class TestWatchdogQuarantine:
    def test_run_completes_despite_poison_sites(self, poison_run):
        result, _, elapsed = poison_run
        # Every domain got *some* record; nothing hung the supervisor.
        assert set(result.measurements["default"]) == set(result.domains)
        # The hang site sleeps for an hour per request; finishing in
        # seconds proves the watchdog (not the sleep) ended it.
        assert elapsed < 120

    @pytest.mark.parametrize("domain", ["hang.chaos", "crash.chaos"])
    def test_poison_sites_get_deterministic_quarantine_records(
        self, poison_run, domain
    ):
        result, _, _ = poison_run
        m = result.measurement("default", domain)
        assert not m.measured
        assert m.budget_cause == QUARANTINE_CAUSE
        assert m.failure_reason.startswith(QUARANTINE_CAUSE)
        assert not m.transient_failure
        # attempts == threshold: the site was never retried past it.
        assert m.attempts == THRESHOLD

    def test_strikes_persisted_exactly_at_threshold(self, poison_run):
        _, run_dir, _ = poison_run
        path = os.path.join(run_dir, QUARANTINE_NAME)
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as handle:
            strikes = json.load(handle)["strikes"]
        # Exactly the threshold: once quarantined, the supervisor must
        # never have dispatched (and so never struck) the site again.
        assert strikes["hang.chaos"] == THRESHOLD
        assert strikes["crash.chaos"] == THRESHOLD
        assert set(strikes) == {"hang.chaos", "crash.chaos"}

    def test_neighbors_still_measured_and_budgeted(self, poison_run):
        result, _, _ = poison_run
        for domain in result.domains:
            if domain.startswith("ok-"):
                m = result.measurement("default", domain)
                assert m.rounds_ok == VISITS, domain
        for pathology in BUDGET_PATHOLOGIES:
            m = result.measurement("default", "%s.chaos" % pathology)
            assert m.budget_cause == EXPECTED_CAUSES[pathology]

    def test_quarantined_failures_reach_the_report(self, poison_run):
        from repro.core.reporting import failure_report_text

        result, _, _ = poison_run
        report = failure_report_text(result)
        assert "quarantined: 2 sites" in report


class TestQuarantineOnResume:
    def test_resume_never_redispatches_quarantined_sites(
        self, registry, tmp_path
    ):
        """A resumed run must pre-filter quarantined domains.

        The checkpoint already carries threshold strikes for the armed
        hang site, and the resumed crawl runs *serially* — if the
        pre-filter failed and the site were dispatched, this test would
        sit in the hang (2s per round) instead of matching the records
        a live quarantine synthesizes.
        """
        run_dir = str(tmp_path / "poisoned")
        config = watchdog_config(workers=1)
        web = HostileWeb(include_poison=True)
        domains = [s.domain for s in web.ranking.all()]
        checkpoint = SurveyCheckpoint.attach(
            run_dir, registry, config, domains
        )
        for _ in range(THRESHOLD):
            checkpoint.add_strike("hang.chaos")
            checkpoint.add_strike("crash.chaos")
        checkpoint.close()

        armed = FaultSource(web, FaultPlan(
            {"hang.chaos": {"net": ["hang"]}}, hang_seconds=2.0
        ))
        started = time.perf_counter()
        result = run_survey(
            armed, registry, config, run_dir=run_dir, resume=True
        )
        elapsed = time.perf_counter() - started
        for domain in ("hang.chaos", "crash.chaos"):
            m = result.measurement("default", domain)
            assert m.budget_cause == QUARANTINE_CAUSE
            assert m.attempts == THRESHOLD
        # 2 rounds x 2s of hang would show if the site were crawled.
        assert elapsed < 3.5
        # The benign/budget sites were still crawled normally.
        assert result.measurement("default", "ok-1.chaos").measured
