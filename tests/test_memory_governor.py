"""Memory-pressure governance: the RSS watchdog and graceful degrade.

The :class:`MemoryGovernor` is a latch polled on the worker heartbeat;
the crawler checks it at page boundaries and ends the visit with a
structured ``memory-pressure`` cause rather than letting the process
balloon.  These tests cover the latch itself, the heartbeat coupling,
the serial degrade path, and the parallel recycle-and-strike path.
"""

import json
import multiprocessing
import os

import pytest

from repro.core import persistence, sandbox
from repro.core.checkpoint import QUARANTINE_NAME
from repro.core.sandbox import (
    MEMORY_PRESSURE_CAUSE,
    BudgetExceeded,
    MemoryGovernor,
    ResourceBudget,
    current_memory_governor,
    heartbeat,
    set_memory_governor,
)
from repro.core.survey import RetryPolicy, SurveyConfig, run_survey
from repro.webgen.sitegen import build_web

N_SITES = 3
WEB_SEED = 17
SURVEY_SEED = 9


def make_config(**overrides):
    settings = dict(
        conditions=("default",),
        visits_per_site=1,
        seed=SURVEY_SEED,
        retry=RetryPolicy(attempts=1, backoff_base=0.0),
        workers=1,
    )
    settings.update(overrides)
    return SurveyConfig(**settings)


@pytest.fixture(scope="module")
def small_web(registry):
    return build_web(registry, n_sites=N_SITES, seed=WEB_SEED)


@pytest.fixture(autouse=True)
def no_leaked_governor():
    yield
    set_memory_governor(None)


class TestGovernorLatch:
    def test_latches_only_past_the_ceiling(self):
        readings = iter([50.0, 150.0])
        governor = MemoryGovernor(100.0, probe=lambda: next(readings))
        assert governor.poll() is False
        assert not governor.pressured
        assert governor.poll() is True
        assert governor.pressured
        assert governor.rss_mb == 150.0

    def test_latch_is_sticky_and_stops_probing(self):
        calls = []

        def probe():
            calls.append(True)
            return 999.0

        governor = MemoryGovernor(10.0, probe=probe)
        assert governor.poll() is True
        assert governor.poll() is True  # latched: no re-probe
        assert len(calls) == 1

    def test_pressure_exception_is_typed(self):
        governor = MemoryGovernor(100.0, probe=lambda: 150.0)
        governor.poll()
        error = governor.pressure()
        assert isinstance(error, BudgetExceeded)
        assert error.cause == MEMORY_PRESSURE_CAUSE
        assert error.failure_reason.startswith("memory-pressure:")
        assert error.limit == 100.0
        assert error.used == 150.0
        assert error.overshoot == pytest.approx(1.5)

    def test_heartbeat_polls_the_installed_governor(self):
        governor = MemoryGovernor(10.0, probe=lambda: 64.0)
        set_memory_governor(governor)
        assert not governor.pressured
        heartbeat()
        assert governor.pressured

    def test_heartbeat_without_a_governor_is_a_noop(self):
        set_memory_governor(None)
        heartbeat()  # must not raise
        assert current_memory_governor() is None

    def test_default_probe_reports_a_real_high_water(self):
        pytest.importorskip("resource")
        assert sandbox._default_rss_probe() > 0.0


class TestSerialGovernance:
    def test_pressured_run_degrades_every_site_gracefully(
        self, registry, small_web, monkeypatch
    ):
        # The probe always reads past the ceiling: the first heartbeat
        # latches, the in-flight page finishes, and every measurement
        # carries the structured cause instead of an OOM kill.
        monkeypatch.setattr(sandbox, "_default_rss_probe",
                            lambda: 512.0)
        result = run_survey(
            small_web, registry, make_config(max_worker_rss_mb=256.0)
        )
        measured = result.measurements["default"]
        assert len(measured) == N_SITES
        for measurement in measured.values():
            assert (measurement.budget_cause
                    == MEMORY_PRESSURE_CAUSE), measurement.domain
        # The run-scoped governor never leaks into the caller.
        assert current_memory_governor() is None

    def test_unpressured_governor_is_digest_invisible(
        self, registry, small_web, monkeypatch
    ):
        monkeypatch.setattr(sandbox, "_default_rss_probe",
                            lambda: 16.0)
        governed = run_survey(
            small_web, registry, make_config(max_worker_rss_mb=256.0)
        )
        plain = run_survey(small_web, registry, make_config())
        assert (persistence.survey_digest(governed)
                == persistence.survey_digest(plain))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel governance test needs fork workers",
)
class TestParallelGovernance:
    def _crawl_pressured(self, registry, small_web, tmp_path, method,
                         ceiling):
        run_dir = str(tmp_path / "run")
        result = run_survey(
            small_web, registry, make_config(
                workers=2, start_method=method, hang_timeout=15.0,
                max_worker_rss_mb=ceiling, quarantine_threshold=10,
                budget=ResourceBudget(max_allocations=10_000_000),
            ),
            run_dir=run_dir,
        )
        measured = result.measurements["default"]
        assert len(measured) == N_SITES
        for measurement in measured.values():
            assert (measurement.budget_cause
                    == MEMORY_PRESSURE_CAUSE), measurement.domain
        faults = result.process_faults
        assert faults.get("memory_recycles") == N_SITES, faults
        # A recycling worker announced its exit with its result: no
        # site may be dispatched to it, die with it and strike.
        assert faults.get("watchdog_kills", 0) == 0, faults
        with open(os.path.join(run_dir, QUARANTINE_NAME),
                  encoding="utf-8") as handle:
            strikes = json.load(handle)["strikes"]
        assert strikes == dict.fromkeys(measured, 1)

    def test_pressured_workers_recycle_and_strike(
        self, registry, small_web, monkeypatch, tmp_path
    ):
        # Fork workers inherit the patched probe; each one latches on
        # its first site, ships the partial measurement, and exits —
        # the supervisor strikes the site, counts the recycle, and
        # respawns a fresh worker for the remaining sites.
        monkeypatch.setattr(sandbox, "_default_rss_probe",
                            lambda: 512.0)
        self._crawl_pressured(registry, small_web, tmp_path, "fork",
                              256.0)

    def test_pressured_spawn_workers_recycle_and_strike(
        self, registry, small_web, tmp_path
    ):
        # Spawn workers re-import the real probe, whose high-water mark
        # always exceeds a 1 MB ceiling.
        pytest.importorskip("resource")
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("start method 'spawn' unavailable")
        self._crawl_pressured(registry, small_web, tmp_path, "spawn",
                              1.0)
