"""The execution-mode determinism matrix.

One table of guarantees, enforced exhaustively:

    {serial, fork, spawn, kill+resume} x {chaos off, chaos on}
                                       x {tracing off, tracing on}

* the **measurement digest** is identical across every cell of a
  chaos arm — worker count, start method, crash/resume boundaries and
  the tracer itself never change what was measured;
* the **structural trace digest** is identical across every traced
  cell of a chaos arm — span names, attributes, nesting and
  virtual-clock timestamps are execution-mode independent;
* the **stable metrics digest** (the stable series derived from the
  run's shards) is identical across every cell of a chaos arm —
  counters are a function of the recorded site set, not of the
  process topology that produced it;
* tracing off writes no trace shards at all;
* a different survey seed produces *different* digests (the oracle
  can actually fail);
* resuming a checkpoint with tracing toggled is refused — half-traced
  runs would silently produce partial traces.
"""

import multiprocessing

import pytest

from repro import obs
from repro.core import persistence
from repro.core.checkpoint import CheckpointError, trace_shard_name
from repro.core.survey import (
    RetryPolicy,
    SurveyConfig,
    resume_survey,
    run_survey,
)
from repro.core.statusreport import run_metrics_digest
from repro.core.tracereport import load_trace_records
from repro.net.chaos import ChaosSource
from repro.net.resilience import ALL_HOSTS, ResilienceConfig
from repro.webgen.hostile import chaos_budget
from repro.webgen.sitegen import build_web
from tests.test_net_chaos import KillSwitchSource

N_SITES = 6
WEB_SEED = 44
SURVEY_SEED = 21
VISITS = 1
KILL_AFTER_SITES = 3

CHAOS_ARMS = (False, True)
PARALLEL_METHODS = ("fork", "spawn")


def matrix_config(chaos, tracing, **overrides):
    settings = dict(
        conditions=("default",),
        visits_per_site=VISITS,
        seed=SURVEY_SEED,
        retry=RetryPolicy(attempts=1, backoff_base=0.0),
        trace=tracing,
    )
    if chaos:
        # Real backoff/jitter plus the reference budget: retries and
        # the slow site's deadline all run on the virtual clock.
        settings["resilience"] = ResilienceConfig(
            request_attempts=3, breaker_threshold=5
        )
        settings["budget"] = chaos_budget()
    else:
        settings["resilience"] = ResilienceConfig()
    settings.update(overrides)
    return SurveyConfig(**settings)


def _skip_unless_available(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip("start method %r unavailable" % method)


def _assert_no_trace_shards(run_dir):
    import os

    assert not os.path.exists(
        os.path.join(run_dir, trace_shard_name("default"))
    )


@pytest.fixture(scope="module")
def clean_web(registry):
    return build_web(registry, n_sites=N_SITES, seed=WEB_SEED)


@pytest.fixture(scope="module")
def chaos_source(clean_web):
    """Every request flaky, one site stalled past any deadline."""
    slow = clean_web.ranking.all()[3].domain
    return ChaosSource(
        clean_web,
        flaky_domains=(ALL_HOSTS,),
        slow_domains=(slow,),
        slow_seconds=45.0,
    )


@pytest.fixture(scope="module")
def baselines(registry, clean_web, chaos_source, tmp_path_factory):
    """Serial reference digests for every (chaos, tracing) cell."""
    out = {}
    for chaos in CHAOS_ARMS:
        source = chaos_source if chaos else clean_web
        for tracing in (False, True):
            run_dir = str(
                tmp_path_factory.mktemp("baseline") / "run"
            )
            result = run_survey(
                source, registry, matrix_config(chaos, tracing),
                run_dir=run_dir,
            )
            cell = {
                "measure": persistence.survey_digest(result),
                "metrics": run_metrics_digest(run_dir),
            }
            if tracing:
                records = load_trace_records(run_dir)
                assert len(records) == N_SITES
                cell["trace"] = obs.trace_digest(records)
            else:
                _assert_no_trace_shards(run_dir)
            out[(chaos, tracing)] = cell
    return out


class TestSerialBaselines:
    def test_tracing_does_not_change_what_was_measured(self, baselines):
        for chaos in CHAOS_ARMS:
            assert (baselines[(chaos, False)]["measure"]
                    == baselines[(chaos, True)]["measure"]), chaos

    def test_tracing_does_not_change_the_metrics(self, baselines):
        for chaos in CHAOS_ARMS:
            assert (baselines[(chaos, False)]["metrics"]
                    == baselines[(chaos, True)]["metrics"]), chaos

    def test_chaos_arm_really_differs_from_clean(self, baselines):
        # The two arms must be distinct surveys or the matrix proves
        # half of what it claims.
        assert (baselines[(False, True)]["measure"]
                != baselines[(True, True)]["measure"])
        assert (baselines[(False, True)]["trace"]
                != baselines[(True, True)]["trace"])
        assert (baselines[(False, True)]["metrics"]
                != baselines[(True, True)]["metrics"])

    def test_chaos_trace_records_the_pathologies(
        self, registry, chaos_source, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        run_survey(chaos_source, registry,
                   matrix_config(chaos=True, tracing=True),
                   run_dir=run_dir)
        names = set()

        def collect(node):
            names.add(node["name"])
            for child in node.get("children", ()):
                collect(child)

        for record in load_trace_records(run_dir):
            collect(record["trace"])
        assert "net:retry" in names
        assert "budget-exhausted" in names


class TestParallelCells:
    @pytest.mark.parametrize("method", PARALLEL_METHODS)
    @pytest.mark.parametrize("chaos", CHAOS_ARMS)
    def test_traced_parallel_matches_serial(
        self, registry, clean_web, chaos_source, baselines,
        tmp_path, method, chaos
    ):
        _skip_unless_available(method)
        source = chaos_source if chaos else clean_web
        run_dir = str(tmp_path / "run")
        result = run_survey(
            source, registry,
            matrix_config(chaos, tracing=True, workers=2,
                          start_method=method),
            run_dir=run_dir,
        )
        cell = baselines[(chaos, True)]
        assert persistence.survey_digest(result) == cell["measure"]
        assert (obs.trace_digest(load_trace_records(run_dir))
                == cell["trace"])
        assert run_metrics_digest(run_dir) == cell["metrics"]

    @pytest.mark.parametrize("method", PARALLEL_METHODS)
    @pytest.mark.parametrize("chaos", CHAOS_ARMS)
    def test_untraced_parallel_matches_serial(
        self, registry, clean_web, chaos_source, baselines,
        tmp_path, method, chaos
    ):
        _skip_unless_available(method)
        source = chaos_source if chaos else clean_web
        run_dir = str(tmp_path / "run")
        result = run_survey(
            source, registry,
            matrix_config(chaos, tracing=False, workers=2,
                          start_method=method),
            run_dir=run_dir,
        )
        assert (persistence.survey_digest(result)
                == baselines[(chaos, False)]["measure"])
        assert (run_metrics_digest(run_dir)
                == baselines[(chaos, False)]["metrics"])
        _assert_no_trace_shards(run_dir)


class TestKillResumeCells:
    def _kill_and_resume(self, registry, source, tracing, chaos,
                         run_dir):
        killer = KillSwitchSource(source, KILL_AFTER_SITES, VISITS)
        with pytest.raises(KeyboardInterrupt):
            run_survey(killer, registry,
                       matrix_config(chaos, tracing),
                       run_dir=run_dir)
        return resume_survey(
            source, registry, run_dir, matrix_config(chaos, tracing)
        )

    @pytest.mark.parametrize("tracing", (False, True))
    @pytest.mark.parametrize("chaos", CHAOS_ARMS)
    def test_kill_resume_matches_serial(
        self, registry, clean_web, chaos_source, baselines,
        tmp_path, chaos, tracing
    ):
        source = chaos_source if chaos else clean_web
        run_dir = str(tmp_path / "run")
        resumed = self._kill_and_resume(
            registry, source, tracing, chaos, run_dir
        )
        cell = baselines[(chaos, tracing)]
        assert persistence.survey_digest(resumed) == cell["measure"]
        assert run_metrics_digest(run_dir) == cell["metrics"]
        if tracing:
            assert (obs.trace_digest(load_trace_records(run_dir))
                    == cell["trace"])
        else:
            _assert_no_trace_shards(run_dir)

    def test_resume_with_tracing_toggled_is_refused(
        self, registry, clean_web, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        killer = KillSwitchSource(clean_web, KILL_AFTER_SITES, VISITS)
        with pytest.raises(KeyboardInterrupt):
            run_survey(killer, registry,
                       matrix_config(chaos=False, tracing=True),
                       run_dir=run_dir)
        with pytest.raises(CheckpointError, match="tracing"):
            resume_survey(
                clean_web, registry, run_dir,
                matrix_config(chaos=False, tracing=False),
            )


class TestEngineEquivalence:
    """The tree-walking oracle joins the matrix.

    The baselines crawl with the default compiled engine; a serial
    tree-walker run must land on the same measurement and trace
    digests for both chaos arms.  Transitively with the cells above,
    that pins tree == compiled across serial/fork/spawn and
    kill+resume, chaos on and off.
    """

    @pytest.mark.parametrize("chaos", CHAOS_ARMS)
    def test_tree_engine_matches_compiled_baselines(
        self, registry, clean_web, chaos_source, baselines,
        tmp_path, chaos
    ):
        source = chaos_source if chaos else clean_web
        run_dir = str(tmp_path / "run")
        result = run_survey(
            source, registry,
            matrix_config(chaos, tracing=True, engine="tree"),
            run_dir=run_dir,
        )
        cell = baselines[(chaos, True)]
        assert persistence.survey_digest(result) == cell["measure"]
        assert (obs.trace_digest(load_trace_records(run_dir))
                == cell["trace"])
        assert run_metrics_digest(run_dir) == cell["metrics"]


class TestSeedSensitivity:
    def test_different_seed_changes_both_digests(
        self, registry, clean_web, baselines, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        result = run_survey(
            clean_web, registry,
            matrix_config(chaos=False, tracing=True,
                          seed=SURVEY_SEED + 1),
            run_dir=run_dir,
        )
        cell = baselines[(False, True)]
        assert persistence.survey_digest(result) != cell["measure"]
        assert run_metrics_digest(run_dir) != cell["metrics"]
        assert (obs.trace_digest(load_trace_records(run_dir))
                != cell["trace"])
