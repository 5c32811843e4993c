"""Process-fault chaos determinism: the fault plan's acceptance matrix.

A parallel crawl under a plan's process faults — worker SIGKILL
mid-fetch, MemoryError at an allocation boundary, garbage and torn
frames on the result pipes, injected fork failures — must finish with
measurement and trace digests bit-identical to a clean run's, across
{fork, spawn} and across a kill+resume boundary, with zero duplicated
site records and exactly one strike per faulted site.  Every fault
arms only on a site's first lease epoch: the supervisor strikes and
re-leases, and the epoch-2 measurement is the one that survives.  The
all-arms cell combines them with network faults and storage faults in
one run.
"""

import json
import multiprocessing
import os

import pytest

from repro import obs
from repro.core import persistence
from repro.core.checkpoint import (
    QUARANTINE_NAME,
    fsck_run_dir,
    load_shard_records,
    shard_name,
)
from repro.core.faults import FaultPlan, FaultSource
from repro.core.sandbox import ResourceBudget
from repro.core.statusreport import run_metrics_digest
from repro.core.storage import FaultyStorage
from repro.core.survey import (
    RetryPolicy,
    SurveyConfig,
    resume_survey,
    run_survey,
)
from repro.core.tracereport import load_trace_records
from repro.net.resilience import ALL_HOSTS, ResilienceConfig
from repro.webgen.sitegen import build_web
from tests.test_net_chaos import KillSwitchSource

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="proc-chaos tests need real worker processes",
)

N_SITES = 6
WEB_SEED = 44
SURVEY_SEED = 21
VISITS = 1
KILL_AFTER_SITES = 3


def proc_config(**overrides):
    settings = dict(
        conditions=("default",),
        visits_per_site=VISITS,
        seed=SURVEY_SEED,
        retry=RetryPolicy(attempts=1, backoff_base=0.0),
        # Limited so every visit is metered: the allocation-boundary
        # fault hook only runs on metered visits.  The cap itself is
        # far above anything the web allocates.
        budget=ResourceBudget(max_allocations=10_000_000),
        workers=2,
        start_method="fork",
        hang_timeout=15.0,
        # ``repro chaos``'s threshold: a second strike on a faulted
        # site quarantines it, and the digests show it.
        quarantine_threshold=2,
        trace=True,
    )
    settings.update(overrides)
    return SurveyConfig(**settings)


def _skip_unless_available(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip("start method %r unavailable" % method)


@pytest.fixture(scope="module")
def clean_web(registry):
    return build_web(registry, n_sites=N_SITES, seed=WEB_SEED)


@pytest.fixture(scope="module")
def fault_domains(clean_web):
    """kill/memerr/garbage/truncate targets, in crawl order.

    The kill and memerr domains sit in the second half of the ranking
    so the kill+resume arm (interrupted after the first three sites)
    still re-dispatches them under chaos.
    """
    ranked = [site.domain for site in clean_web.ranking.all()]
    return {
        "kill": ranked[3],
        "memerr": ranked[4],
        "garbage": ranked[5],
        "truncate": ranked[2],
    }


def make_plan(fault_domains, spawn_failures=2):
    return FaultPlan(
        {
            fault_domains["kill"]: {"proc": ["kill"]},
            fault_domains["memerr"]: {"proc": ["memerr"]},
            fault_domains["garbage"]: {"proc": ["garbage"]},
            fault_domains["truncate"]: {"proc": ["torn"]},
        },
        seed=7,
        spawn_failures=spawn_failures,
    )


@pytest.fixture(scope="module")
def baseline(registry, clean_web, tmp_path_factory):
    """Serial, fault-free reference digests."""
    run_dir = str(tmp_path_factory.mktemp("proc-baseline") / "run")
    result = run_survey(
        clean_web, registry, proc_config(workers=1), run_dir=run_dir
    )
    return {
        "measure": persistence.survey_digest(result),
        "trace": obs.trace_digest(load_trace_records(run_dir)),
    }


def _strikes(run_dir):
    with open(os.path.join(run_dir, QUARANTINE_NAME),
              encoding="utf-8") as handle:
        return json.load(handle)["strikes"]


def _assert_no_duplicate_records(run_dir):
    records, dropped = load_shard_records(
        os.path.join(run_dir, shard_name("default"))
    )
    assert dropped == 0
    domains = [record["domain"] for record in records]
    assert len(domains) == len(set(domains))
    return records


class TestParallelProcChaos:
    @pytest.mark.parametrize("method", ("fork", "spawn"))
    def test_digests_bit_identical_to_clean_run(
        self, registry, clean_web, fault_domains, baseline,
        tmp_path, method
    ):
        _skip_unless_available(method)
        run_dir = str(tmp_path / "run")
        source = FaultSource(clean_web, make_plan(fault_domains))
        result = run_survey(
            source, registry, proc_config(start_method=method),
            run_dir=run_dir,
        )
        assert persistence.survey_digest(result) == baseline["measure"]
        assert (obs.trace_digest(load_trace_records(run_dir))
                == baseline["trace"])
        # The faults genuinely fired, each exactly once: every
        # injection left its typed evidence in the process-fault
        # telemetry, and no innocent site paid for it.
        faults = result.process_faults
        assert faults.get("watchdog_kills", 0) == 1, faults
        assert faults.get("worker_faults", 0) == 1, faults
        assert faults.get("frame_errors", 0) >= 2, faults
        assert faults.get("spawn_retries", 0) == 2, faults
        assert _strikes(run_dir) == {
            fault_domains["kill"]: 1, fault_domains["memerr"]: 1,
        }
        # Exactly-once: no duplicated site records, and fsck agrees
        # (including its lease-epoch section).
        _assert_no_duplicate_records(run_dir)
        ok, lines = fsck_run_dir(run_dir)
        assert ok, lines

    def test_struck_sites_carry_a_re_leased_epoch(
        self, registry, clean_web, fault_domains, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        source = FaultSource(clean_web, make_plan(fault_domains))
        run_survey(
            source, registry, proc_config(), run_dir=run_dir
        )
        records = _assert_no_duplicate_records(run_dir)
        by_domain = {r["domain"]: r for r in records}
        # The killed and memerr'd sites were re-dispatched once: their
        # surviving records carry the second lease, every other site
        # its first.
        with open(os.path.join(run_dir, "leases.json"),
                  encoding="utf-8") as handle:
            leases = json.load(handle)["leases"]["default"]
        struck = {fault_domains["kill"], fault_domains["memerr"]}
        for domain, record in by_domain.items():
            expected = 2 if domain in struck else 1
            assert record["lease_epoch"] == expected, domain
            assert leases[domain] == expected, domain
        # Strikes were charged and persisted, one per fault.
        assert _strikes(run_dir) == dict.fromkeys(struck, 1)


class TestKillResumeProcChaos:
    @pytest.mark.parametrize("method", ("fork", "spawn"))
    def test_resumed_chaos_run_matches_clean_digests(
        self, registry, clean_web, fault_domains, baseline,
        tmp_path, method
    ):
        """Serial crawl killed after 3 sites, resumed under chaos.

        The interrupted half checkpoints normally (proc faults never
        arm outside the supervisor); the resumed half crawls in
        parallel with every fault armed — the combined run dir must
        still be digest-identical to the uninterrupted clean run, and
        contain no duplicates.
        """
        _skip_unless_available(method)
        run_dir = str(tmp_path / "run")
        killer = KillSwitchSource(clean_web, KILL_AFTER_SITES, VISITS)
        with pytest.raises(KeyboardInterrupt):
            run_survey(killer, registry, proc_config(workers=1),
                       run_dir=run_dir)
        # Faults target the two sites whose *first* lease epoch comes
        # after the crash: the interrupted run already leased (and
        # measured, or was killed on) the earlier ones, and epoch 2+
        # dispatches are disarmed by design.
        ranked = [site.domain for site in clean_web.ranking.all()]
        plan = FaultPlan(
            {ranked[4]: {"proc": ["kill"]},
             ranked[5]: {"proc": ["memerr"]}},
            seed=7,
            spawn_failures=2,
        )
        resumed = resume_survey(
            FaultSource(clean_web, plan), registry, run_dir,
            proc_config(start_method=method),
        )
        assert (persistence.survey_digest(resumed)
                == baseline["measure"])
        assert (obs.trace_digest(load_trace_records(run_dir))
                == baseline["trace"])
        faults = resumed.process_faults
        assert faults.get("watchdog_kills", 0) == 1, faults
        assert faults.get("worker_faults", 0) == 1, faults
        assert faults.get("spawn_retries", 0) == 2, faults
        assert _strikes(run_dir) == {ranked[4]: 1, ranked[5]: 1}
        _assert_no_duplicate_records(run_dir)
        ok, lines = fsck_run_dir(run_dir)
        assert ok, lines


class TestSerialInertness:
    def test_plan_wrapped_web_is_inert_without_a_supervisor(
        self, registry, clean_web, fault_domains, baseline, tmp_path
    ):
        """Serial runs never lease workers, so no fault ever arms."""
        run_dir = str(tmp_path / "run")
        source = FaultSource(clean_web, make_plan(fault_domains))
        result = run_survey(
            source, registry, proc_config(workers=1), run_dir=run_dir
        )
        assert persistence.survey_digest(result) == baseline["measure"]
        assert result.process_faults == {}


class TestAllArms:
    """Process, network and storage faults in one plan, one crawl.

    Every request's first wire attempt resets, four sites carry one
    process fault each, two spawns fail and every durable write's
    first attempt faults.  None of it may change what was measured,
    traced or counted: the digests must equal a serial run's with
    only the (digest-visible) network faults armed.
    """

    FLAKY = {ALL_HOSTS: {"net": ["flaky"]}}

    @pytest.fixture(scope="class")
    def web(self, registry):
        return build_web(registry, n_sites=8, seed=WEB_SEED)

    def config(self, **overrides):
        # One retry absorbs the flaky first attempts.
        return proc_config(
            resilience=ResilienceConfig(request_attempts=2), **overrides
        )

    @pytest.fixture(scope="class")
    def flaky_baseline(self, registry, web, tmp_path_factory):
        run_dir = str(tmp_path_factory.mktemp("all-arms") / "run")
        result = run_survey(
            FaultSource(web, FaultPlan(self.FLAKY)), registry,
            self.config(workers=1), run_dir=run_dir,
        )
        return {
            "measure": persistence.survey_digest(result),
            "trace": obs.trace_digest(load_trace_records(run_dir)),
            "metrics": run_metrics_digest(run_dir),
        }

    @pytest.mark.parametrize("method", ("fork", "spawn"))
    def test_every_arm_at_once_leaves_the_digests_alone(
        self, registry, web, flaky_baseline, tmp_path, method
    ):
        _skip_unless_available(method)
        ranked = [site.domain for site in web.ranking.all()]
        kill, memerr, garbage, torn = ranked[1:5]
        plan = FaultPlan(
            {
                **self.FLAKY,
                kill: {"proc": ["kill"]},
                memerr: {"proc": ["memerr"]},
                garbage: {"proc": ["garbage"]},
                torn: {"proc": ["torn"]},
            },
            seed=7,
            spawn_failures=2,
        )
        storage = FaultyStorage(seed=plan.seed)
        run_dir = str(tmp_path / "run")
        result = run_survey(
            FaultSource(web, plan), registry,
            self.config(start_method=method, storage=storage),
            run_dir=run_dir,
        )
        assert (persistence.survey_digest(result)
                == flaky_baseline["measure"])
        assert (obs.trace_digest(load_trace_records(run_dir))
                == flaky_baseline["trace"])
        assert run_metrics_digest(run_dir) == flaky_baseline["metrics"]
        ok, lines = fsck_run_dir(run_dir)
        assert ok, lines
        _assert_no_duplicate_records(run_dir)
        faults = result.process_faults
        assert faults.get("watchdog_kills", 0) == 1, faults
        assert faults.get("spawn_retries", 0) == 2, faults
        assert _strikes(run_dir) == {kill: 1, memerr: 1}
        assert storage.stats["faults_injected"] > 0
        assert storage.stats["faults_unabsorbed"] == 0
