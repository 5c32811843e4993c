"""The ``repro status`` / ``repro metrics`` surfaces and the
``metrics.jsonl`` integrity contract.

* both commands are **read-only**: pointed at a live, locked run —
  even one with a torn shard tail — they answer without touching the
  lock or mutating a byte;
* the stable series are derived from the measurement shards, so the
  OpenMetrics exposition agrees with them, a ``--no-metrics`` run has
  the same metrics digest as a metered one, and stable series in an
  old-layout snapshot are ignored rather than added;
* fsck's metrics section catches torn tails (repairing them under
  ``--repair``) and duplicated snapshot seqs;
* a crawl killed mid-run and resumed produces a ``metrics.jsonl``
  whose seqs never duplicate and a stable digest bit-identical to an
  uninterrupted run's — including when the kill is an ``os._exit`` at
  a storage crashpoint inside an append.
"""

import json
import os
import re

import pytest

from repro.core import persistence
from repro.core import storage as storage_mod
from repro.core.checkpoint import (
    METRICS_NAME,
    fsck_report,
    load_metrics_records,
    shard_name,
)
from repro.core.runmetrics import (
    MetricsRegistry,
    merge_snapshots,
    series_value,
)
from repro.core.statusreport import run_metrics_digest
from repro.core.storage import RunLock, Storage
from repro.core.survey import (
    RetryPolicy,
    SurveyConfig,
    resume_survey,
    run_survey,
)
from repro.webgen.sitegen import build_web
from tests.test_cli import run_cli
from tests.test_net_chaos import KillSwitchSource

N_SITES = 4
WEB_SEED = 73
SURVEY_SEED = 37


def metrics_config(**overrides):
    settings = dict(
        conditions=("default",),
        visits_per_site=1,
        seed=SURVEY_SEED,
        retry=RetryPolicy(attempts=1, backoff_base=0.0),
        metrics_interval=0.0,  # snapshot on every recorded site
    )
    settings.update(overrides)
    return SurveyConfig(**settings)


@pytest.fixture(scope="module")
def web(registry):
    return build_web(registry, n_sites=N_SITES, seed=WEB_SEED)


@pytest.fixture(scope="module")
def finished_run(registry, web, tmp_path_factory):
    """A completed, checkpointed, metrics-on crawl."""
    run_dir = str(tmp_path_factory.mktemp("metrics") / "run")
    result = run_survey(
        web, registry, metrics_config(), run_dir=run_dir
    )
    return run_dir, result


OPENMETRICS_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+$"
)


class TestStatusCommand:
    def test_text_dashboard(self, finished_run):
        run_dir, _ = finished_run
        code, output = run_cli("status", run_dir)
        assert code == 0
        assert "progress %d/%d sites (100.0%%)" % (N_SITES, N_SITES) \
            in output
        assert "condition" in output and "measured" in output
        assert "unlocked" in output

    def test_json_view(self, finished_run):
        run_dir, result = finished_run
        code, output = run_cli("status", run_dir, "--format", "json")
        assert code == 0
        status = json.loads(output)
        assert status["status"] == "complete"
        assert status["done_total"] == status["total"] == N_SITES
        assert status["progress_percent"] == 100.0
        assert status["metrics"]["last_kind"] == "final"
        assert not status["lock"]["held"]
        measured = sum(
            1 for m in result.measurements["default"].values()
            if m.measured
        )
        assert (status["by_condition"]["default"]["measured"]
                == measured)

    def test_missing_dir_is_a_usage_error(self, tmp_path):
        code, output = run_cli("status", str(tmp_path / "nope"))
        assert code == 2
        assert "status error" in output

    def test_nonpositive_watch_rejected(self, finished_run):
        run_dir, _ = finished_run
        code, output = run_cli("status", run_dir, "--watch", "0")
        assert code == 2
        assert "usage error" in output

    def test_read_only_against_a_live_locked_run(self, finished_run):
        """Both surfaces work under a held lock and write nothing."""
        run_dir, _ = finished_run
        lock = RunLock.acquire(run_dir)  # this pid: alive and live
        try:
            before = _fingerprint(run_dir)
            for argv in (
                ("status", run_dir),
                ("status", run_dir, "--format", "json"),
                ("metrics", run_dir),
                ("metrics", run_dir, "--format", "json"),
            ):
                code, _ = run_cli(*argv)
                assert code == 0, argv
            code, output = run_cli("status", run_dir)
            assert "locked by live pid" in output
            assert _fingerprint(run_dir) == before
        finally:
            lock.release()

    def test_torn_shard_tail_is_read_not_repaired(self, finished_run,
                                                  tmp_path):
        """A site whose append is in flight is not done, and stays
        on disk exactly as the crawl left it."""
        src, _ = finished_run
        run_dir = str(tmp_path / "run")
        _copy_run(src, run_dir)
        shard = os.path.join(run_dir, shard_name("default"))
        with open(shard, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(shard, "wb") as handle:
            handle.write(b"".join(lines[:-1]) + lines[-1][:40])
        lock = RunLock.acquire(run_dir)
        try:
            before = _fingerprint(run_dir)
            code, output = run_cli("status", run_dir, "--format", "json")
            assert code == 0
            status = json.loads(output)
            code, metrics = run_cli("metrics", run_dir, "--format", "json")
            assert code == 0
            assert run_cli("metrics", run_dir)[0] == 0
            assert run_cli("status", run_dir)[0] == 0
            assert _fingerprint(run_dir) == before
        finally:
            lock.release()
        assert status["done"] == {"default": N_SITES - 1}
        assert status["done_total"] == N_SITES - 1
        assert status["lock"]["live"]
        assert status["by_condition"]["default"]["started"] == N_SITES - 1
        snapshot = json.loads(metrics)["metrics"]
        assert series_value(snapshot, "crawl_sites_started_total",
                            condition="default") == N_SITES - 1

    def test_corrupt_shard_is_named_not_raised(self, finished_run,
                                               tmp_path):
        src, _ = finished_run
        run_dir = str(tmp_path / "run")
        _copy_run(src, run_dir)
        shard = os.path.join(run_dir, shard_name("default"))
        with open(shard, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(shard, "wb") as handle:
            handle.write(b"garbage\n" + b"".join(lines))
        code, output = run_cli("status", run_dir, "--format", "json")
        assert code == 0
        status = json.loads(output)
        assert status["corrupt_shards"] == [shard_name("default")]
        assert status["done_total"] == 0
        code, output = run_cli("status", run_dir)
        assert code == 0 and "corrupt  shard-default.jsonl" in output
        code, output = run_cli("metrics", run_dir)
        assert code == 2 and "checkpoint error" in output


class TestMetricsCommand:
    def test_openmetrics_parses(self, finished_run):
        run_dir, _ = finished_run
        code, output = run_cli("metrics", run_dir)
        assert code == 0
        lines = output.splitlines()
        assert lines[-1] == "# EOF"
        for line in lines[:-1]:
            if line.startswith("#"):
                assert re.match(r"^# (TYPE|HELP) ", line), line
            else:
                assert OPENMETRICS_SAMPLE.match(line), line

    def test_counters_agree_with_the_shards(self, finished_run):
        """The exported totals are the shards' totals, not a race."""
        run_dir, result = finished_run
        code, output = run_cli("metrics", run_dir, "--format", "json")
        assert code == 0
        envelope = json.loads(output)
        assert envelope["kind"] == "final"
        by_series = {}
        for entry in envelope["metrics"]["series"]:
            if entry["labels"] == {"condition": "default"}:
                by_series[entry["name"]] = entry.get("value")
        sites = result.measurements["default"].values()
        assert by_series["crawl_sites_started_total"] == N_SITES
        assert (by_series["crawl_sites_measured_total"]
                == sum(1 for m in sites if m.measured))
        assert (by_series["crawl_pages_visited_total"]
                == sum(m.pages for m in sites))
        assert (by_series["browser_interaction_events_total"]
                == sum(m.interaction_events for m in sites))

    def test_no_snapshots_is_benign(self, registry, web, tmp_path,
                                    finished_run):
        """``--no-metrics`` drops the snapshots, not the stable series."""
        run_dir = str(tmp_path / "run")
        run_survey(web, registry, metrics_config(metrics=False),
                   run_dir=run_dir)
        assert not os.path.exists(os.path.join(run_dir, METRICS_NAME))
        assert run_metrics_digest(run_dir) == run_metrics_digest(
            finished_run[0]
        )
        code, output = run_cli("metrics", run_dir)
        assert code == 0
        assert ('crawl_sites_started_total{condition="default"} %d'
                % N_SITES) in output.splitlines()
        assert "worker_rss_mb" not in output
        code, output = run_cli("status", run_dir, "--format", "json")
        assert code == 0
        status = json.loads(output)
        assert status["done_total"] == N_SITES
        assert status["metrics"]["snapshots"] == 0

    def test_old_layout_snapshot_is_not_double_counted(
        self, finished_run, tmp_path
    ):
        """Stable series in a snapshot written before they were
        derived are ignored: the shards alone decide them."""
        src, _ = finished_run
        run_dir = str(tmp_path / "run")
        _copy_run(src, run_dir)
        digest = run_metrics_digest(run_dir)
        _, expected = run_cli("metrics", run_dir)
        path = os.path.join(run_dir, METRICS_NAME)
        with open(path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert not any(entry["stable"] for record in records
                       for entry in record["metrics"]["series"])
        # The old layout: every snapshot also carried the stable
        # series, here inflated so any use of them shows.
        old = MetricsRegistry()
        for _ in range(3):
            old.inc("crawl_sites_started_total", N_SITES,
                    condition="default")
            old.inc("browser_interaction_events_total", 1000,
                    condition="default")
        for record in records:
            record["metrics"] = merge_snapshots(record["metrics"],
                                                old.snapshot())
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        assert run_metrics_digest(run_dir) == digest
        code, output = run_cli("metrics", run_dir)
        assert code == 0 and output == expected
        code, output = run_cli("status", run_dir, "--format", "json")
        assert json.loads(output)["by_condition"]["default"][
            "started"] == N_SITES

    def test_not_a_run_dir_is_a_usage_error(self, tmp_path):
        code, output = run_cli("metrics", str(tmp_path))
        assert code == 2
        assert "status error" in output


def _fingerprint(run_dir):
    out = {}
    for name in sorted(os.listdir(run_dir)):
        with open(os.path.join(run_dir, name), "rb") as handle:
            out[name] = handle.read()
    return out


def _copy_run(src, dst):
    os.makedirs(dst)
    for name in os.listdir(src):
        with open(os.path.join(src, name), "rb") as handle:
            data = handle.read()
        with open(os.path.join(dst, name), "wb") as handle:
            handle.write(data)


def _metrics_checks(report):
    return [c for c in report["checks"]
            if METRICS_NAME in c["text"]]


class TestFsckMetricsSection:
    def test_clean_run_passes(self, finished_run):
        run_dir, _ = finished_run
        report = fsck_report(run_dir)
        assert report["ok"]
        checks = _metrics_checks(report)
        assert [c["ok"] for c in checks] == [True]
        assert "snapshot(s)" in checks[0]["text"]

    def test_torn_tail_flagged_then_repaired(self, finished_run,
                                             tmp_path):
        src, _ = finished_run
        run_dir = str(tmp_path / "run")
        _copy_run(src, run_dir)
        path = os.path.join(run_dir, METRICS_NAME)
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "snapshot", "seq"')  # torn write
        report = fsck_report(run_dir)
        assert not report["ok"]
        assert any("torn" in c["text"] for c in _metrics_checks(report))
        report = fsck_report(run_dir, repair=True)
        assert report["ok"]
        assert any(r["path"] == METRICS_NAME for r in report["repairs"])
        records, dropped = load_metrics_records(path)
        assert dropped == 0 and records

    def test_duplicate_seq_flagged(self, finished_run, tmp_path):
        src, _ = finished_run
        run_dir = str(tmp_path / "run")
        _copy_run(src, run_dir)
        path = os.path.join(run_dir, METRICS_NAME)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(lines[-1])  # a replayed snapshot seq
        report = fsck_report(run_dir)
        assert not report["ok"]
        assert any("duplicate" in c["text"].lower()
                   for c in _metrics_checks(report))


class TestKillResumeMetrics:
    def test_seqs_continue_without_duplicates(self, registry, web,
                                              tmp_path):
        baseline_dir = str(tmp_path / "baseline")
        run_survey(web, registry, metrics_config(),
                   run_dir=baseline_dir)
        baseline = run_metrics_digest(baseline_dir)

        run_dir = str(tmp_path / "killed")
        killer = KillSwitchSource(web, 2, 1)
        with pytest.raises(KeyboardInterrupt):
            run_survey(killer, registry, metrics_config(),
                       run_dir=run_dir)
        path = os.path.join(run_dir, METRICS_NAME)
        records, _ = load_metrics_records(path)
        assert records, "snapshots from before the kill must survive"
        resume_survey(web, registry, run_dir, metrics_config())
        records, dropped = load_metrics_records(path)
        assert dropped == 0
        seqs = [r["seq"] for r in records]
        assert len(seqs) == len(set(seqs)), "duplicated snapshot seq"
        assert seqs == sorted(seqs)
        assert records[-1]["kind"] == "final"
        assert run_metrics_digest(run_dir) == baseline
        assert fsck_report(run_dir)["ok"]

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="crashpoint kill needs os.fork")
    def test_crashpoint_mid_append_resumes_clean(self, registry, web,
                                                 tmp_path):
        """``os._exit`` inside a torn append never costs a snapshot."""
        baseline_dir = str(tmp_path / "baseline")
        storage_mod.reset_crashpoint_counts()
        result = run_survey(web, registry, metrics_config(),
                            run_dir=baseline_dir)
        counts = storage_mod.crashpoint_counts()
        baseline_measure = persistence.survey_digest(result)
        baseline_metrics = run_metrics_digest(baseline_dir)

        run_dir = str(tmp_path / "crashed")
        point = "append:mid-write"
        # The *last* crossing of the torn-write boundary: with the
        # pump snapshotting after every site, that append is a
        # metrics.jsonl write near the end of the run.
        hit = counts[point]
        pid = os.fork()
        if pid == 0:  # child
            try:
                storage_mod.reset_crashpoint_counts()
                storage_mod.install_crashpoint(point, hit)
                run_survey(web, registry, metrics_config(),
                           run_dir=run_dir, resume=True)
            except BaseException:
                os._exit(97)
            os._exit(96)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status)
        assert (os.WEXITSTATUS(status)
                == storage_mod.CRASHPOINT_EXIT_CODE)

        resumed = resume_survey(web, registry, run_dir,
                                metrics_config())
        assert persistence.survey_digest(resumed) == baseline_measure
        assert run_metrics_digest(run_dir) == baseline_metrics
        records, dropped = load_metrics_records(
            os.path.join(run_dir, METRICS_NAME)
        )
        assert dropped == 0
        seqs = [r["seq"] for r in records]
        assert len(seqs) == len(set(seqs))
        assert fsck_report(run_dir)["ok"]
