"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.core.checkpoint import LEASES_NAME
from repro.core.faults import FaultPlan


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_survey_defaults(self):
        args = build_parser().parse_args(["survey"])
        assert args.sites == 150
        assert args.visits == 3
        assert args.report is None
        assert args.run_dir is None
        assert args.resume is False
        assert args.retries == 3
        assert args.retry_backoff == 0.5

    def test_checkpoint_flags(self):
        args = build_parser().parse_args([
            "survey", "--run-dir", "runs/full", "--resume",
            "--retries", "5", "--retry-backoff", "2",
        ])
        assert args.run_dir == "runs/full"
        assert args.resume is True
        assert args.retries == 5
        assert args.retry_backoff == 2.0


class TestCorpusCommand:
    def test_summary(self):
        code, output = run_cli("corpus", "--summary")
        assert code == 0
        assert "features:   1392" in output
        assert "standards:  75" in output

    def test_standard_listing(self):
        code, output = run_cli("corpus", "--standard", "AJAX")
        assert code == 0
        assert "XMLHttpRequest" in output
        assert "XMLHttpRequest.prototype.open" in output

    def test_unknown_standard(self):
        code, output = run_cli("corpus", "--standard", "NOPE")
        assert code == 1
        assert "unknown standard" in output


class TestStandardsCommand:
    def test_full_catalog(self):
        code, output = run_cli("standards")
        assert code == 0
        assert "HTML: Canvas" in output
        assert "Vibration API" in output

    def test_never_used_filter(self):
        code, output = run_cli("standards", "--never-used")
        assert code == 0
        assert "Encrypted Media Extensions" in output
        assert "HTML: Canvas" not in output


class TestCrawlCommands:
    """Small crawls through the CLI: slowish but end-to-end."""

    def test_survey_default_reports(self):
        code, output = run_cli(
            "survey", "--sites", "15", "--visits", "1", "--seed", "4",
        )
        assert code == 0
        assert "Domains measured" in output
        assert "Features instrumented" in output

    def test_survey_named_report(self):
        code, output = run_cli(
            "survey", "--sites", "15", "--visits", "1", "--seed", "4",
            "--report", "figure8",
        )
        assert code == 0
        assert "Standards used" in output

    def test_debloat(self):
        code, output = run_cli(
            "debloat", "--sites", "15", "--visits", "1", "--seed", "4",
        )
        assert code == 0
        assert "CVEs avoided" in output
        assert output.count("Policy:") == 3

    def test_validate(self):
        code, output = run_cli(
            "validate", "--sites", "15", "--visits", "2", "--seed", "4",
        )
        assert code == 0
        assert "Internal validation" in output
        assert "External validation" in output

    def test_save_then_load(self, tmp_path):
        saved = str(tmp_path / "crawl.json")
        code, output = run_cli(
            "survey", "--sites", "12", "--visits", "1", "--seed", "4",
            "--save", saved,
        )
        assert code == 0
        assert "saved survey" in output
        code, output = run_cli(
            "survey", "--load", saved, "--report", "headlines",
        )
        assert code == 0
        assert "Features instrumented" in output

    def test_loaded_survey_skips_unavailable_reports(self, tmp_path):
        saved = str(tmp_path / "crawl.json")
        run_cli("survey", "--sites", "12", "--visits", "1", "--seed", "4",
                "--save", saved)
        code, output = run_cli(
            "survey", "--load", saved, "--report", "figure7",
        )
        assert code == 0
        assert "skipped" in output

    def test_survey_without_blocking_skips_block_rates(
        self, registry, tmp_path
    ):
        """Every surface reading a default-only survey renders what it
        can and names what needs the blocking condition."""
        from repro.core.persistence import save_survey
        from repro.core.survey import SurveyConfig, run_survey
        from repro.webgen.sitegen import build_web

        result = run_survey(
            build_web(registry, n_sites=6, seed=3), registry,
            SurveyConfig(conditions=("default",), visits_per_site=1),
        )
        saved = str(tmp_path / "default-only.json")
        save_survey(result, saved)
        reason = "survey lacks the blocking condition"

        code, output = run_cli("survey", "--load", saved,
                               "--report", "all")
        assert code == 0
        for name in ("table2", "figure4", "figure6"):
            assert "== %s == (skipped: %s)" % (name, reason) in output
        assert "Blocked >90% of the time:     skipped (" + reason \
            in output
        assert "== table1 ==" in output

        for command in ("figures", "export"):
            out_dir = str(tmp_path / command)
            code, output = run_cli(command, "--load", saved,
                                   "--out", out_dir)
            assert code == 0, command
            assert "figure4 skipped: %s" % reason in output
            assert "figure3 -> " in output

        code, output = run_cli("compare", "--load", saved)
        assert code in (0, 1)
        rows = [line.split() for line in output.splitlines()]
        assert ["SKIP", "features", "blocked", ">90%"] in [
            row[:4] for row in rows
        ]
        labels = [row[0] for row in rows if row]
        passing, failing = labels.count("PASS"), labels.count("FAIL")
        assert "%d/%d checks pass (%d skipped)" % (
            passing, passing + failing, labels.count("SKIP")) in output

    def test_export_command(self, tmp_path):
        out_dir = str(tmp_path / "data")
        code, output = run_cli(
            "export", "--sites", "12", "--visits", "1", "--seed", "4",
            "--out", out_dir,
        )
        assert code == 0
        import os

        assert os.path.exists(os.path.join(out_dir, "features.csv"))
        assert os.path.exists(os.path.join(out_dir, "figure7.csv"))

    def test_survey_run_dir_checkpoints(self, tmp_path):
        import os

        run_dir = str(tmp_path / "run")
        code, output = run_cli(
            "survey", "--sites", "10", "--visits", "1", "--seed", "4",
            "--run-dir", run_dir,
        )
        assert code == 0
        # Checkpointed runs surface their crawl health...
        assert "Retried" in output
        # ...and leave a resumable run directory behind.
        assert os.path.exists(os.path.join(run_dir, "manifest.json"))
        assert os.path.exists(
            os.path.join(run_dir, "shard-default.jsonl")
        )
        assert os.path.exists(os.path.join(run_dir, "survey.json"))

    def test_survey_resume_completed_run(self, tmp_path):
        run_dir = str(tmp_path / "run")
        code, first = run_cli(
            "survey", "--sites", "10", "--visits", "1", "--seed", "4",
            "--run-dir", run_dir, "--report", "headlines",
        )
        assert code == 0
        code, second = run_cli(
            "survey", "--sites", "10", "--visits", "1", "--seed", "4",
            "--run-dir", run_dir, "--resume", "--report", "headlines",
        )
        assert code == 0
        assert first == second

    def test_survey_run_dir_refuses_clobber(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_cli("survey", "--sites", "10", "--visits", "1",
                "--seed", "4", "--run-dir", run_dir)
        code, output = run_cli(
            "survey", "--sites", "10", "--visits", "1", "--seed", "4",
            "--run-dir", run_dir,
        )
        assert code == 2
        assert "checkpoint error" in output
        assert "resume" in output

    def test_survey_resume_rejects_other_crawl(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_cli("survey", "--sites", "10", "--visits", "1",
                "--seed", "4", "--run-dir", run_dir)
        code, output = run_cli(
            "survey", "--sites", "10", "--visits", "1", "--seed", "5",
            "--run-dir", run_dir, "--resume",
        )
        assert code == 2
        assert "checkpoint error" in output

    def test_failure_report(self):
        code, output = run_cli(
            "survey", "--sites", "15", "--visits", "1", "--seed", "4",
            "--report", "failures",
        )
        assert code == 0
        # The synthetic web plans some unreachable domains; each failed
        # row carries a cause and an attempt count.
        assert "Cause" in output
        assert "Attempts" in output

    def test_figures_command(self, tmp_path):
        out_dir = str(tmp_path / "figs")
        code, output = run_cli(
            "figures", "--sites", "12", "--visits", "1", "--seed", "4",
            "--out", out_dir,
        )
        assert code == 0
        assert "figure4" in output
        import os

        assert os.path.exists(os.path.join(out_dir, "figure8.svg"))


class TestBudgetFlags:
    def test_defaults_enforce_nothing(self):
        from repro.cli import _budget_from_args

        args = build_parser().parse_args(["survey"])
        assert not _budget_from_args(args).limited
        assert args.hang_timeout == 300.0
        assert args.quarantine_threshold == 3

    def test_flags_reach_the_budget(self):
        from repro.cli import _budget_from_args

        args = build_parser().parse_args([
            "survey", "--deadline", "2.5", "--max-steps", "1000",
            "--max-allocations", "50", "--max-string-bytes", "4096",
            "--max-js-depth", "32", "--max-dom-nodes", "200",
            "--max-page-fetches", "16",
        ])
        budget = _budget_from_args(args)
        assert budget.limited
        assert budget.deadline_seconds == 2.5
        assert budget.max_steps == 1000
        assert budget.max_allocations == 50
        assert budget.max_string_bytes == 4096
        assert budget.max_call_depth == 32
        assert budget.max_dom_nodes == 200
        assert budget.max_fetches_per_page == 16


class TestChaosCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.visits == 2
        assert args.workers == 2
        assert args.hang_timeout == 20.0
        assert args.quarantine_threshold == 2

    def test_serial_smoke_run(self, tmp_path):
        report_path = tmp_path / "failures.txt"
        code, output = run_cli(
            "chaos", "--workers", "1", "--visits", "1",
            "--out", str(report_path),
        )
        assert code == 0
        assert "0 missed" in output
        report = report_path.read_text()
        assert "by cause:" in report
        assert "steps.chaos" in report

    def test_arms_parse_as_a_set(self):
        parser = build_parser()
        assert parser.parse_args(["chaos"]).arms == {"budget"}
        args = parser.parse_args(["chaos", "--arms", "proc,net,proc"])
        assert args.arms == {"proc", "net"}

    @pytest.mark.parametrize("argv", [
        ["--arms", ""], ["--arms", "budget,disk"],
        ["--net"], ["--storage"], ["--proc"],
    ])
    def test_unknown_arms_are_usage_errors(self, argv):
        assert main(["chaos"] + argv) == 2

    @pytest.mark.parametrize("arms", ["storage", "proc"])
    def test_reference_checked_arms_need_a_run_dir(self, arms):
        code, output = run_cli("chaos", "--arms", arms)
        assert code == 2
        assert "--run-dir" in output

    def test_reference_crawl_stays_inside_the_run_dir(self, tmp_path):
        run_dir = tmp_path / "run"
        # A sibling the command must neither read nor write.
        (tmp_path / "run-clean").mkdir()
        (tmp_path / "run-clean" / "manifest.json").write_text("{}")
        code, output = run_cli(
            "chaos", "--arms", "proc,storage", "--visits", "1",
            "--run-dir", str(run_dir),
        )
        assert code == 0, output
        assert "0 missed" in output
        assert "reference.metrics-digest" in output
        assert (run_dir / "reference" / "manifest.json").exists()
        assert (tmp_path / "run-clean" / "manifest.json").read_text() == "{}"
        assert main(["fsck", str(run_dir)]) == 0

    def test_reference_crawl_never_dispatches_quarantined_sites(
        self, tmp_path
    ):
        run_dir = tmp_path / "run"
        code, output = run_cli(
            "chaos", "--arms", "budget,storage", "--visits", "1",
            "--hang-timeout", "2", "--run-dir", str(run_dir),
        )
        assert code == 0, output
        assert "0 missed" in output

        def leases(path):
            with open(path / LEASES_NAME, encoding="utf-8") as handle:
                return json.load(handle)["leases"]["default"]

        # Each dispatch issues a lease, and so does the quarantine
        # record: the faulty run dispatched the poison sites, the
        # reference only recorded the verdicts it was handed.
        for domain in ("hang.chaos", "crash.chaos"):
            assert leases(run_dir)[domain] > 1, domain
            assert leases(run_dir / "reference")[domain] == 1, domain

    def test_reference_measures_a_wrongly_quarantined_site(
        self, tmp_path, monkeypatch
    ):
        # The injected MemoryError fires on the second lease epoch too,
        # so the faulty run strikes the memerr site out (threshold 2),
        # as a supervisor race would.  Only the poison sites are
        # struck out up front in the reference, which measures this
        # one: the digests must tell the two runs apart.
        armed = FaultPlan._armed

        def twice(plan, kind):
            return armed(plan, kind) or (
                kind == "memerr" and plan._epoch == 2
                and kind in plan.kinds(plan._domain, "proc")
            )

        monkeypatch.setattr(FaultPlan, "_armed", twice)
        code, output = run_cli(
            "chaos", "--arms", "proc", "--visits", "1",
            "--start-method", "fork", "--run-dir", str(tmp_path / "run"),
        )
        assert code == 1, output
        rows = {line.split()[0]: line.split()[-1]
                for line in output.splitlines()
                if line.startswith("reference.")}
        assert rows["reference.digest"] == "MISS", output
