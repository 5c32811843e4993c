"""Fenced site leases: epoch issuance, stale-result rejection, fsck.

The checkpoint issues a monotonically increasing lease epoch per
(condition, domain) dispatch; the supervisor rejects any result whose
epoch is no longer current, and ``repro fsck`` audits the surviving
shard records against the lease table after the fact.  These tests
drive each layer directly — no worker processes are spawned.
"""

import json
import os

import pytest

from repro.browser.session import SiteMeasurement
from repro.core.checkpoint import (
    LEASES_NAME,
    SurveyCheckpoint,
    fsck_report,
    fsck_run_dir,
    shard_name,
)
from repro.core.survey import SurveyConfig, _CrawlSupervisor

DOMAINS = ["a.test", "b.test", "c.test"]


def make_config(**kwargs):
    kwargs.setdefault("conditions", ("default",))
    kwargs.setdefault("visits_per_site", 1)
    kwargs.setdefault("seed", 5)
    kwargs.setdefault("workers", 2)
    return SurveyConfig(**kwargs)


def make_measurement(domain, condition="default"):
    measurement = SiteMeasurement(domain=domain, condition=condition)
    measurement.rounds_completed = 1
    measurement.failure_reason = "host not found"
    return measurement


def result_item(index, domain, epoch, pid=123):
    payload = (make_measurement(domain), None, None, pid, {})
    return (0, index, domain, epoch, payload)


class TestLeaseIssuance:
    def test_epochs_are_monotonic_per_site(self, registry, tmp_path):
        checkpoint = SurveyCheckpoint.create(
            str(tmp_path / "run"), registry, make_config(), DOMAINS
        )
        assert checkpoint.lease_epoch("default", "a.test") == 0
        assert checkpoint.issue_lease("default", "a.test") == 1
        assert checkpoint.issue_lease("default", "a.test") == 2
        assert checkpoint.issue_lease("default", "b.test") == 1
        assert checkpoint.lease_epoch("default", "a.test") == 2
        checkpoint.close()

    def test_epochs_are_durable_across_resume(self, registry, tmp_path):
        run_dir = str(tmp_path / "run")
        config = make_config()
        checkpoint = SurveyCheckpoint.create(
            run_dir, registry, config, DOMAINS
        )
        checkpoint.issue_lease("default", "a.test")
        checkpoint.issue_lease("default", "a.test")
        checkpoint.close()
        # A resumed run must continue the sequence, never restart it —
        # a late result from before the crash still has to be stale.
        reopened = SurveyCheckpoint.open(
            run_dir, registry, config, DOMAINS
        )
        assert reopened.lease_epoch("default", "a.test") == 2
        assert reopened.issue_lease("default", "a.test") == 3
        reopened.close()

    def test_lease_table_is_persisted_as_json(self, registry, tmp_path):
        run_dir = str(tmp_path / "run")
        checkpoint = SurveyCheckpoint.create(
            run_dir, registry, make_config(), DOMAINS
        )
        checkpoint.issue_lease("default", "b.test")
        checkpoint.close()
        with open(os.path.join(run_dir, LEASES_NAME),
                  encoding="utf-8") as handle:
            assert json.load(handle) == {
                "leases": {"default": {"b.test": 1}}
            }


class TestSupervisorFencing:
    """Drive ``_handle_result`` directly — the fence itself."""

    def make_supervisor(self, registry, pending=DOMAINS):
        return _CrawlSupervisor(
            object(), registry, make_config(), "default", list(pending)
        )

    def test_stale_epoch_result_is_rejected(self, registry):
        sup = self.make_supervisor(registry)
        first = sup._issue_lease("a.test")
        second = sup._issue_lease("a.test")  # straggler re-leased
        assert (first, second) == (1, 2)
        sup._handle_result(0, result_item(0, "a.test", first))
        assert sup.stale_results == 1
        assert sup.buffered == {}
        assert sup.finished == set()

    def test_current_epoch_result_is_accepted(self, registry):
        sup = self.make_supervisor(registry)
        sup._issue_lease("a.test")
        epoch = sup._issue_lease("a.test")
        sup._handle_result(0, result_item(0, "a.test", epoch))
        assert sup.stale_results == 0
        assert sup.finished == {0}
        measurement, trace, recorded, wire = sup.buffered[0]
        assert measurement.domain == "a.test"
        assert recorded == epoch

    def test_duplicate_index_is_dropped_after_acceptance(self, registry):
        # The race the fence cannot see: a struck worker's result was
        # already in the pipe under the *current* epoch when the site
        # was re-dispatched.  The finished-index set dedupes it.
        sup = self.make_supervisor(registry)
        epoch = sup._issue_lease("a.test")
        sup._handle_result(0, result_item(0, "a.test", epoch))
        sup._handle_result(1, result_item(0, "a.test", epoch, pid=456))
        assert sup.finished == {0}
        assert len(sup.buffered) == 1

    def test_unfenced_result_passes(self, registry):
        # Serial-era payloads carry no epoch; the fence must not
        # reject what was never leased.
        sup = self.make_supervisor(registry)
        sup._handle_result(0, result_item(0, "a.test", None))
        assert sup.stale_results == 0
        assert sup.finished == {0}

    def test_fenced_supervisor_uses_checkpoint_leases(
        self, registry, tmp_path
    ):
        checkpoint = SurveyCheckpoint.create(
            str(tmp_path / "run"), registry, make_config(), DOMAINS
        )
        sup = _CrawlSupervisor(
            object(), registry, make_config(), "default",
            list(DOMAINS), checkpoint=checkpoint,
        )
        assert sup._issue_lease("a.test") == 1
        assert checkpoint.lease_epoch("default", "a.test") == 1
        assert sup._current_lease("a.test") == 1
        checkpoint.close()


class TestFsckLeaseSection:
    def write_run(self, registry, tmp_path, records, leases=None):
        """A run dir whose shard holds ``records`` (domain, epoch)."""
        run_dir = str(tmp_path / "run")
        checkpoint = SurveyCheckpoint.create(
            run_dir, registry, make_config(), DOMAINS
        )
        for domain, epoch in records:
            if leases is None:
                while checkpoint.lease_epoch("default", domain) < epoch:
                    checkpoint.issue_lease("default", domain)
            checkpoint.append(
                make_measurement(domain), lease_epoch=epoch
            )
        if leases is not None:
            for domain, epoch in leases:
                while checkpoint.lease_epoch("default", domain) < epoch:
                    checkpoint.issue_lease("default", domain)
        checkpoint.close()
        return run_dir

    def test_consistent_epochs_pass(self, registry, tmp_path):
        run_dir = self.write_run(registry, tmp_path, [
            ("a.test", 1),
            ("b.test", 1),
            ("b.test", 2),  # re-leased; the later record survives
        ])
        ok, lines = fsck_run_dir(run_dir)
        assert ok, lines
        assert any("lease epochs consistent" in line for line in lines)

    def test_stale_survivor_is_flagged(self, registry, tmp_path):
        # The duplicate's *last* record carries the superseded epoch:
        # a replaced worker's late write shadowed the re-leased one.
        run_dir = self.write_run(registry, tmp_path, [
            ("b.test", 2),
            ("b.test", 1),
        ], leases=[("b.test", 2)])
        report = fsck_report(run_dir)
        assert not report["ok"]
        bad = [c["text"] for c in report["checks"] if not c["ok"]]
        assert any("stale lease epoch survives" in text for text in bad)
        ok, _ = fsck_run_dir(run_dir)
        assert not ok

    def test_over_issued_epoch_is_flagged(self, registry, tmp_path):
        # The shard claims an epoch the lease table never issued.
        run_dir = self.write_run(registry, tmp_path, [
            ("a.test", 5),
        ], leases=[("a.test", 1)])
        report = fsck_report(run_dir)
        assert not report["ok"]
        bad = [c["text"] for c in report["checks"] if not c["ok"]]
        assert any("never issued" in text for text in bad)

    def test_malformed_epoch_is_flagged(self, registry, tmp_path):
        run_dir = self.write_run(registry, tmp_path, [("a.test", 1)])
        shard = os.path.join(run_dir, shard_name("default"))
        with open(shard, encoding="utf-8") as handle:
            record = json.loads(handle.readline())
        record["lease_epoch"] = -3
        with open(shard, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        report = fsck_report(run_dir)
        assert not report["ok"]
        bad = [c["text"] for c in report["checks"] if not c["ok"]]
        assert any("malformed lease_epoch" in text for text in bad)

    def test_unfenced_run_is_not_validated(self, registry, tmp_path):
        # Serial runs without leases predate fencing: no lease file,
        # no epochs on records, nothing to audit.
        run_dir = str(tmp_path / "run")
        checkpoint = SurveyCheckpoint.create(
            run_dir, registry, make_config(), DOMAINS
        )
        checkpoint.append(make_measurement("a.test"))
        checkpoint.close()
        ok, lines = fsck_run_dir(run_dir)
        assert ok, lines
        assert not any("lease" in line for line in lines)
