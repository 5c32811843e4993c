"""The crawl supervisor around a worker's exit, driven directly.

A worker that announces its own exit (a typed fault frame, or a
result frame declaring it) must be handed no further site: it would die
holding it and strike a site that did nothing wrong.  A dead worker's
result pipe is read to its end before its site is struck, because the
metrics frame and any pipe noise travel ahead of the result.  And a
struck site goes back to the front of the survey's task queue, ahead
of a later condition's tasks.  Only the last class starts worker
processes: one fleet serves every condition of a survey.
"""

import json
import multiprocessing
import time
from multiprocessing import Pipe

import pytest

from repro.core import ipc
from repro.core.sandbox import MEMORY_PRESSURE_CAUSE
from repro.core.supervisor import _CrawlSupervisor, _send_frame
from repro.core.survey import run_survey
from repro.webgen.sitegen import build_web
from tests.test_lease_fencing import (
    DOMAINS,
    TASKS,
    make_config,
    make_measurement,
    result_item,
)


class FakeProcess:
    def __init__(self, alive=True):
        self.alive = alive
        self.killed = False

    def is_alive(self):
        return self.alive

    def kill(self):
        self.killed = True
        self.alive = False

    def join(self, timeout=None):
        pass


class FakeTasks:
    """A task pipe's send end that records what was dispatched."""

    def __init__(self):
        self.sent = []

    def send(self, task):
        self.sent.append(task)

    def close(self):
        pass


def install_fake_worker(sup, slot, alive=True):
    sup.workers[slot] = FakeProcess(alive)
    sup.task_conns[slot] = FakeTasks()


def make_supervisor(registry, alive=True, tasks=TASKS, **config):
    config.setdefault("workers", 1)
    sup = _CrawlSupervisor(object(), registry, make_config(**config), tasks)
    for slot in range(sup.n_workers):
        install_fake_worker(sup, slot, alive)
    return sup


class TestAnnouncedExit:
    def test_fault_report_ends_dispatch_to_the_slot(self, registry):
        sup = make_supervisor(registry)
        sup._dispatch()
        assert [task[2] for task in sup.task_conns[0].sent] == ["a.test"]
        sup._handle_fault(0, {"cause": "memory-error"})
        sup._dispatch()
        # Still alive until it exits, but no second task: the struck
        # site waits at the front of the queue for a fresh worker.
        assert len(sup.task_conns[0].sent) == 1
        assert [sup.tasks[index][1] for index in sup.todo] == DOMAINS
        assert sup.ledger.local_strikes == {"a.test": 1}

    def test_memory_pressure_result_ends_dispatch_to_the_slot(
        self, registry
    ):
        sup = make_supervisor(registry)
        sup._dispatch()
        index, domain, epoch, _ = sup.assigned[0]
        measurement = make_measurement(domain)
        measurement.budget_cause = MEMORY_PRESSURE_CAUSE
        sup._handle_result(
            0,
            (0, index, domain, epoch, (measurement, None, None, 1, {}),
             True),
        )
        sup._dispatch()
        assert len(sup.task_conns[0].sent) == 1
        assert sup.memory_recycles == 1

    def test_declared_exit_ends_dispatch_without_a_strike(
        self, registry
    ):
        # The governor latched during the site's last page: the
        # measurement carries no cause, but the frame says the worker
        # is leaving.
        sup = make_supervisor(registry)
        sup._dispatch()
        index, domain, epoch, _ = sup.assigned[0]
        sup._handle_result(
            0, result_item(index, domain, epoch, exiting=True)
        )
        sup._dispatch()
        assert len(sup.task_conns[0].sent) == 1
        assert 0 in sup.buffered
        assert sup.memory_recycles == 1
        assert sup.ledger.local_strikes == {}

    def test_lingering_exit_is_reaped_without_a_strike(
        self, registry, monkeypatch
    ):
        sup = make_supervisor(registry, hang_timeout=1.0)
        process = sup.workers[0]
        sup.exiting.add(0)
        sup.heartbeats[0] = time.monotonic() - 10.0
        spawned = []
        monkeypatch.setattr(sup, "_spawn", spawned.append)
        sup._watchdog()
        assert process.killed
        assert spawned == [0]
        assert sup.kills == 0
        assert sup.ledger.local_strikes == {}


class TestLastChanceRead:
    def test_dead_workers_result_behind_metrics_and_noise_lands(
        self, registry
    ):
        sup = make_supervisor(registry, alive=False)
        sup.todo.clear()
        receive, send = Pipe(duplex=False)
        sup.result_conns[0] = receive
        sup.decoders[0] = ipc.FrameDecoder(message_aligned=True)
        epoch = sup.ledger.issue_lease("default", "a.test")
        sup.assigned[0] = (0, "a.test", epoch, time.monotonic())
        _send_frame(send, {"pid": 1, "metrics": {}}, kind=ipc.KIND_METRICS)
        send.send_bytes(b"line noise")
        _send_frame(send, result_item(0, "a.test", epoch))
        send.close()
        sup._watchdog()
        # Measured, so neither killed nor struck.
        assert 0 in sup.buffered
        assert sup.kills == 0
        assert sup.ledger.local_strikes == {}
        assert sup.frame_errors == 1


class TestStrikeRequeue:
    """Strikes count per domain for the whole survey, a struck site is
    the next task dispatched, and a site runs in one worker at a
    time."""

    TWO_CONDITIONS = [
        ("default", "a.test"), ("default", "b.test"),
        ("blocking", "a.test"), ("blocking", "b.test"),
    ]

    def test_struck_site_is_dispatched_before_a_later_condition(
        self, registry, monkeypatch
    ):
        sup = make_supervisor(registry, tasks=self.TWO_CONDITIONS,
                              workers=2, quarantine_threshold=3)
        sup._dispatch()
        assert [sup.assigned[slot][:2] for slot in (0, 1)] == [
            (0, "a.test"), (1, "b.test"),
        ]
        # Slot 0's worker dies holding (default, a.test); the blocking
        # tasks are next in line behind it.
        sup.workers[0].alive = False
        monkeypatch.setattr(
            sup, "_spawn", lambda slot: install_fake_worker(sup, slot)
        )
        sup._watchdog()
        assert sup.kills == 1
        assert sup.ledger.local_strikes == {"a.test": 1}
        assert list(sup.todo) == [0, 2, 3]
        sup._dispatch()
        assert sup.task_conns[0].sent == [(0, "default", "a.test", 2)]

    def test_struck_out_site_is_quarantined_under_later_conditions(
        self, registry, monkeypatch
    ):
        sup = make_supervisor(registry, tasks=self.TWO_CONDITIONS,
                              workers=2, quarantine_threshold=1)
        sup._dispatch()
        sup.workers[0].alive = False
        monkeypatch.setattr(
            sup, "_spawn", lambda slot: install_fake_worker(sup, slot)
        )
        sup._watchdog()
        sup._dispatch()
        # Both of a.test's tasks became quarantine records without a
        # dispatch, each carrying the site's newest epoch.
        assert sorted(sup.buffered) == [0, 2]
        for index, epoch in ((0, 2), (2, 1)):
            measurement, _, recorded, wire = sup.buffered[index]
            assert measurement.budget_cause == "quarantined"
            assert measurement.condition == sup.tasks[index][0]
            assert (recorded, wire) == (epoch, None)
        # b.test is still in flight under the first condition, so its
        # second task waits instead of taking the free slot.
        assert sup.task_conns[0].sent == []
        assert list(sup.todo) == [3]
        _, _, epoch, _ = sup.assigned[1]
        sup._handle_result(1, result_item(1, "b.test", epoch))
        sup._dispatch()
        assert sup.task_conns[0].sent == [(3, "blocking", "b.test", 1)]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the fleet test needs fork workers",
)
class TestOneFleetPerSurvey:
    @pytest.mark.parametrize("conditions", [
        ("default",),
        ("default", "blocking", "abp-only", "ghostery-only"),
    ])
    def test_two_workers_serve_every_condition(
        self, registry, tmp_path, conditions
    ):
        # Every process that ever shipped a snapshot shows up in the
        # final one: the parent and the two workers, at any number of
        # conditions (one fleet per condition made 1 + 2 x conditions).
        run_dir = tmp_path / "run"
        result = run_survey(
            build_web(registry, n_sites=6, seed=44), registry,
            make_config(conditions=conditions, seed=21,
                        start_method="fork"),
            run_dir=str(run_dir),
        )
        assert result.process_faults == {}
        with open(run_dir / "metrics.jsonl", encoding="utf-8") as handle:
            final = [json.loads(line) for line in handle][-1]
        assert final["kind"] == "final"
        procs = {
            series["labels"]["proc"]
            for series in final["metrics"]["series"]
            if series["name"] == "worker_rss_mb"
        }
        assert len(procs) == 3, sorted(procs)
