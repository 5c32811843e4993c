"""The crawl supervisor around a worker's exit, driven directly.

A worker that announces its own exit (a typed fault frame, or a
result frame declaring it) must be handed no further site: it would die
holding it and strike a site that did nothing wrong.  And a dead
worker's result pipe is read to its end before its site is struck,
because the metrics frame and any pipe noise travel ahead of the
result.  No worker processes are spawned.
"""

import time
from collections import deque
from multiprocessing import Pipe

from repro.core import ipc
from repro.core.sandbox import MEMORY_PRESSURE_CAUSE
from repro.core.survey import _CrawlSupervisor, _send_frame
from tests.test_lease_fencing import (
    DOMAINS,
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


def make_supervisor(registry, alive=True, **config):
    config.setdefault("workers", 1)
    sup = _CrawlSupervisor(
        object(), registry, make_config(**config), "default",
        list(DOMAINS),
    )
    sup.workers[0] = FakeProcess(alive)
    sup.task_conns[0] = FakeTasks()
    return sup


class TestAnnouncedExit:
    def test_fault_report_ends_dispatch_to_the_slot(self, registry):
        sup = make_supervisor(registry)
        todo = deque(enumerate(DOMAINS))
        sup._dispatch(todo)
        assert [task[1] for task in sup.task_conns[0].sent] == ["a.test"]
        sup._handle_fault(0, {"cause": "memory-error"})
        sup._dispatch(todo)
        # Still alive until it exits, but no second task: the struck
        # site waits at the front of the queue for a fresh worker.
        assert len(sup.task_conns[0].sent) == 1
        assert [domain for _, domain in todo] == DOMAINS
        assert sup.local_strikes == {"a.test": 1}

    def test_memory_pressure_result_ends_dispatch_to_the_slot(
        self, registry
    ):
        sup = make_supervisor(registry)
        todo = deque(enumerate(DOMAINS))
        sup._dispatch(todo)
        index, domain, epoch, _ = sup.assigned[0]
        measurement = make_measurement(domain)
        measurement.budget_cause = MEMORY_PRESSURE_CAUSE
        sup._handle_result(
            0,
            (0, index, domain, epoch, (measurement, None, None, 1, {}),
             True),
        )
        sup._dispatch(todo)
        assert len(sup.task_conns[0].sent) == 1
        assert sup.memory_recycles == 1

    def test_declared_exit_ends_dispatch_without_a_strike(
        self, registry
    ):
        # The governor latched during the site's last page: the
        # measurement carries no cause, but the frame says the worker
        # is leaving.
        sup = make_supervisor(registry)
        todo = deque(enumerate(DOMAINS))
        sup._dispatch(todo)
        index, domain, epoch, _ = sup.assigned[0]
        sup._handle_result(
            0, result_item(index, domain, epoch, exiting=True)
        )
        sup._dispatch(todo)
        assert len(sup.task_conns[0].sent) == 1
        assert 0 in sup.buffered
        assert sup.memory_recycles == 1
        assert sup.local_strikes == {}

    def test_lingering_exit_is_reaped_without_a_strike(
        self, registry, monkeypatch
    ):
        sup = make_supervisor(registry, hang_timeout=1.0)
        process = sup.workers[0]
        sup.exiting.add(0)
        sup.heartbeats[0] = time.monotonic() - 10.0
        spawned = []
        monkeypatch.setattr(sup, "_spawn", spawned.append)
        sup._watchdog(deque(enumerate(DOMAINS)))
        assert process.killed
        assert spawned == [0]
        assert sup.kills == 0
        assert sup.local_strikes == {}


class TestLastChanceRead:
    def test_dead_workers_result_behind_metrics_and_noise_lands(
        self, registry
    ):
        sup = make_supervisor(registry, alive=False)
        receive, send = Pipe(duplex=False)
        sup.result_conns[0] = receive
        sup.decoders[0] = ipc.FrameDecoder(message_aligned=True)
        epoch = sup._issue_lease("a.test")
        sup.assigned[0] = (0, "a.test", epoch, time.monotonic())
        _send_frame(send, {"pid": 1, "metrics": {}}, kind=ipc.KIND_METRICS)
        send.send_bytes(b"line noise")
        _send_frame(send, result_item(0, "a.test", epoch))
        send.close()
        sup._watchdog(deque())
        # Measured, so neither killed nor struck.
        assert 0 in sup.buffered
        assert sup.kills == 0
        assert sup.local_strikes == {}
        assert sup.frame_errors == 1
