"""Outside-in layer tracing: spans around the program's layer boundaries.

The traced run wraps each boundary below with a span (name, start,
end, parent, run id) from the benchmark's own files; no program file
is edited, and every wrapper is removed again when the crawl ends.
Spans stay in memory and are written out when the run ends.

A layer's self time is the duration of its spans minus the part their
child spans cover.  Garbage-collector pauses are spans as well, the
children of whatever was running, and the crawl itself is the root
span ``core.survey``; so the self times of every layer, the collector
and the root (the time no boundary covers) add up to the crawl's wall
time.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import statistics
from array import array
from functools import update_wrapper
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module, attribute, span name) of every boundary a page load
#: crosses.  Two have no public entry point and are wrapped as the
#: private methods they are: element hiding and the accelerated
#: instrumentation install.
PAGE_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.net.proxy", "InjectingProxy.fetch", "net.fetch"),
    ("repro.blocking.extension", "BlockingExtension.gate",
     "blocking.gate"),
    ("repro.browser.browser", "Browser._apply_element_hiding",
     "blocking.hide"),
    # Patched where the browser looks it up, not where it is defined.
    ("repro.browser.browser", "parse_html_lenient", "dom.html.parse"),
    ("repro.dom.bindings", "DomRealm.__init__", "dom.bindings.realm"),
    ("repro.dom.events", "EventManager.dispatch", "dom.events.dispatch"),
    ("repro.browser.extension",
     "MeasuringExtension._install_accelerated",
     "browser.extension.install"),
    ("repro.minijs.compile", "CompileCache.compile", "minijs.compile"),
    ("repro.minijs.codegen", "CompiledInterpreter.run",
     "minijs.codegen.run"),
    ("repro.monkey.gremlins", "Gremlins.run", "monkey.gremlins"),
    ("repro.monkey.crawler", "SiteCrawler.visit_site",
     "monkey.crawler.round"),
    ("repro.browser.browser", "Browser.visit_page", "browser.visit_page"),
)

#: Boundaries the supervisor of a parallel, checkpointed crawl
#: crosses.  None of them runs in a crawl worker.
SUPERVISOR_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.ipc", "FrameDecoder.feed", "core.ipc.decode"),
    ("repro.core.checkpoint", "SurveyCheckpoint.issue_lease",
     "core.checkpoint.lease"),
    ("repro.core.checkpoint", "SurveyCheckpoint.append",
     "core.checkpoint.append"),
    ("repro.core.checkpoint", "SurveyCheckpoint.append_trace",
     "core.checkpoint.append"),
    ("repro.core.checkpoint", "SurveyCheckpoint.append_metrics",
     "core.checkpoint.append"),
    ("repro.core.storage", "Storage.append_record", "core.storage.append"),
    ("repro.core.storage", "Storage.replace_atomic",
     "core.storage.replace"),
    ("repro.core.runmetrics", "MetricsRegistry.ingest_site",
     "core.runmetrics.ingest"),
    ("repro.core.runmetrics", "merge_snapshots", "core.runmetrics.merge"),
)

READ_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.persistence", "load_survey", "core.persistence.load"),
)

#: read-surface command -> the layer its span is named after
READ_LAYERS = {
    "status": "core.statusreport.status",
    "metrics": "core.runmetrics.openmetrics",
    "trace": "core.tracereport.trace",
    "fsck": "core.checkpoint.fsck",
    "survey": "core.reporting.tables",
    "figures": "core.charts.render",
    "export": "core.export.export",
    "compare": "core.comparison.compare",
}

ROOT = "core.survey"
GC = "runtime.gc"
#: the set-up steps, each a root span of its own; the metric is the
#: name plus ``_s``
SETUP_SPANS = ("webidl.registry", "webgen.build", "minijs.compile.prewarm")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("webidl.registry_s", "s"),
    ("webgen.build_s", "s"),
    ("minijs.compile.prewarm_s", "s"),
    ("minijs.compile.entries", "count"),
    ("net.fetch_s", "s"),
    ("net.requests", "count"),
    ("net.failed_share", "ratio"),
    ("blocking.gate_s", "s"),
    ("blocking.gate_calls", "count"),
    ("blocking.blocked_share", "ratio"),
    ("blocking.hide_s", "s"),
    ("dom.html.parse_s", "s"),
    ("dom.html.bytes", "bytes"),
    ("dom.bindings.realm_s", "s"),
    ("dom.bindings.realms", "count"),
    ("dom.events.dispatch_s", "s"),
    ("dom.events.dispatched", "count"),
    ("browser.extension.install_s", "s"),
    ("browser.extension.invocations", "count"),
    ("minijs.compile.self_s", "s"),
    ("minijs.compile.calls", "count"),
    ("minijs.compile.hit_share", "ratio"),
    ("minijs.codegen.self_s", "s"),
    ("minijs.codegen.runs", "count"),
    ("monkey.gremlins.self_s", "s"),
    ("monkey.crawler.self_s", "s"),
    ("monkey.crawler.rounds", "count"),
    ("monkey.crawler.round_p50_ms", "ms"),
    ("monkey.crawler.round_tail_ms", "ms"),
    ("monkey.crawler.round_tail_pct", "%"),
    ("browser.pages", "count"),
    ("browser.visit_page.self_s", "s"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_share", "ratio"),
    ("runtime.gc_gen2", "count"),
    ("core.survey.wall_s", "s"),
    ("core.survey.unattributed_s", "s"),
    ("core.survey.parent_cpu_s", "s"),
    ("core.survey.worker_cpu_s", "s"),
    ("core.survey.worker_idle_share", "ratio"),
    ("core.ipc.decode_s", "s"),
    ("core.ipc.frames", "count"),
    ("core.ipc.bytes", "bytes"),
    ("core.ipc.frame_errors", "count"),
    ("core.checkpoint.lease_s", "s"),
    ("core.checkpoint.append_s", "s"),
    ("core.storage.append_s", "s"),
    ("core.storage.appends", "count"),
    ("core.storage.bytes", "bytes"),
    ("core.storage.replace_s", "s"),
    ("core.storage.replaces", "count"),
    ("core.runmetrics.ingest_s", "s"),
    ("core.runmetrics.merge_s", "s"),
    ("obs.spans", "count"),
    ("obs.trace_bytes", "bytes"),
    ("core.persistence.load_s", "s"),
    ("core.reporting.tables_s", "s"),
    ("core.charts.render_s", "s"),
    ("core.export.export_s", "s"),
    ("core.comparison.compare_s", "s"),
    ("core.statusreport.status_s", "s"),
    ("core.runmetrics.openmetrics_s", "s"),
    ("core.tracereport.trace_s", "s"),
    ("core.checkpoint.fsck_s", "s"),
    ("bench.read_passes", "count"),
    ("bench.spans", "count"),
    ("bench.trace_overhead_share", "ratio"),
)

#: span name -> the per-layer metric carrying its self time
SELF_TIME_METRICS = {
    "net.fetch": "net.fetch_s",
    "blocking.gate": "blocking.gate_s",
    "blocking.hide": "blocking.hide_s",
    "dom.html.parse": "dom.html.parse_s",
    "dom.bindings.realm": "dom.bindings.realm_s",
    "dom.events.dispatch": "dom.events.dispatch_s",
    "browser.extension.install": "browser.extension.install_s",
    "minijs.compile": "minijs.compile.self_s",
    "minijs.codegen.run": "minijs.codegen.self_s",
    "monkey.gremlins": "monkey.gremlins.self_s",
    "monkey.crawler.round": "monkey.crawler.self_s",
    "browser.visit_page": "browser.visit_page.self_s",
    GC: "runtime.gc_s",
    ROOT: "core.survey.unattributed_s",
    "core.ipc.decode": "core.ipc.decode_s",
    "core.checkpoint.lease": "core.checkpoint.lease_s",
    "core.checkpoint.append": "core.checkpoint.append_s",
    "core.storage.append": "core.storage.append_s",
    "core.storage.replace": "core.storage.replace_s",
    "core.runmetrics.ingest": "core.runmetrics.ingest_s",
    "core.runmetrics.merge": "core.runmetrics.merge_s",
}

#: span name -> the per-layer metric counting its calls
CALL_COUNT_METRICS = {
    "blocking.gate": "blocking.gate_calls",
    "dom.bindings.realm": "dom.bindings.realms",
    "dom.events.dispatch": "dom.events.dispatched",
    "minijs.compile": "minijs.compile.calls",
    "minijs.codegen.run": "minijs.codegen.runs",
    "monkey.crawler.round": "monkey.crawler.rounds",
    "browser.visit_page": "browser.pages",
    "core.storage.append": "core.storage.appends",
    "core.storage.replace": "core.storage.replaces",
}

#: tail percentiles tried, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _resolve(module: str, attribute: str):
    """(owner, name) for a dotted attribute of a module."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class SpanTrace:
    """Spans kept in memory as parallel arrays, one recorder per run.

    ``open``/``close`` allocate no object the garbage collector
    tracks, so a collection can never start half-way through one:
    every span, collector pauses included, nests inside its parent.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: List[int] = [-1]
        #: counts observed at boundaries (bytes parsed, gate vetoes, ...)
        self.counts: Dict[str, float] = {}
        #: the fetchers of the crawlers seen, for their own counters
        self.fetchers: Dict[int, object] = {}
        self.gc_gen2 = 0
        self._gc_index = -1
        self._pid = os.getpid()
        self._patched: List[Tuple[object, str, object]] = []
        self._gc_on = False
        # Bound once: calling a stored bound method allocates nothing.
        self._push = self._stack.append
        self._pop = self._stack.pop
        self._name_add = self.name.append
        self._start_add = self.start.append
        self._end_add = self.end.append
        self._parent_add = self.parent.append

    # -- recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self._name_add(nid)
        self._parent_add(self._stack[-1])
        self._end_add(0.0)
        self._start_add(perf_counter())
        self._push(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._pop()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        # Forked crawl workers inherit the callback; only this process
        # records.
        if os.getpid() != self._pid:
            return
        if phase == "start":
            self._gc_index = self.open(self._gc_id)
        elif self._gc_index >= 0:
            self.close(self._gc_index)
            self._gc_index = -1
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- wrapping -------------------------------------------------------

    def _hook(self, span_name: str) -> Optional[Callable]:
        """What a boundary's wrapper observes besides time, if any."""
        if span_name == "blocking.gate":
            def hook(args, allowed):
                if not allowed:
                    self.count("blocking.blocked")
        elif span_name == "dom.html.parse":
            def hook(args, result):
                self.count("dom.html.bytes", len(args[0]))
        elif span_name == "monkey.crawler.round":
            def hook(args, result):
                fetcher = args[0].browser.fetcher
                self.fetchers[id(fetcher)] = fetcher
        elif span_name == "core.ipc.decode":
            def hook(args, frames):
                self.count("core.ipc.bytes", len(args[1]))
                self.count("core.ipc.frames", len(frames))
        else:
            return None
        return hook

    def _wrapper(self, fn: Callable, span_name: str) -> Callable:
        nid = self.name_id(span_name)
        open_, close = self.open, self.close
        hook = self._hook(span_name)
        if hook is None:
            def wrapper(*args, **kwargs):
                index = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(index)
        else:
            def wrapper(*args, **kwargs):
                index = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(index)
                hook(args, result)
                return result
        return update_wrapper(wrapper, fn)

    def install(
        self,
        boundaries: Sequence[Tuple[str, str, str]],
        collector: bool = False,
    ) -> None:
        """Wrap each boundary (and time collector pauses if asked)."""
        for module, attribute, span_name in boundaries:
            owner, name = _resolve(module, attribute)
            original = owner.__dict__[name]
            self._patched.append((owner, name, original))
            setattr(owner, name, self._wrapper(original, span_name))
        if collector:
            self._gc_id = self.name_id(GC)
            gc.callbacks.append(self._on_gc)
            self._gc_on = True

    def uninstall(self) -> None:
        """Put every original back, newest wrapper first."""
        if self._gc_on:
            gc.callbacks.remove(self._on_gc)
            self._gc_on = False
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- reading --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def roots(self, name: str) -> List[int]:
        nid = self._ids.get(name)
        return [
            i for i in range(len(self.start))
            if self.parent[i] == -1 and self.name[i] == nid
        ]

    def subtree(self, root: int) -> range:
        """Indices of ``root`` and every span opened inside it.

        Spans are stored in the order they opened, on one thread, so a
        root's descendants are the run of spans that opened before it
        closed.
        """
        stop = root + 1
        end = self.end[root]
        while stop < len(self.start) and self.start[stop] < end:
            stop += 1
        return range(root, stop)

    def nesting_errors(self) -> List[int]:
        """Spans that do not lie within their parent (should be none)."""
        bad = []
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.end[i] < self.start[i] or (p >= 0 and not (
                self.start[p] <= self.start[i]
                and self.end[i] <= self.end[p]
            )):
                bad.append(i)
        return bad

    def self_times(self, indices) -> Tuple[Dict[str, float],
                                           Dict[str, int]]:
        """Per span name: summed self seconds and span count."""
        covered: Dict[int, float] = {}
        for i in indices:
            p = self.parent[i]
            if p >= 0:
                covered[p] = covered.get(p, 0.0) + (
                    self.end[i] - self.start[i]
                )
        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for i in indices:
            name = self.names[self.name[i]]
            seconds[name] = seconds.get(name, 0.0) + (
                self.end[i] - self.start[i] - covered.get(i, 0.0)
            )
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def durations(self, indices, name: str) -> List[float]:
        nid = self._ids.get(name)
        return [
            self.end[i] - self.start[i] for i in indices
            if self.name[i] == nid
        ]

    def write(self, path: str) -> None:
        """One header line, then one [name, start, end, parent] line
        per span; times are seconds from the first span's start."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "run_id": self.run_id,
                "fields": ["name", "start", "end", "parent"],
                "names": self.names,
            }) + "\n")
            for i in range(len(self.start)):
                handle.write("[%d,%.7f,%.7f,%d]\n" % (
                    self.name[i], self.start[i] - origin,
                    self.end[i] - origin, self.parent[i],
                ))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, by nearest rank; (0, 0) with too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        tenths = round(pct * 10)  # integers: 90% of 100 is exactly 90
        if n * (1000 - tenths) >= 10000:
            return pct, ordered[-(-n * tenths // 1000) - 1]
    return 0.0, 0.0


def crawl_layer_metrics(trace: SpanTrace, result) -> Dict[str, float]:
    """Per-layer metrics of the traced crawl rooted at ``core.survey``."""
    (root,) = trace.roots(ROOT)
    indices = trace.subtree(root)
    seconds, calls = trace.self_times(indices)
    out: Dict[str, float] = {}
    for span_name, metric in SELF_TIME_METRICS.items():
        out[metric] = seconds.get(span_name, 0.0)
    for span_name, metric in CALL_COUNT_METRICS.items():
        out[metric] = calls.get(span_name, 0)
    wall = trace.end[root] - trace.start[root]
    out["core.survey.wall_s"] = wall
    out["runtime.gc_share"] = out["runtime.gc_s"] / wall if wall else 0.0
    out["runtime.gc_gen2"] = trace.gc_gen2
    requests = sum(f.requests_issued for f in trace.fetchers.values())
    failed = sum(f.requests_failed for f in trace.fetchers.values())
    out["net.requests"] = requests
    out["net.failed_share"] = failed / requests if requests else 0.0
    gates = out["blocking.gate_calls"]
    out["blocking.blocked_share"] = (
        trace.counts.get("blocking.blocked", 0) / gates if gates else 0.0
    )
    out["dom.html.bytes"] = trace.counts.get("dom.html.bytes", 0)
    out["core.ipc.frames"] = trace.counts.get("core.ipc.frames", 0)
    out["core.ipc.bytes"] = trace.counts.get("core.ipc.bytes", 0)
    out["core.ipc.frame_errors"] = result.process_faults.get(
        "frame_errors", 0
    )
    out["browser.extension.invocations"] = result.total_invocations()
    cache = result.compile_cache
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out["minijs.compile.hit_share"] = (
        cache.get("hits", 0) / lookups if lookups else 0.0
    )
    rounds_ms = [
        1000.0 * d for d in trace.durations(indices, "monkey.crawler.round")
    ]
    out["monkey.crawler.round_p50_ms"] = (
        statistics.median_low(rounds_ms) if rounds_ms else 0.0
    )
    pct, value = tail(rounds_ms)
    out["monkey.crawler.round_tail_pct"] = pct
    out["monkey.crawler.round_tail_ms"] = value
    return out


def read_layer_metrics(trace: SpanTrace, passes: int) -> Dict[str, float]:
    """Self seconds per read pass of each read-surface layer."""
    indices = [
        i for name in list(READ_LAYERS.values())
        for root in trace.roots(name) for i in trace.subtree(root)
    ]
    seconds, _ = trace.self_times(indices)
    out = {}
    for span_name in list(READ_LAYERS.values()) + ["core.persistence.load"]:
        out[span_name + "_s"] = (
            seconds.get(span_name, 0.0) / passes if passes else 0.0
        )
    out["bench.read_passes"] = passes
    return out
