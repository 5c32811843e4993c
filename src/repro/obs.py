"""Hierarchical span tracing with dual clocks.

``repro.obs`` records *where a crawl spends its time* as a tree of
spans (site → attempt → visit → page → phase) decorated with
zero-duration events (network retries, breaker transitions, budget
exhaustions, lease epochs, result-pipe frame corruptions,
memory-pressure degrades).  Every span carries two clocks:

* ``vt`` — the :class:`~repro.core.sandbox.VirtualClock` reading at
  span entry.  The virtual clock advances only on counted work
  (interpreter steps, fetches, deterministic timer jumps), so these
  timestamps are **bit-identical** across serial, fork, spawn and
  kill+resume executions of the same seeded survey.
* ``real_ms`` — wall-clock duration from ``perf_counter``, for
  profiling.  Real durations differ run to run and are therefore
  excluded from the structural digest.

The *structural* projection of a trace — span names, attributes,
nesting, virtual timestamps — is deterministic, which makes
:func:`trace_digest` a regression oracle: the test suite asserts the
digest is identical however the crawl was executed.

Spans whose presence depends on process-local state — the compile
cache's ``phase:parse`` (fires on cache *misses*), ``lease`` epochs
(scheduling, not measurement), ``frame`` corruption records (what the
result pipe suffered), ``memory`` pressure degrades (real RSS) — are
flagged ``stable=False`` and dropped from the projection along with
their subtree.

The tracer is deliberately cheap when off: the module-level
:func:`span` / :func:`event` helpers check one global and return a
shared no-op context manager.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "UNSTABLE_PHASES",
    "current_tracer",
    "event",
    "phase",
    "set_tracer",
    "span",
    "span_to_dict",
    "structural_projection",
    "trace_digest",
]

#: phase names whose spans depend on process-local caches rather than
#: on what was measured (``parse`` only runs on a compile-cache miss,
#: and misses differ between warm and cold workers).
UNSTABLE_PHASES = frozenset({"parse"})


class Span:
    """One node in the trace tree."""

    __slots__ = ("name", "attrs", "meta", "vt", "real_ms", "stable",
                 "children")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None,
                 stable: bool = True) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        #: profiling-only annotations, excluded from the digest
        self.meta: Dict[str, Any] = {}
        #: virtual-clock reading at entry (None when no clock is wired)
        self.vt: Optional[float] = None
        #: wall-clock duration in milliseconds (perf_counter)
        self.real_ms: float = 0.0
        self.stable = stable
        self.children: List["Span"] = []


def span_to_dict(node: Span) -> Dict[str, Any]:
    """Full (profiling) serialization of a span tree."""
    out: Dict[str, Any] = {"name": node.name}
    if node.attrs:
        out["attrs"] = dict(node.attrs)
    if node.meta:
        out["meta"] = dict(node.meta)
    if node.vt is not None:
        out["vt"] = node.vt
    out["real_ms"] = node.real_ms
    if not node.stable:
        out["unstable"] = True
    if node.children:
        out["children"] = [span_to_dict(c) for c in node.children]
    return out


class _SpanHandle:
    """Context manager driving one span's lifetime on a tracer."""

    __slots__ = ("_tracer", "_span", "_start", "_root")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._start = 0.0
        self._root = False

    def __enter__(self) -> Span:
        tracer = self._tracer
        node = self._span
        if tracer._stack:
            tracer._stack[-1].children.append(node)
        else:
            self._root = True
        clock = tracer.virtual_clock
        if clock is not None:
            node.vt = clock()
        tracer._stack.append(node)
        self._start = perf_counter()
        return node

    def __exit__(self, *exc_info: Any) -> None:
        node = self._span
        node.real_ms = (perf_counter() - self._start) * 1000.0
        stack = self._tracer._stack
        # Tolerate a mis-nested exit instead of corrupting the tree.
        if node in stack:
            while stack and stack[-1] is not node:
                stack.pop()
            if stack:
                stack.pop()


class Tracer:
    """Builds span trees for the site currently being measured.

    One tracer instance lives per crawling process; the crawl code
    opens a root ``site`` span per site-measurement, and the finished
    tree is detached with :meth:`take_root` and shipped alongside the
    measurement.
    """

    def __init__(self) -> None:
        self._stack: List[Span] = []
        self._roots: List[Span] = []
        #: zero-arg callable returning the current virtual time, or
        #: None when the active budget has no virtual clock.
        self.virtual_clock: Optional[Callable[[], float]] = None

    # -- recording -----------------------------------------------------

    def span(self, name: str, stable: bool = True,
             **attrs: Any) -> _SpanHandle:
        node = Span(name, attrs, stable=stable)
        handle = _SpanHandle(self, node)
        if not self._stack:
            self._roots.append(node)
        return handle

    def event(self, name: str, stable: bool = True, **attrs: Any) -> None:
        """A zero-duration child of the current span.

        Dropped silently outside any span (e.g. cache prewarming at
        worker start happens before the first site span opens).
        """
        if not self._stack:
            return
        node = Span(name, attrs, stable=stable)
        clock = self.virtual_clock
        if clock is not None:
            node.vt = clock()
        self._stack[-1].children.append(node)

    def set_attrs(self, **attrs: Any) -> None:
        """Attach digest-visible attributes to the current span."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def annotate(self, **meta: Any) -> None:
        """Attach profiling-only metadata (excluded from the digest)."""
        if self._stack:
            self._stack[-1].meta.update(meta)

    # -- harvesting ----------------------------------------------------

    def take_root(self) -> Optional[Span]:
        """Detach and return the most recent finished root span."""
        self._stack.clear()
        if not self._roots:
            return None
        root = self._roots.pop()
        self._roots.clear()
        return root

    def reset(self) -> None:
        self._stack.clear()
        self._roots.clear()
        self.virtual_clock = None


# -- module-level tracer plumbing --------------------------------------

_TRACER: Optional[Tracer] = None


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as the process tracer; returns the old one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def current_tracer() -> Optional[Tracer]:
    return _TRACER


def span(name: str, stable: bool = True, **attrs: Any):
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, stable=stable, **attrs)


def event(name: str, stable: bool = True, **attrs: Any) -> None:
    tracer = _TRACER
    if tracer is not None:
        tracer.event(name, stable=stable, **attrs)


def phase(name: str):
    """``with phase("fetch"):`` — record a block as a ``phase:<name>`` span.

    The pipeline's one phase timer: per-phase time is read from the
    spans (``repro trace``), so an untraced crawl times nothing.
    Phases in :data:`UNSTABLE_PHASES` are flagged unstable.
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span("phase:%s" % name,
                       stable=name not in UNSTABLE_PHASES)


# -- structural digest -------------------------------------------------

def structural_projection(
    node: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """The digest-visible shape of a serialized span tree.

    Keeps name, attributes, virtual timestamps and stable children;
    drops real durations, profiling metadata and unstable subtrees.
    Returns None for an unstable node.
    """
    if node.get("unstable"):
        return None
    out: Dict[str, Any] = {"name": node["name"]}
    if node.get("attrs"):
        out["attrs"] = node["attrs"]
    if "vt" in node:
        out["vt"] = node["vt"]
    children = []
    for child in node.get("children", ()):
        projected = structural_projection(child)
        if projected is not None:
            children.append(projected)
    if children:
        out["children"] = children
    return out


def trace_digest(records: Iterable[Dict[str, Any]]) -> str:
    """Canonical content hash of a trace's deterministic structure.

    ``records`` are trace-shard records (dicts with ``condition``,
    ``domain`` and a ``trace`` span tree).  Records are de-duplicated
    last-wins per (condition, domain) — a crash between the trace
    append and the measurement append leaves an orphan trace that a
    resumed run re-records — then sorted, so the digest is independent
    of write order, worker count and resume boundaries.
    """
    merged: Dict[Any, Dict[str, Any]] = {}
    for record in records:
        merged[(record["condition"], record["domain"])] = record
    canonical = []
    for key in sorted(merged):
        record = merged[key]
        projected = structural_projection(record["trace"])
        canonical.append({
            "condition": record["condition"],
            "domain": record["domain"],
            "trace": projected,
        })
    payload = json.dumps(canonical, sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
