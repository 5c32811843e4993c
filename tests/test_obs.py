"""Unit tests for repro.obs: spans, tracer lifecycle, digests.

These exercise the tracing substrate in isolation — the determinism
matrix (test_determinism_matrix.py) covers the end-to-end guarantee
that real crawls hash identically across execution modes.
"""

import pytest

from repro import obs
from repro.obs import (
    Span,
    Tracer,
    span_to_dict,
    structural_projection,
    trace_digest,
)


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Each test starts and ends with tracing off."""
    previous = obs.set_tracer(None)
    yield
    obs.set_tracer(previous)


class TestSpanTree:
    def test_nesting_follows_with_blocks(self):
        tracer = Tracer()
        with tracer.span("site", domain="a.com"):
            with tracer.span("visit", round=0):
                with tracer.span("page", url="https://a.com/"):
                    pass
                with tracer.span("page", url="https://a.com/b/"):
                    pass
        root = tracer.take_root()
        assert root.name == "site"
        assert root.attrs == {"domain": "a.com"}
        (visit,) = root.children
        assert [c.attrs["url"] for c in visit.children] == [
            "https://a.com/", "https://a.com/b/",
        ]

    def test_real_ms_is_positive_and_inclusive(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        root = tracer.take_root()
        assert root.real_ms > 0.0
        assert root.real_ms >= root.children[0].real_ms

    def test_event_attaches_to_current_span(self):
        tracer = Tracer()
        with tracer.span("site"):
            tracer.event("net:retry", url="https://a.com/x", attempt=1)
        root = tracer.take_root()
        (event,) = root.children
        assert event.name == "net:retry"
        assert event.real_ms == 0.0
        assert event.attrs["attempt"] == 1

    def test_event_outside_any_span_is_dropped(self):
        tracer = Tracer()
        tracer.event("orphan")
        assert tracer.take_root() is None

    def test_set_attrs_and_annotate_target_current_span(self):
        tracer = Tracer()
        with tracer.span("site"):
            tracer.set_attrs(measured=True)
            tracer.annotate(cache_hits=7)
        root = tracer.take_root()
        assert root.attrs == {"measured": True}
        assert root.meta == {"cache_hits": 7}

    def test_virtual_clock_stamps_vt_at_entry(self):
        tracer = Tracer()
        ticks = iter([1.5, 2.5])
        tracer.virtual_clock = lambda: next(ticks)
        with tracer.span("site"):
            tracer.event("budget-exhausted", cause="deadline")
        root = tracer.take_root()
        assert root.vt == 1.5
        assert root.children[0].vt == 2.5

    def test_no_clock_means_no_vt(self):
        tracer = Tracer()
        with tracer.span("site"):
            pass
        root = tracer.take_root()
        assert root.vt is None
        assert "vt" not in span_to_dict(root)

    def test_take_root_clears_state(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        root = tracer.take_root()
        assert root.name == "two"  # most recent finished root
        assert tracer.take_root() is None

    def test_mis_nested_exit_does_not_corrupt_stack(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        # Exiting the outer span first must pop the abandoned inner
        # one too, leaving the stack usable.
        outer.__exit__(None, None, None)
        with tracer.span("next"):
            pass
        root = tracer.take_root()
        assert root.name == "next"


class TestModuleHelpers:
    def test_helpers_are_noops_when_off(self):
        assert obs.current_tracer() is None
        with obs.span("site", domain="a.com") as node:
            assert node is None
        obs.event("net:retry")  # must not raise

    def test_helpers_record_when_installed(self):
        tracer = Tracer()
        obs.set_tracer(tracer)
        with obs.span("site"):
            obs.event("ping")
        root = tracer.take_root()
        assert [c.name for c in root.children] == ["ping"]

    def test_phase_is_a_noop_when_off(self):
        with obs.phase("fetch") as node:
            assert node is None

    def test_phase_records_nested_phase_spans(self):
        tracer = Tracer()
        obs.set_tracer(tracer)
        with obs.span("page"):
            with obs.phase("execute"):
                with obs.phase("fetch"):
                    pass
            with obs.phase("parse"):
                pass
        root = tracer.take_root()
        execute, parse = root.children
        assert execute.name == "phase:execute" and execute.stable
        assert [c.name for c in execute.children] == ["phase:fetch"]
        assert execute.real_ms >= execute.children[0].real_ms
        # Cache misses decide whether parse runs: never in the digest.
        assert parse.name == "phase:parse" and not parse.stable

    def test_set_tracer_returns_previous(self):
        first = Tracer()
        assert obs.set_tracer(first) is None
        second = Tracer()
        assert obs.set_tracer(second) is first
        assert obs.current_tracer() is second


class TestSerialization:
    def _tree(self):
        root = Span("site", {"domain": "a.com"})
        root.real_ms = 12.5
        child = Span("phase:fetch")
        child.real_ms = 3.0
        child.vt = 0.25
        unstable = Span("phase:parse", stable=False)
        unstable.real_ms = 1.0
        root.children = [child, unstable]
        root.meta["cache_hits"] = 3
        return root

    def test_span_to_dict_round_trip_fields(self):
        data = span_to_dict(self._tree())
        assert data["name"] == "site"
        assert data["attrs"] == {"domain": "a.com"}
        assert data["meta"] == {"cache_hits": 3}
        assert data["real_ms"] == 12.5
        fetch, parse = data["children"]
        assert fetch["vt"] == 0.25
        assert parse["unstable"] is True

    def test_projection_drops_real_ms_meta_and_unstable(self):
        projected = structural_projection(span_to_dict(self._tree()))
        assert "real_ms" not in projected
        assert "meta" not in projected
        names = [c["name"] for c in projected["children"]]
        assert names == ["phase:fetch"]  # parse subtree dropped

    def test_projection_of_unstable_root_is_none(self):
        root = Span("phase:parse", stable=False)
        assert structural_projection(span_to_dict(root)) is None


class TestTraceDigest:
    def _record(self, domain, real_ms=1.0, attempts=1):
        root = Span("site", {"domain": domain, "attempts": attempts})
        root.real_ms = real_ms
        return {
            "condition": "default",
            "domain": domain,
            "trace": span_to_dict(root),
        }

    def test_digest_ignores_real_durations(self):
        fast = [self._record("a.com", real_ms=1.0)]
        slow = [self._record("a.com", real_ms=9000.0)]
        assert trace_digest(fast) == trace_digest(slow)

    def test_digest_ignores_record_order(self):
        records = [self._record("a.com"), self._record("b.com")]
        assert trace_digest(records) == trace_digest(records[::-1])

    def test_digest_merges_last_wins(self):
        stale = self._record("a.com", attempts=1)
        fresh = self._record("a.com", attempts=2)
        assert trace_digest([stale, fresh]) == trace_digest([fresh])
        assert trace_digest([stale, fresh]) != trace_digest([stale])

    def test_digest_sees_structural_changes(self):
        base = self._record("a.com")
        renamed = self._record("a.com")
        renamed["trace"]["name"] = "page"
        with_vt = self._record("a.com")
        with_vt["trace"]["vt"] = 0.5
        digests = {
            trace_digest([base]),
            trace_digest([renamed]),
            trace_digest([with_vt]),
        }
        assert len(digests) == 3
