"""Property suite for histogram bucketing and snapshot merging.

The registry's correctness claims are algebraic, so they are enforced
algebraically:

* **bucketing** — for any observation sequence, every value lands in
  exactly one bucket, the cumulative bucket counts reproduce a direct
  ``value <= bound`` count (le-semantics, boundary values included),
  and count/sum match the observations;
* **merge is a commutative monoid** — ``merge(a, b) == merge(b, a)``
  and ``merge(merge(a, b), c) == merge(a, merge(b, c))`` byte-for-byte
  on the canonical snapshot encoding, for arbitrary mixes of summed
  counters, max-merged mirrors, gauges and histograms — the property
  that lets worker snapshots fold in any arrival order;
* **counters never decrease** — along any interleaving of site
  ingests, every stable counter series in successive snapshots is
  monotonically non-decreasing (a run read mid-crawl never shows a
  total its later reads undercut).
"""

import json

from hypothesis import given, settings, strategies as st

from repro.browser.session import SiteMeasurement
from repro.core.runmetrics import (
    FRAME_BYTES_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
    wire_delta,
)

CONDITIONS = ("default", "blocking")


def canonical(snapshot):
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# histogram bucketing

observations = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=2_000_000.0,
                  allow_nan=False, allow_infinity=False),
        # Boundary values deliberately over-sampled: le-semantics
        # lives or dies exactly on the declared bounds.
        st.sampled_from([float(b) for b in FRAME_BYTES_BUCKETS]),
    ),
    max_size=60,
)


class TestBucketing:
    @settings(max_examples=120, deadline=None)
    @given(values=observations)
    def test_buckets_reproduce_a_direct_le_count(self, values):
        registry = MetricsRegistry()
        for value in values:
            registry.observe("ipc_frame_bytes", value)
        entries = [
            e for e in registry.snapshot()["series"]
            if e["name"] == "ipc_frame_bytes"
        ]
        if not values:
            assert entries == []
            return
        entry = entries[0]
        assert sum(entry["buckets"]) == entry["count"] == len(values)
        assert entry["sum"] == sum(values)
        running = 0
        for bound, count in zip(entry["bounds"], entry["buckets"]):
            running += count
            assert running == sum(1 for v in values if v <= bound)


# ---------------------------------------------------------------------------
# merge algebra

def _apply_ops(ops):
    registry = MetricsRegistry()
    for kind, payload in ops:
        if kind == "counter":
            condition, value = payload
            registry.inc("crawl_pages_visited_total", value,
                         condition=condition)
        elif kind == "mirror":
            proc, value = payload
            registry.counter_floor("compile_cache_hits_total", value,
                                   proc=proc)
        elif kind == "gauge":
            proc, value = payload
            registry.set_gauge("worker_rss_mb", value, proc=proc)
        else:
            registry.observe("ipc_frame_bytes", payload)
    return registry.snapshot()


ops = st.lists(
    st.one_of(
        st.tuples(st.just("counter"), st.tuples(
            st.sampled_from(CONDITIONS),
            st.integers(min_value=0, max_value=1000),
        )),
        st.tuples(st.just("mirror"), st.tuples(
            st.sampled_from(("1", "2")),
            st.integers(min_value=0, max_value=1000),
        )),
        st.tuples(st.just("gauge"), st.tuples(
            st.sampled_from(("1", "2")),
            st.integers(min_value=0, max_value=500).map(float),
        )),
        st.tuples(st.just("observe"),
                  st.integers(min_value=0, max_value=100_000).map(float)),
    ),
    max_size=20,
)


class TestMergeAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(a=ops, b=ops)
    def test_commutative(self, a, b):
        left = merge_snapshots(_apply_ops(a), _apply_ops(b))
        right = merge_snapshots(_apply_ops(b), _apply_ops(a))
        assert canonical(left) == canonical(right)

    @settings(max_examples=100, deadline=None)
    @given(a=ops, b=ops, c=ops)
    def test_associative(self, a, b, c):
        sa, sb, sc = _apply_ops(a), _apply_ops(b), _apply_ops(c)
        left = merge_snapshots(merge_snapshots(sa, sb), sc)
        right = merge_snapshots(sa, merge_snapshots(sb, sc))
        assert canonical(left) == canonical(right)

    @settings(max_examples=60, deadline=None)
    @given(a=ops)
    def test_empty_is_identity(self, a):
        snap = _apply_ops(a)
        empty = MetricsRegistry().snapshot()
        assert canonical(merge_snapshots(snap, empty)) == canonical(
            merge_snapshots(empty, snap)
        ) == canonical(merge_snapshots(snap, MetricsRegistry().snapshot()))


# ---------------------------------------------------------------------------
# counter monotonicity across ingests

def _site(index, measured, condition):
    if measured:
        return SiteMeasurement(
            domain="s%d.test" % index, condition=condition,
            rounds_completed=1, rounds_ok=1,
            pages=1 + index % 13, invocations=index * 3,
            scripts_blocked=index % 4, interaction_events=index,
        )
    return SiteMeasurement(
        domain="s%d.test" % index, condition=condition,
        rounds_completed=1, rounds_ok=0,
        failure_reason=["unreachable", "no script executed"][index % 2],
    )


sites = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(CONDITIONS),
        st.integers(min_value=0, max_value=200),
    ),
    max_size=15,
)


def _counter_values(snapshot):
    out = {}
    for entry in snapshot["series"]:
        if entry.get("kind") != "counter" or not entry.get("stable"):
            continue
        key = (entry["name"], tuple(sorted(entry["labels"].items())))
        out[key] = entry["value"]
    return out


class TestCounterMonotonicity:
    @settings(max_examples=80, deadline=None)
    @given(plan=sites)
    def test_counters_never_decrease_across_ingests(self, plan):
        registry = MetricsRegistry()
        previous = {}
        for index, (measured, condition, requests) in enumerate(plan):
            registry.ingest_site(
                condition, _site(index, measured, condition),
                wire_delta(requests=requests),
            )
            current = _counter_values(registry.snapshot())
            for key, before in previous.items():
                assert current.get(key, 0) >= before, key
            previous.update(current)
