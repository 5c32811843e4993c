"""The content-addressed compilation cache (parse-once MiniJS).

Covers the cache's own mechanics (content addressing, LRU bounds,
counters, error caching), the correctness contract that makes sharing
compiled programs safe (the interpreter never mutates AST nodes), the
late-compilation paths (DOM0 attributes, string timers), and the
end-to-end guarantee: cached and uncached surveys are bit-identical
down to their checkpoint shards.
"""

from __future__ import annotations

import copy
import os

import pytest

from repro.core.persistence import survey_digest
from repro.core.survey import SurveyConfig, run_survey
from repro.minijs import Interpreter, parse
from repro.minijs.compile import (
    CompileCache,
    configure_shared_cache,
    shared_cache,
    source_key,
)
from repro.minijs.errors import JSParseError


@pytest.fixture
def cache():
    return CompileCache(max_entries=8)


class TestCompileCache:
    def test_hit_returns_same_program_object(self, cache):
        source = "var x = 1 + 2;"
        first = cache.compile(source)
        second = cache.compile(source)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_content_addressed_not_identity_addressed(self, cache):
        # Two distinct-but-equal strings hit the same entry.
        a = "var y = 40 + 2;"
        b = "".join(["var y = 40 ", "+ 2;"])
        assert a is not b
        assert cache.compile(a) is cache.compile(b)

    def test_distinct_sources_distinct_entries(self, cache):
        cache.compile("var a = 1;")
        cache.compile("var b = 2;")
        assert len(cache) == 2
        assert cache.misses == 2

    def test_lru_eviction_bounds_entries(self, cache):
        for index in range(12):
            cache.compile("var v%d = %d;" % (index, index))
        assert len(cache) == 8
        assert cache.evictions == 4
        # Oldest entries were evicted; newest survive.
        assert "var v0 = 0;" not in cache
        assert "var v11 = 11;" in cache

    def test_lru_recency_protects_hot_entries(self, cache):
        hot = "var hot = 1;"
        cache.compile(hot)
        for index in range(7):
            cache.compile("var c%d = 0;" % index)  # cache now full
        cache.compile(hot)  # refresh recency
        cache.compile("var overflow = 9;")  # evicts the LRU entry
        assert hot in cache

    def test_syntax_errors_cached_and_reraised(self, cache):
        broken = "function ( {"
        with pytest.raises(JSParseError):
            cache.compile(broken)
        with pytest.raises(JSParseError):
            cache.compile(broken)
        assert cache.misses == 1
        assert cache.hits == 1 and cache.error_hits == 1

    def test_disabled_cache_stores_nothing(self):
        cache = CompileCache(enabled=False)
        source = "var x = 1;"
        assert cache.compile(source).body
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_prewarm_counts_new_entries_and_swallows_errors(self, cache):
        added = cache.prewarm(["var a = 1;", "function ( {", "var a = 1;"])
        assert added == 2  # one program + one recorded error
        assert len(cache) == 2

    def test_counters_and_delta(self, cache):
        cache.compile("var x = 1;")
        before = cache.counters()
        cache.compile("var x = 1;")
        cache.compile("var y = 2;")
        delta = CompileCache.counter_delta(cache.counters(), before)
        assert delta["hits"] == 1
        assert delta["misses"] == 1
        assert delta["parse_seconds"] >= 0.0

    def test_source_key_is_sha256(self):
        import hashlib

        source = "var k = 1;"
        assert source_key(source) == hashlib.sha256(
            source.encode("utf-8")
        ).hexdigest()

    def test_shared_cache_is_process_wide(self):
        from repro.minijs.compile import compile_source

        source = "var shared_cache_probe = 123;"
        assert compile_source(source) is shared_cache().compile(source)


class TestAstImmutability:
    """The contract that makes program sharing safe: executing a
    compiled Program — in any number of realms, any number of times —
    must not mutate a single AST node."""

    SOURCES = [
        # hoisting + closures + repeated calls
        "function f(n) { if (n < 2) return n; return f(n-1) + f(n-2); }"
        " var r = f(8);",
        # loops, compound assignment, postfix
        "var total = 0; for (var i = 0; i < 5; i++) { total += i; }",
        # try/catch/finally + throw
        "var seen = ''; try { throw 'boom'; } catch (e) { seen = e; }"
        " finally { seen = seen + '!'; }",
        # objects, arrays, for-in, member writes
        "var o = {a: 1, b: 2}; var keys = []; "
        "for (var k in o) { keys.push(k); } o.c = keys.length;",
        # function expressions, this, new
        "function Box(v) { this.v = v; } var b = new Box(7);"
        " var get = function () { return b.v; }; get();",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_interpreter_does_not_mutate_programs(self, source):
        program = parse(source)
        pristine = copy.deepcopy(program)
        for seed in (1, 2):
            Interpreter(seed=seed).run(program)
        assert program == pristine

    def test_shared_program_across_realms_same_results(self):
        source = "var out = 0; for (var i = 1; i <= 4; i++) out = out + i;"
        program = parse(source)
        results = []
        for _ in range(3):
            interp = Interpreter(seed=0)
            interp.run(program)
            results.append(interp.global_object.get("out"))
        assert results == [10.0, 10.0, 10.0]


class TestLateCompilationPaths:
    def test_dom0_attribute_handler_uses_shared_cache(self, registry):
        from repro.dom.bindings import DomRealm
        from repro.dom.html import parse_html

        body = "window.__attr_probe = (window.__attr_probe || 0) + 1;"
        html = (
            "<html><body>"
            '<button id="a" onclick="%s">x</button>'
            '<button id="b" onclick="%s">y</button>'
            "</body></html>" % (body, body)
        )
        realm = DomRealm(registry, parse_html(html), seed=1)
        cache = shared_cache()
        before = cache.counters()
        for node in realm.root.find_all("button"):
            realm.events.dispatch(node, "click")
        delta = CompileCache.counter_delta(cache.counters(), before)
        # Two identical attribute bodies: at most one parse (zero when
        # another test already warmed it), at least one content hit.
        assert delta["misses"] <= 1
        assert delta["hits"] >= 1
        assert not realm.events.handler_errors

    def test_string_settimeout_compiles_and_runs(self, registry):
        from repro.dom.bindings import DomRealm
        from repro.dom.html import parse_html

        realm = DomRealm(registry, parse_html("<html><body></body></html>"),
                         seed=1)
        realm.interp.run_source(
            'setTimeout("window.__timer_probe = 41 + 1;", 5);'
        )
        realm.flush_timers(4)
        assert realm.interp.global_object.properties[
            "__timer_probe"
        ] == 42.0

    def test_string_settimeout_bad_source_is_dropped(self, registry):
        from repro.dom.bindings import DomRealm
        from repro.dom.html import parse_html

        realm = DomRealm(registry, parse_html("<html><body></body></html>"),
                         seed=1)
        result = realm.interp.run_source('setTimeout("function ( {", 5);')
        assert result == -1.0
        assert realm.flush_timers(4) == 0

    def test_run_source_hits_shared_cache(self):
        source = "var run_source_probe = 7;"
        cache = shared_cache()
        Interpreter(seed=1).run_source(source)
        before = cache.counters()
        Interpreter(seed=2).run_source(source)
        delta = CompileCache.counter_delta(cache.counters(), before)
        assert delta["hits"] == 1 and delta["misses"] == 0


class TestCachedVsUncachedEquivalence:
    def _run(self, web, registry, run_dir):
        config = SurveyConfig(
            conditions=("default", "blocking"),
            visits_per_site=2,
            seed=321,
            max_sites=8,
        )
        return run_survey(web, registry, config, run_dir=run_dir)

    def test_surveys_and_shards_bit_identical(
        self, registry, small_web, tmp_path
    ):
        cache = shared_cache()
        cached_dir = tmp_path / "cached"
        uncached_dir = tmp_path / "uncached"
        cached = self._run(small_web, registry, str(cached_dir))
        try:
            configure_shared_cache(enabled=False)
            uncached = self._run(small_web, registry, str(uncached_dir))
        finally:
            configure_shared_cache(enabled=True)
        assert survey_digest(cached) == survey_digest(uncached)
        # Bit-identical down to the checkpoint shard bytes.
        shards = sorted(
            name for name in os.listdir(cached_dir)
            if name.startswith("shard-")
        )
        assert shards
        for name in shards:
            cached_bytes = (cached_dir / name).read_bytes()
            uncached_bytes = (uncached_dir / name).read_bytes()
            assert cached_bytes == uncached_bytes, name
        # And the cached run actually exercised the cache.
        assert cached.compile_cache["hits"] > 0
        assert cache.enabled

    def test_survey_surfaces_cache_and_phase_stats(
        self, registry, small_web, tmp_path
    ):
        from repro.core.tracereport import load_trace_records

        config = SurveyConfig(
            conditions=("default",), visits_per_site=1, seed=5,
            max_sites=4, trace=True,
        )
        run_dir = str(tmp_path / "run")
        result = run_survey(small_web, registry, config, run_dir=run_dir)
        assert result.compile_cache["misses"] >= 0
        assert result.compile_cache["hits"] > 0
        # Per-phase time is recorded as phase:* spans in the trace.
        names = set()
        pending = [r["trace"] for r in load_trace_records(run_dir)]
        while pending:
            node = pending.pop()
            names.add(node["name"])
            pending.extend(node.get("children", ()))
        assert {"phase:fetch", "phase:execute", "phase:monkey"} <= names

    def test_timing_report_renders(self, registry, small_web):
        from repro.cli import _REPORTS
        from repro.core import reporting

        config = SurveyConfig(
            conditions=("default",), visits_per_site=1, seed=6,
            max_sites=3,
        )
        result = run_survey(small_web, registry, config)
        text = _REPORTS["timing"](result)
        assert "Cache hits" in text
        assert "execute" not in text  # phase time: repro trace
        progress = reporting.progress_report_text(result)
        assert "Compile cache" in progress
