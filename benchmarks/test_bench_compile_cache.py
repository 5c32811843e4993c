"""Cold-vs-warm throughput of the content-addressed compile cache.

Runs the same survey twice — once with the shared compile cache
disabled (every script execution re-lexes and re-parses, the seed's
worst case) and once with it enabled (each distinct body parses once
per process, pre-warmed before the crawl) — and records both into
``BENCH_compile_cache.json`` at the repo root.

The two runs must also be bit-identical (same survey digest): the
cache is a pure throughput optimization, never a behavior change.

Set ``REPRO_BENCH_SMOKE=1`` for the small CI configuration; the
speedup floor is only asserted for the full run, where parse time is a
stable fraction of the workload.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.browser.browser import BrowserConfig
from repro.core.persistence import survey_digest
from repro.core.survey import SurveyConfig, run_survey
from repro.minijs.compile import configure_shared_cache, shared_cache
from repro.monkey.crawler import CrawlConfig
from repro.monkey.gremlins import MonkeyConfig
from repro.webgen.sitegen import build_web
from repro.webidl.registry import default_registry

from conftest import BENCH_SEED, emit

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
N_SITES = 5 if SMOKE else 25
VISITS = 1 if SMOKE else 2
RESULT_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_compile_cache.json"
)


def _config() -> SurveyConfig:
    # The paper-faithful pure-JS instrumentation mode: the injected
    # payload is a large generated script every page re-parses when the
    # cache is off — the workload the cache exists for.  Monkey events
    # are trimmed so interaction noise does not drown the parse signal.
    return SurveyConfig(
        conditions=("default",),
        visits_per_site=VISITS,
        seed=BENCH_SEED,
        browser=BrowserConfig(instrumentation_mode="pure-js"),
        crawl=CrawlConfig(monkey=MonkeyConfig(events_per_page=6)),
    )


def _pages(result) -> int:
    return sum(
        m.pages
        for by_domain in result.measurements.values()
        for m in by_domain.values()
    )


def test_bench_compile_cache_cold_vs_warm():
    registry = default_registry()
    web = build_web(registry, n_sites=N_SITES, seed=BENCH_SEED)
    cache = shared_cache()

    try:
        configure_shared_cache(enabled=False)
        start = time.perf_counter()
        cold = run_survey(web, registry, _config())
        cold_seconds = time.perf_counter() - start

        configure_shared_cache(enabled=True)
        cache.clear()
        cache.reset_counters()
        start = time.perf_counter()
        warm = run_survey(web, registry, _config())
        warm_seconds = time.perf_counter() - start
    finally:
        configure_shared_cache(enabled=True)

    # The cache must be invisible in the data.
    assert survey_digest(cold) == survey_digest(warm)

    pages = _pages(warm)
    speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
    payload = {
        "benchmark": "compile_cache_cold_vs_warm",
        "smoke": SMOKE,
        "sites": N_SITES,
        "visits_per_site": VISITS,
        "pages_visited": pages,
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "cold_pages_per_second": round(pages / cold_seconds, 2),
        "warm_pages_per_second": round(pages / warm_seconds, 2),
        "speedup": round(speedup, 3),
        "warm_cache": {
            key: value
            for key, value in warm.compile_cache.items()
        },
    }
    RESULT_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    emit(
        "Compile cache: cold vs warm (%d sites, %d visits)"
        % (N_SITES, VISITS),
        "cold: %.2f s (%.1f pages/s)\nwarm: %.2f s (%.1f pages/s)\n"
        "speedup: %.2fx" % (
            cold_seconds, pages / cold_seconds,
            warm_seconds, pages / warm_seconds, speedup,
        ),
    )

    assert speedup > 0.0
    if not SMOKE:
        assert speedup >= 1.5, (
            "warm cache should be >=1.5x cold, got %.2fx" % speedup
        )
