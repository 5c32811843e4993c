"""One measurement in a fresh interpreter: ``python3 child.py SPEC``.

``SPEC`` is a JSON object: ``mode`` (``setup``, ``crawl`` or
``oracle``), ``workload`` (the fields of a :class:`Workload`), ``out``
(where to write the JSON result) and ``work`` (a scratch directory);
``seed`` (the web's seed) for a set-up or crawl; ``expected`` (a JSON
file holding the web's expected record digests) and ``trace`` for a
crawl; ``seeds`` (the webs to compute expected records for) for the
oracle.

``shared_cache()``, ``default_registry()`` and the measuring
extension's shim plan are process-global, so a second crawl in the
same process would start warm; the benchmark therefore runs every
crawl, set-up sample and oracle in its own interpreter.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
from dataclasses import replace
from time import perf_counter

from layers import (
    PAGE_BOUNDARIES,
    READ_BOUNDARIES,
    ROOT,
    SETUP_SPANS,
    SUPERVISOR_BOUNDARIES,
    SpanTrace,
    crawl_layer_metrics,
    read_layer_metrics,
)
from workloads import (
    DIGEST_HEX,
    Workload,
    mismatches,
    record_digests,
    survey_config,
)


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def timed_setup(workload: Workload, seed: int, trace=None):
    """Set up a crawl from the first ``import repro`` until ``run_survey``
    can be called: every crawl module imported, registry and web built,
    compile cache prewarmed, survey config made.

    Returns (seconds, registry, web, config).  A traced set-up puts the
    registry, web and prewarm steps each in its own root span.
    """
    started = perf_counter()
    import repro  # noqa: F401  (the first import is part of set-up)
    # Imports every layer a crawl runs.
    from repro.core.survey import run_survey  # noqa: F401
    from repro.minijs.compile import shared_cache
    from repro.webgen.sitegen import build_web
    from repro.webidl.registry import default_registry

    span = trace.span if trace is not None else _untraced
    registry_span, build_span, prewarm_span = SETUP_SPANS
    registry = span(registry_span, default_registry)
    web = span(build_span, build_web, registry,
               n_sites=workload.sites, seed=seed)
    domains = [r.domain for r in web.ranking.all()]
    span(prewarm_span, shared_cache().prewarm,
         web.script_bodies(domains), lower=True)
    config = survey_config(workload, seed)
    return perf_counter() - started, registry, web, config


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime,
            max(own.ru_maxrss, kids.ru_maxrss))


def _run_dir_stats(run_dir) -> dict:
    """What the checkpointed crawl left on disk; zeros in memory."""
    from repro.core.tracereport import load_trace_records

    def count(node):
        return 1 + sum(count(c) for c in node.get("children", ()))

    sizes, spans = {}, 0
    if run_dir is not None:
        sizes = {
            name: os.path.getsize(os.path.join(run_dir, name))
            for name in os.listdir(run_dir)
        }
        spans = sum(count(r["trace"]) for r in load_trace_records(run_dir))
    return {
        "obs.spans": spans,
        "obs.trace_bytes": sum(
            size for name, size in sizes.items() if name.startswith("trace-")
        ),
        # Every JSONL file of a fresh run directory is append-only.
        "core.storage.bytes": sum(
            size for name, size in sizes.items() if name.endswith(".jsonl")
        ),
    }


def crawl(spec) -> dict:
    """Set up, crawl one web, check every record, run the read passes."""
    workload: Workload = spec["workload"]
    seed = spec["seed"]
    trace = None
    if spec["trace"]:
        trace = SpanTrace("%s-%d-%d" % (workload.name, seed, os.getpid()))
    setup_s, registry, web, config = timed_setup(workload, seed, trace)

    from repro.core.survey import run_survey
    from repro.minijs.compile import shared_cache

    entries = len(shared_cache())
    scratch = os.path.join(spec["work"], "crawl-%d" % os.getpid())
    os.makedirs(scratch)
    run_dir = os.path.join(scratch, "run") if workload.run_dir else None
    try:
        cpu0, kids0, _ = _rusage()
        if trace is not None:
            # Forked workers would inherit page wrappers they cannot
            # report from, so a parallel crawl traces its supervisor.
            trace.install(
                SUPERVISOR_BOUNDARIES if workload.workers > 1
                else PAGE_BOUNDARIES + SUPERVISOR_BOUNDARIES,
                collector=True,
            )
        started = perf_counter()
        try:
            result = (trace.span if trace is not None else _untraced)(
                ROOT, run_survey, web, registry, config, run_dir=run_dir,
            )
        finally:
            crawl_s = perf_counter() - started
            if trace is not None:
                trace.uninstall()
        cpu1, kids1, peak_kb = _rusage()

        keys, got = record_digests(result)
        mismatched = mismatches(keys, got, spec["expected"])
        out = {
            "setup_s": setup_s,
            "crawl_s": crawl_s,
            "pages": result.total_pages_visited(),
            "pages_per_s": result.total_pages_visited() / crawl_s,
            "peak_rss_mb": peak_kb / 1024.0,
            "records": max(len(got), len(spec["expected"])) // DIGEST_HEX,
            "records_failed": len(mismatched),
            "mismatched": mismatched[:10],
        }
        out.update(_read_passes(workload, result, run_dir, scratch, trace))
        if trace is not None:
            layers = crawl_layer_metrics(trace, result)
            layers.update(read_layer_metrics(trace, len(out["read_passes"])))
            for name in SETUP_SPANS:
                (root,) = trace.roots(name)
                layers[name + "_s"] = trace.end[root] - trace.start[root]
            workers = config.workers if config.workers > 1 else 0
            layers.update({
                "minijs.compile.entries": entries,
                "core.survey.parent_cpu_s": cpu1 - cpu0,
                "core.survey.worker_cpu_s": kids1 - kids0,
                "core.survey.worker_idle_share": (
                    1 - (kids1 - kids0) / (workers * crawl_s)
                    if workers else 0.0
                ),
                "bench.spans": len(trace),
            })
            layers.update(_run_dir_stats(run_dir))
            out["layers"] = layers
            out["nesting_errors"] = len(trace.nesting_errors())
            trace.write(os.path.join(
                spec["work"], "%s-seed%d.spans.jsonl" % (workload.name, seed)
            ))
        return out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _read_passes(workload: Workload, result, run_dir, scratch, trace):
    """Run the workload's read passes over the crawl's output."""
    import readpass
    from repro.core.persistence import load_survey, save_survey, survey_digest

    if run_dir is not None:
        survey_path = os.path.join(run_dir, "survey.json")
    else:
        survey_path = os.path.join(scratch, "survey.json")
        save_survey(result, survey_path)
    survey_ok = survey_digest(load_survey(survey_path)) \
        == survey_digest(result)
    records = sum(len(m) for m in result.measurements.values())
    cmds = readpass.commands(run_dir, survey_path, scratch,
                             workload.conditions)
    # A CLI read command runs in a process of its own.  Here the
    # crawl's heap is still alive, and a full collection that walks it
    # costs 20 passes' time; frozen, the collector leaves it out.
    gc.collect()
    gc.freeze()
    span = None
    if trace is not None:
        trace.install(READ_BOUNDARIES)
        span = trace.span
    passes, failed = [], []
    try:
        for _ in range(workload.read_passes):
            seconds, bad = readpass.run_pass(cmds, records, survey_ok, span)
            passes.append(seconds)
            failed += bad
    finally:
        gc.unfreeze()
        if trace is not None:
            trace.uninstall()
    return {"read_passes": passes, "read_calls": len(cmds) * len(passes),
            "read_failed": len(failed), "read_failures": failed[:10]}


def setup_only(spec) -> dict:
    return {"setup_s": timed_setup(spec["workload"], spec["seed"])[0]}


def oracle(spec) -> dict:
    """Expected record digests from the tree-walking reference engine,
    per web seed.

    Two forked workers share the work; the determinism matrix holds
    parallel crawls bit-identical to serial ones.
    """
    from workloads import build_inputs

    from repro.core.survey import run_survey

    workload: Workload = spec["workload"]
    out = {}
    for seed in spec["seeds"]:
        registry, web, _ = build_inputs(workload, seed)
        config = replace(
            survey_config(workload, seed, engine="tree", workers=2),
            trace=False,
        )
        out[str(seed)] = record_digests(run_survey(web, registry, config))[1]
    return out


def main(argv) -> int:
    spec = json.loads(argv[1])
    fields = dict(spec["workload"])
    fields["conditions"] = tuple(fields["conditions"])
    spec["workload"] = Workload(**fields)
    if spec["mode"] == "crawl":
        with open(spec["expected"], encoding="utf-8") as handle:
            spec["expected"] = json.load(handle)
    result = {"setup": setup_only, "crawl": crawl, "oracle": oracle}[
        spec["mode"]](spec)
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
