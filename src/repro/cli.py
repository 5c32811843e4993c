"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``survey``   — crawl a synthetic web and print the chosen reports
* ``corpus``   — inspect the WebIDL corpus / feature registry
* ``standards``— print the standards catalog (the study's targets)
* ``debloat``  — run the crawl and evaluate debloating policies
* ``validate`` — run the section 6 internal/external validation
* ``chaos``    — crawl the hostile web; verify every resource budget
  and the worker watchdog contain their designated pathology
  (``--net`` adds the network-fault pathologies and the resilience
  layer that must absorb them; ``--storage`` runs the crawl through
  a fault-injecting durability layer and verifies the result digest
  matches a clean run bit-for-bit; ``--proc`` injects process faults
  — worker SIGKILL, seeded MemoryError, result-pipe garbage, fork
  failures — and verifies the same bit-identity plus a clean lease
  fsck)
* ``fsck``     — integrity check of a checkpoint run directory (torn
  writes, orphan tmp litter, stale/live locks, mid-shard corruption,
  manifest mismatches); read-only by default, ``--repair`` applies
  the recoverable fixes offline, ``--format json`` for tooling
* ``trace``    — summarize the span trace of a ``--trace`` run
  (critical path, slowest sites/pages, phase and origin breakdowns,
  retry/breaker/quarantine timelines)
* ``status``   — a read-only dashboard over a run directory (progress,
  throughput and ETA, per-condition breakdown, worker heartbeats and
  RSS, fault counters, top failure causes); ``--watch N`` polls a
  live run without touching its lock
* ``metrics``  — export the run's metric series as an OpenMetrics
  text exposition (or JSON): stable series derived from the shards,
  unstable ones from the latest snapshot

Exit codes: 0 on success, 1 when a check or comparison fails (this
includes a storage failure mid-crawl — the run dir stays resumable),
2 on usage, configuration, checkpoint or run-lock errors, 3 when a
crawl drained cleanly after SIGTERM/SIGINT (``--resume`` continues
it) — scripts can branch on "the run was bad" versus "the invocation
was bad" versus "the run was interrupted on purpose".
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

import repro
from repro.blocking.extension import BrowsingCondition
from repro.core import debloat, reporting
from repro.core.metrics import MissingCondition
from repro.core.survey import (
    RetryPolicy,
    SurveyConfig,
    SurveyResult,
    run_survey,
)
from repro.net.resilience import ResilienceConfig
from repro.core.validation import external_validation, internal_validation
from repro.webgen.sitegen import SyntheticWeb, build_web
from repro.webidl.registry import default_registry

_REPORTS = {
    "table1": reporting.table1_text,
    "table2": reporting.table2_text,
    "headlines": reporting.headline_text,
    "figure3": reporting.figure3_series,
    "figure4": reporting.figure4_series,
    "figure5": reporting.figure5_series,
    "figure6": reporting.figure6_series,
    "figure7": reporting.figure7_series,
    "figure8": reporting.figure8_series,
    "failures": reporting.failure_report_text,
    "degraded": reporting.degraded_report_text,
    "progress": reporting.progress_report_text,
    "timing": reporting.compile_cache_text,
    "telemetry": reporting.telemetry_report_text,
    # Internal: auto-appended to checkpointed runs; not user-selectable
    # (use "progress", which adds the compile-cache vitals).
    "crawl-health": reporting.crawl_health_text,
}

_HIDDEN_REPORTS = frozenset(["crawl-health"])

#: Reports whose crawl also runs the two single-extension conditions.
_NEEDS_QUAD = frozenset(["figure7"])


class CliError(ValueError):
    """A usage error argparse cannot catch (flag interactions)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Browser Feature Usage on the "
        "Modern Web' (IMC 2016)",
    )
    parser.add_argument(
        "--version", action="version",
        version="repro %s" % repro.__version__,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    survey = commands.add_parser(
        "survey", help="crawl a synthetic web and print reports"
    )
    _crawl_arguments(survey)
    survey.add_argument(
        "--report",
        action="append",
        choices=sorted(set(_REPORTS) - _HIDDEN_REPORTS) + ["all"],
        default=None,
        help="which report(s) to print (default: table1 + headlines)",
    )
    survey.add_argument(
        "--save", metavar="PATH",
        help="write the measured survey to a JSON file",
    )
    survey.add_argument(
        "--load", metavar="PATH",
        help="analyze a previously saved survey instead of crawling",
    )

    figures = commands.add_parser(
        "figures", help="render the paper's figures as SVG files"
    )
    _crawl_arguments(figures)
    figures.add_argument("--out", default="figures")
    figures.add_argument(
        "--load", metavar="PATH",
        help="render from a previously saved survey instead of crawling",
    )

    corpus = commands.add_parser(
        "corpus", help="inspect the WebIDL corpus / registry"
    )
    corpus.add_argument("--standard", help="list one standard's features")
    corpus.add_argument(
        "--summary", action="store_true",
        help="print corpus-level statistics",
    )

    standards = commands.add_parser(
        "standards", help="print the standards catalog"
    )
    standards.add_argument(
        "--never-used", action="store_true",
        help="only the standards no site uses",
    )

    debloat_cmd = commands.add_parser(
        "debloat", help="evaluate browser-debloating policies"
    )
    _crawl_arguments(debloat_cmd)
    debloat_cmd.add_argument(
        "--threshold", type=float, default=0.01,
        help="usage threshold for the popularity policy",
    )
    debloat_cmd.add_argument(
        "--max-breakage", type=float, default=0.05,
        help="site-breakage budget for the CVE-greedy policy",
    )

    validate = commands.add_parser(
        "validate", help="run the section 6 validations"
    )
    _crawl_arguments(validate)

    chaos = commands.add_parser(
        "chaos",
        help="crawl the hostile web and verify every budget class "
        "fires (robustness smoke test; nonzero exit on any miss)",
    )
    chaos.add_argument("--visits", type=int, default=2)
    chaos.add_argument("--seed", type=int, default=2016)
    chaos.add_argument(
        "--workers", type=int, default=2,
        help="crawl workers; >= 2 also arms the hang/crash poison "
        "sites the watchdog must quarantine (default: 2)",
    )
    chaos.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"),
        default=None,
    )
    chaos.add_argument(
        "--hang-timeout", type=float, default=20.0,
        help="watchdog staleness limit for the poison sites "
        "(default: 20)",
    )
    chaos.add_argument(
        "--quarantine-threshold", type=int, default=2,
        help="strikes before a poison site is quarantined (default: 2)",
    )
    chaos.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="checkpoint the chaos run (strikes persist here too)",
    )
    chaos.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the failure + degraded reports to this file",
    )
    chaos.add_argument(
        "--net", action="store_true",
        help="also arm the network-fault pathologies (flaky, "
        "truncated, garbled, slow responses) and enable the "
        "per-request resilience layer that must absorb them",
    )
    chaos.add_argument(
        "--storage", action="store_true",
        help="run the checkpointed crawl through a fault-injecting "
        "durability layer (seeded ENOSPC/EIO/torn writes on every "
        "first attempt) and verify the result digest is identical "
        "to a clean run's, no fault escapes the retry layer, and "
        "the run dir passes fsck (requires --run-dir)",
    )
    chaos.add_argument(
        "--proc", action="store_true",
        help="process-fault arm: crawl a small web with injected "
        "worker SIGKILL, seeded MemoryError, result-pipe garbage/"
        "truncation and fork failures, and verify the measurement "
        "and trace digests are bit-identical to a clean run's and "
        "the run dir passes fsck with zero duplicate records "
        "(requires --run-dir; runs instead of the budget pathology "
        "matrix)",
    )
    chaos.add_argument(
        "--trace", action="store_true",
        help="record span traces next to the checkpoint shards "
        "(requires --run-dir; inspect with 'repro trace')",
    )
    chaos.add_argument(
        "--engine", choices=("tree", "compiled"), default="compiled",
        help="MiniJS execution tier (see the crawl commands)",
    )

    fsck = commands.add_parser(
        "fsck",
        help="integrity check of a survey checkpoint directory "
        "(read-only by default; nonzero exit on any corruption)",
    )
    fsck.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="a --run-dir directory from a (possibly interrupted) "
        "survey run",
    )
    fsck.add_argument(
        "--repair", action="store_true",
        help="apply the recoverable fixes offline: truncate torn "
        "shard tails, clean orphan *.tmp litter (completing an "
        "interrupted rename when the tmp is whole), reclaim stale "
        "locks, drop a survey.json that disagrees with its manifest; "
        "exit reflects the directory's state *after* repair",
    )
    fsck.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text for the terminal, json for tooling (default: text)",
    )

    trace = commands.add_parser(
        "trace",
        help="summarize the span trace a --trace crawl recorded: "
        "critical path, slowest sites/pages, phase and origin "
        "breakdowns, retry/breaker/quarantine timelines",
    )
    trace.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="a --run-dir directory crawled with --trace",
    )
    trace.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text for the terminal, json for tooling (default: text)",
    )
    trace.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="rows per ranking/timeline (default: 10)",
    )

    status = commands.add_parser(
        "status",
        help="read-only progress/health dashboard over a run "
        "directory (safe against a live, locked run)",
    )
    status.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="a --run-dir directory from a (possibly still running) "
        "survey run",
    )
    status.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-render every SECONDS until interrupted",
    )
    status.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text for the terminal, json for tooling (default: text)",
    )

    metrics = commands.add_parser(
        "metrics",
        help="export the runtime metrics of a run directory "
        "(read-only)",
    )
    metrics.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="a --run-dir directory from a survey run",
    )
    metrics.add_argument(
        "--format", choices=("openmetrics", "json"),
        default="openmetrics",
        help="OpenMetrics text exposition, or the latest snapshot "
        "envelope as JSON (default: openmetrics)",
    )

    export_cmd = commands.add_parser(
        "export", help="export every analysis as CSV datasets"
    )
    _crawl_arguments(export_cmd)
    export_cmd.add_argument("--out", default="data")
    export_cmd.add_argument(
        "--load", metavar="PATH",
        help="export a previously saved survey instead of crawling",
    )

    compare = commands.add_parser(
        "compare", help="score the crawl against the paper's numbers"
    )
    _crawl_arguments(compare)
    compare.add_argument(
        "--load", metavar="PATH",
        help="score a previously saved survey instead of crawling",
    )
    compare.add_argument(
        "--failures-only", action="store_true",
        help="only print the rows that miss their tolerance",
    )
    return parser


def _crawl_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sites", type=int, default=150)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--visits", type=int, default=3)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="parallel crawl workers (results are identical at any "
        "worker count; speedup needs multiple cores)",
    )
    parser.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="checkpoint every finished site to this directory; a "
        "killed run loses at most the site in flight",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume the interrupted crawl in --run-dir, skipping "
        "already-measured sites (result is bit-identical to an "
        "uninterrupted run)",
    )
    parser.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for --workers > 1 "
        "(default: fork where available, else spawn; results are "
        "bit-identical either way)",
    )
    parser.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="measurement attempts per site for transient failures "
        "(default: 3)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="SECONDS",
        help="base of the exponential backoff between retries "
        "(default: 0.5)",
    )
    resilience = parser.add_argument_group(
        "network resilience",
        "per-*request* fault handling inside a visit round (the "
        "--retries flag above re-measures whole sites; these absorb "
        "individual flaky requests without losing the page)",
    )
    resilience.add_argument(
        "--request-retries", type=int, default=2, metavar="N",
        help="wire attempts per request before it counts as lost; "
        "backoff between attempts is seeded from the survey seed and "
        "charged to the visit round's budget clock (default: 2; "
        "1 disables)",
    )
    resilience.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="consecutive transient failures before an origin's "
        "circuit breaker opens and requests fast-fail for a cooldown "
        "(default: 5; 0 disables)",
    )
    budgets = parser.add_argument_group(
        "site isolation budgets",
        "per-site-visit resource ceilings; a blown budget degrades the "
        "round into a partial measurement tagged with its cause "
        "(default: no limits)",
    )
    budgets.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per site visit round (all phases)",
    )
    budgets.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="interpreter step budget per visit round, across scripts",
    )
    budgets.add_argument(
        "--max-allocations", type=int, default=None, metavar="N",
        help="MiniJS object/array allocations per visit round",
    )
    budgets.add_argument(
        "--max-string-bytes", type=int, default=None, metavar="BYTES",
        help="bytes of MiniJS string the scripts may build per round",
    )
    budgets.add_argument(
        "--max-js-depth", type=int, default=None, metavar="N",
        help="MiniJS call depth before the recursion budget fires",
    )
    budgets.add_argument(
        "--max-dom-nodes", type=int, default=None, metavar="N",
        help="DOM nodes a visit round may create",
    )
    budgets.add_argument(
        "--max-page-fetches", type=int, default=None, metavar="N",
        help="subresource fetches a single page may issue",
    )
    budgets.add_argument(
        "--hang-timeout", type=float, default=300.0, metavar="SECONDS",
        help="parallel crawls: kill a worker whose heartbeat is this "
        "stale while it holds a site (default: 300; 0 disables)",
    )
    budgets.add_argument(
        "--quarantine-threshold", type=int, default=3, metavar="N",
        help="strikes (worker kills/hangs) before a site is "
        "quarantined and never dispatched again (default: 3)",
    )
    budgets.add_argument(
        "--lease-deadline", type=float, default=None, metavar="SECONDS",
        help="parallel crawls: total seconds a site's lease may stay "
        "out before the supervisor revokes it, kills the straggling "
        "worker and re-leases the site; a stale lease's late result "
        "is fenced off (default: no deadline)",
    )
    budgets.add_argument(
        "--max-worker-rss-mb", type=float, default=None, metavar="MB",
        help="recycle a crawl worker whose high-water RSS crosses "
        "this ceiling: the in-flight page finishes, the visit "
        "degrades with a structured memory-pressure cause, and a "
        "fresh process takes the slot (default: no ceiling)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record a span trace of the crawl next to the "
        "checkpoint shards (requires --run-dir; inspect afterwards "
        "with 'repro trace RUN_DIR')",
    )
    parser.add_argument(
        "--engine", choices=("tree", "compiled"), default="compiled",
        help="MiniJS execution tier: the closure-compiled engine "
        "(default) or the tree-walking reference oracle; both "
        "measure bit-identically, tree just runs slower",
    )
    parser.add_argument(
        "--no-metrics", action="store_true",
        help="skip the runtime metrics registry and its metrics.jsonl "
        "snapshots of unstable series (measurements and the stable "
        "series are identical either way)",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=10.0,
        metavar="SECONDS",
        help="minimum seconds between durable metrics snapshots "
        "(default: 10)",
    )


def _budget_from_args(args) -> "ResourceBudget":
    from repro.core.sandbox import ResourceBudget

    return ResourceBudget(
        deadline_seconds=args.deadline,
        max_steps=args.max_steps,
        max_allocations=args.max_allocations,
        max_string_bytes=args.max_string_bytes,
        max_call_depth=args.max_js_depth,
        max_dom_nodes=args.max_dom_nodes,
        max_fetches_per_page=args.max_page_fetches,
    )


def _require_run_dir_for_trace(args) -> None:
    if getattr(args, "trace", False) and not args.run_dir:
        raise CliError(
            "--trace records its spans next to the checkpoint "
            "shards; give it a --run-dir"
        )


def _run_crawl(args, quad: bool) -> tuple:
    _require_run_dir_for_trace(args)
    registry = default_registry()
    web = build_web(registry, n_sites=args.sites, seed=args.seed)
    conditions = [BrowsingCondition.DEFAULT, BrowsingCondition.BLOCKING]
    if quad:
        conditions += [
            BrowsingCondition.ABP_ONLY,
            BrowsingCondition.GHOSTERY_ONLY,
        ]
    config = SurveyConfig(
        conditions=tuple(conditions),
        visits_per_site=args.visits,
        seed=args.seed,
        workers=max(1, args.workers),
        start_method=args.start_method,
        retry=RetryPolicy(
            attempts=max(1, args.retries),
            backoff_base=max(0.0, args.retry_backoff),
        ),
        resilience=ResilienceConfig(
            request_attempts=max(1, args.request_retries),
            breaker_threshold=(
                args.breaker_threshold
                if args.breaker_threshold > 0 else None
            ),
        ),
        budget=_budget_from_args(args),
        hang_timeout=args.hang_timeout or None,
        quarantine_threshold=max(1, args.quarantine_threshold),
        lease_deadline=args.lease_deadline,
        max_worker_rss_mb=args.max_worker_rss_mb,
        trace=bool(args.trace),
        engine=args.engine,
        metrics=not args.no_metrics,
        metrics_interval=max(0.0, args.metrics_interval),
    )
    progress = None
    if args.run_dir:
        def progress(condition, done, total):
            sys.stderr.write(
                "[%s] %d/%d sites\n" % (condition, done, total)
            )
    result = run_survey(
        web, registry, config, progress=progress,
        run_dir=args.run_dir, resume=args.resume,
    )
    return web, result


def _command_survey(args, out) -> int:
    from repro.core import persistence

    wanted: List[str] = args.report or ["table1", "headlines"]
    if "all" in wanted:
        wanted = sorted(set(_REPORTS) - _HIDDEN_REPORTS)
    if args.load:
        result = persistence.load_survey(args.load)
    else:
        quad = bool(set(wanted) & _NEEDS_QUAD)
        _, result = _run_crawl(args, quad=quad)
        if args.run_dir and "progress" not in wanted:
            # Checkpointed runs always surface their crawl health —
            # the deterministic table only, so a resumed run's output
            # stays byte-identical to the uninterrupted one (the
            # run-varying cache vitals need --report progress or
            # --report timing).
            wanted.append("crawl-health")
    if args.save:
        persistence.save_survey(result, args.save)
        out.write("saved survey to %s\n" % args.save)
    for name in wanted:
        try:
            text = _REPORTS[name](result)
        except MissingCondition as error:
            out.write("== %s == (skipped: %s)\n\n" % (name, error))
            continue
        out.write("== %s ==\n%s\n\n" % (name, text))
    return 0


def _write_paths(out, paths, skipped) -> None:
    """The ``name -> path`` listing, then what was skipped and why."""
    for name in sorted(paths):
        out.write("%s -> %s\n" % (name, paths[name]))
    for name in sorted(skipped):
        out.write("%s skipped: %s\n" % (name, skipped[name]))


def _command_figures(args, out) -> int:
    from repro.core import charts, persistence
    from repro.core.validation import external_validation

    if args.load:
        result = persistence.load_survey(args.load)
        web = None
    else:
        web, result = _run_crawl(args, quad=True)
    external = None
    if web is not None:
        external = external_validation(
            result, web,
            n_target=min(100, args.sites),
            n_completed=min(92, max(1, args.sites - 8)),
            seed=args.seed,
        )
    skipped: Dict[str, str] = {}
    paths = charts.render_all(result, args.out, external=external,
                              skipped=skipped)
    _write_paths(out, paths, skipped)
    return 0


def _command_corpus(args, out) -> int:
    registry = default_registry()
    if args.standard:
        try:
            features = registry.features_of_standard(args.standard)
        except KeyError:
            out.write("unknown standard %r\n" % args.standard)
            return 1
        spec = registry.standard(args.standard)
        out.write("%s (%s): %d features\n"
                  % (spec.name, spec.abbrev, len(features)))
        for feature in features:
            marker = " " if feature.usage_rank is None else "*"
            out.write("  %s %s [%s]\n"
                      % (marker, feature.name, feature.kind))
        out.write("(* = observed in use on the Alexa 10k)\n")
        return 0
    # Summary (also the --summary default when nothing else asked).
    out.write("features:   %d\n" % registry.feature_count())
    out.write("standards:  %d\n" % registry.standard_count())
    out.write("never used: %d\n" % registry.never_used_feature_count())
    out.write("interfaces: %d\n" % len(registry.interfaces()))
    return 0


def _command_standards(args, out) -> int:
    registry = default_registry()
    rows = []
    for spec in registry.standards():
        if args.never_used and not spec.never_used:
            continue
        rows.append(
            (spec.abbrev, spec.name, str(spec.n_features),
             str(spec.sites), "%.1f%%" % (spec.block_rate * 100))
        )
    out.write(reporting.render_table(
        ("Abbrev", "Name", "Features", "Sites (paper)", "Block rate"),
        rows,
    ))
    out.write("\n")
    return 0


def _command_debloat(args, out) -> int:
    _, result = _run_crawl(args, quad=False)
    policies = [
        debloat.usage_threshold_policy(result, threshold=args.threshold),
        debloat.blocked_anyway_policy(result),
        debloat.cve_weighted_policy(result, max_breakage=args.max_breakage),
    ]
    for policy in policies:
        evaluation = debloat.evaluate_policy(result, policy)
        out.write(debloat.render_evaluation(evaluation))
        out.write("\n\n")
    return 0


def _command_export(args, out) -> int:
    from repro.core import export, persistence
    from repro.core.validation import external_validation

    if args.load:
        result = persistence.load_survey(args.load)
        external = None
    else:
        web, result = _run_crawl(args, quad=True)
        external = external_validation(
            result, web,
            n_target=min(100, args.sites),
            n_completed=min(92, max(1, args.sites - 8)),
            seed=args.seed,
        )
    skipped: Dict[str, str] = {}
    paths = export.export_all(result, args.out, external=external,
                              skipped=skipped)
    _write_paths(out, paths, skipped)
    return 0


def _command_compare(args, out) -> int:
    from repro.core import comparison, persistence

    if args.load:
        result = persistence.load_survey(args.load)
    else:
        _, result = _run_crawl(args, quad=False)
    rows = comparison.compare_to_paper(result)
    out.write(comparison.render_comparison(
        rows, failures_only=args.failures_only
    ))
    out.write("\n")
    passing, total = comparison.scorecard(result)
    return 0 if passing / max(1, total) >= 0.8 else 1


def _command_chaos(args, out) -> int:
    """Crawl the hostile web; verify every pathology was contained.

    The acceptance harness for site isolation: every budget-class
    site must degrade into a partial measurement tagged with *its*
    budget cause, the benign controls must still measure cleanly, and
    (with workers) the hang/crash sites must end quarantined.  Any
    miss is a nonzero exit — this is the CI smoke test.
    """
    from dataclasses import replace as replace_config

    from repro.core.sandbox import QUARANTINE_CAUSE
    from repro.core.storage import FaultyStorage, Storage
    from repro.webgen.hostile import (
        BUDGET_PATHOLOGIES,
        EXPECTED_CAUSES,
        chaos_budget,
        hostile_web,
    )

    _require_run_dir_for_trace(args)
    if args.proc:
        return _chaos_proc(args, out)
    include_storage = bool(args.storage)
    if include_storage and not args.run_dir:
        raise CliError(
            "--storage injects faults into the checkpoint's "
            "durability layer; give it a --run-dir"
        )
    workers = max(1, args.workers)
    include_poison = workers > 1
    include_net = bool(args.net)
    web = hostile_web(
        include_poison=include_poison, include_net=include_net
    )
    registry = default_registry()
    config = SurveyConfig(
        conditions=(BrowsingCondition.DEFAULT,),
        visits_per_site=max(1, args.visits),
        seed=args.seed,
        workers=workers,
        start_method=args.start_method,
        retry=RetryPolicy(attempts=1, backoff_base=0.0),
        # --net arms the per-request retry the flaky site requires;
        # without it the layer stays inert, as in the budget-only runs.
        resilience=ResilienceConfig(
            request_attempts=2 if include_net else 1
        ),
        budget=chaos_budget(),
        hang_timeout=args.hang_timeout or None,
        quarantine_threshold=max(1, args.quarantine_threshold),
        trace=bool(args.trace),
        engine=args.engine,
    )
    storage = None
    if include_storage:
        # Every durable write's first attempt fails (seeded ENOSPC /
        # EIO / torn write); the Storage retry layer must absorb all
        # of it without the crawl noticing.
        storage = FaultyStorage(seed=args.seed)
        config = replace_config(config, storage=storage)
    result = run_survey(
        web, registry, config,
        run_dir=args.run_dir, resume=False,
    )
    condition = BrowsingCondition.DEFAULT
    rows = []
    failures = 0

    def check(domain, ok, got):
        nonlocal failures
        if not ok:
            failures += 1
        rows.append((domain, got, "ok" if ok else "MISS"))

    if include_storage:
        from repro.core import persistence
        from repro.core.checkpoint import fsck_run_dir

        # Reference run: same crawl, no checkpointing, no faults.  The
        # measured result must not depend on what the storage layer
        # endured.
        clean = run_survey(
            web, registry, replace_config(config, storage=Storage()),
        )
        stats = storage.stats
        check("storage.faults", stats["faults_injected"] > 0,
              "injected=%d" % stats["faults_injected"])
        check("storage.absorbed", stats["faults_unabsorbed"] == 0,
              "unabsorbed=%d" % stats["faults_unabsorbed"])
        check(
            "storage.digest",
            persistence.survey_digest(result)
            == persistence.survey_digest(clean),
            "faulty==clean: %s"
            % (persistence.survey_digest(result)
               == persistence.survey_digest(clean)),
        )
        fsck_ok, _ = fsck_run_dir(args.run_dir)
        check("storage.fsck", fsck_ok, "clean" if fsck_ok else "damage")

    for pathology in BUDGET_PATHOLOGIES:
        domain = "%s.chaos" % pathology
        m = result.measurement(condition, domain)
        expected = EXPECTED_CAUSES[pathology]
        check(domain, m.budget_cause == expected and not m.measured,
              "budget_cause=%s" % m.budget_cause)
    for domain in sorted(web.sites):
        if not domain.startswith("ok-"):
            continue
        m = result.measurement(condition, domain)
        check(domain, m.measured, "rounds_ok=%d" % m.rounds_ok)
    if include_poison:
        for domain in web.hang_domains + web.crash_domains:
            m = result.measurement(condition, domain)
            check(domain, m.budget_cause == QUARANTINE_CAUSE,
                  "budget_cause=%s" % m.budget_cause)
    if include_net:
        for domain in web.flaky_domains:
            # Every first attempt resets; the retry layer must absorb
            # it invisibly — measured, retried, nothing degraded.
            m = result.measurement(condition, domain)
            check(domain, m.measured and m.requests_retried > 0,
                  "rounds_ok=%d retried=%d"
                  % (m.rounds_ok, m.requests_retried))
        for domain in web.truncate_domains + web.garbage_domains:
            # Damaged bytes: the recovering parser must salvage the
            # page — measured, with the loss on the degraded ledger.
            m = result.measurement(condition, domain)
            check(domain, m.measured and m.degraded_resources > 0,
                  "rounds_ok=%d degraded=%d"
                  % (m.rounds_ok, m.degraded_resources))
        for domain in web.slow_domains:
            # 45 s synthetic latency vs a 30 s deadline: the budget,
            # not a hang, must end the visit.
            m = result.measurement(condition, domain)
            check(domain,
                  not m.measured and m.budget_cause == "deadline",
                  "budget_cause=%s" % m.budget_cause)
    out.write(reporting.render_table(
        ("Site", "Outcome", "Verdict"), rows
    ))
    out.write("\n\n")
    report = reporting.failure_report_text(result)
    out.write("== failures ==\n%s\n" % report)
    if include_net:
        degraded = reporting.degraded_report_text(result)
        out.write("\n== degraded ==\n%s\n" % degraded)
        report = "%s\n\n== degraded ==\n%s" % (report, degraded)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
            handle.write("\n")
        out.write("failure report written to %s\n" % args.out)
    out.write(
        "chaos: %d checks, %d missed\n" % (len(rows), failures)
    )
    return 1 if failures else 0


def _chaos_proc(args, out) -> int:
    """The process-fault acceptance arm (``repro chaos --proc``).

    Crawls a small synthetic web twice: once through the proc-chaos
    plan (worker SIGKILL mid-fetch, seeded MemoryError at an
    allocation boundary, garbage and torn frames on the result pipes,
    injected fork failures) and once clean.  Every fault fires on a
    site's *first* lease epoch; the supervisor strikes, re-leases and
    re-measures, so the surviving records must be bit-identical to the
    clean run's — the faults are visible only in the process-fault
    telemetry, strike ledger and absorbed-corruption counters.
    """
    from repro.core import persistence
    from repro.core.checkpoint import fsck_run_dir
    from repro.core.procchaos import ProcChaosPlan, ProcChaosSource
    from repro.core.sandbox import ResourceBudget
    from repro.core.tracereport import load_trace_records
    from repro.obs import trace_digest

    if not args.run_dir:
        raise CliError(
            "--proc verifies the checkpointed run dir (lease fsck, "
            "zero duplicates); give it a --run-dir"
        )
    workers = max(2, args.workers)
    registry = default_registry()
    clean_web = build_web(registry, n_sites=8, seed=args.seed)
    domains = sorted(clean_web.sites)
    plan = ProcChaosPlan(
        seed=args.seed,
        kill_domains=(domains[0],),
        memerr_domains=(domains[1],),
        garbage_domains=(domains[2],),
        truncate_domains=(domains[3],),
        spawn_failures=2,
        memerr_at_allocation=1,
    )
    config = SurveyConfig(
        conditions=(BrowsingCondition.DEFAULT,),
        visits_per_site=max(1, args.visits),
        seed=args.seed,
        workers=workers,
        start_method=args.start_method,
        retry=RetryPolicy(attempts=1, backoff_base=0.0),
        # Limited so a meter exists: the allocation-boundary fault
        # hook only runs on metered visits.  The cap itself is far
        # above anything the web allocates.
        budget=ResourceBudget(max_allocations=10_000_000),
        hang_timeout=args.hang_timeout or None,
        quarantine_threshold=max(2, args.quarantine_threshold),
        trace=True,
        engine=args.engine,
    )
    clean_dir = args.run_dir.rstrip("/\\") + "-clean"
    result = run_survey(
        ProcChaosSource(clean_web, plan), registry, config,
        run_dir=args.run_dir, resume=False,
    )
    clean = run_survey(
        clean_web, registry, config, run_dir=clean_dir, resume=False,
    )
    rows = []
    failures = 0

    def check(domain, ok, got):
        nonlocal failures
        if not ok:
            failures += 1
        rows.append((domain, got, "ok" if ok else "MISS"))

    faults = result.process_faults
    check("proc.kill", faults.get("watchdog_kills", 0) >= 1,
          "watchdog_kills=%d" % faults.get("watchdog_kills", 0))
    check("proc.memerr", faults.get("worker_faults", 0) >= 1,
          "worker_faults=%d" % faults.get("worker_faults", 0))
    check("proc.frames", faults.get("frame_errors", 0) >= 2,
          "frame_errors=%d" % faults.get("frame_errors", 0))
    check("proc.spawn", faults.get("spawn_retries", 0) >= 2,
          "spawn_retries=%d" % faults.get("spawn_retries", 0))
    check(
        "proc.digest",
        persistence.survey_digest(result)
        == persistence.survey_digest(clean),
        "faulty==clean: %s"
        % (persistence.survey_digest(result)
           == persistence.survey_digest(clean)),
    )
    check(
        "proc.trace-digest",
        trace_digest(load_trace_records(args.run_dir))
        == trace_digest(load_trace_records(clean_dir)),
        "faulty==clean: %s"
        % (trace_digest(load_trace_records(args.run_dir))
           == trace_digest(load_trace_records(clean_dir))),
    )
    for label, run_dir in (("proc.fsck", args.run_dir),
                           ("proc.fsck-clean", clean_dir)):
        fsck_ok, _ = fsck_run_dir(run_dir)
        check(label, fsck_ok, "clean" if fsck_ok else "damage")
    out.write(reporting.render_table(
        ("Check", "Outcome", "Verdict"), rows
    ))
    out.write("\nproc chaos: %d checks, %d missed\n"
              % (len(rows), failures))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(reporting.render_table(
                ("Check", "Outcome", "Verdict"), rows
            ))
            handle.write("\n")
        out.write("proc chaos report written to %s\n" % args.out)
    return 1 if failures else 0


def _command_fsck(args, out) -> int:
    """Check (and with --repair, fix) a run directory's integrity."""
    import json as _json

    from repro.core.checkpoint import fsck_lines, fsck_report

    report = fsck_report(args.run_dir, repair=args.repair)
    if args.format == "json":
        _json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        for line in fsck_lines(report):
            out.write(line + "\n")
    return 0 if report["ok"] else 1


def _command_trace(args, out) -> int:
    """Summarize a recorded span trace."""
    import json as _json

    from repro.core import tracereport

    top = tracereport.DEFAULT_TOP if args.top is None else args.top
    if top < 1:
        raise CliError("--top must be at least 1")
    try:
        report = tracereport.build_trace_report(args.run_dir, top=top)
    except tracereport.TraceMissing as missing:
        # A valid run that simply never traced: warn and exit 0 — the
        # mismatch is benign, unlike a traced run with damaged shards.
        if args.format == "json":
            _json.dump(
                {"run_dir": args.run_dir, "traced": False,
                 "warning": str(missing)},
                out, indent=2, sort_keys=True,
            )
            out.write("\n")
        else:
            out.write("warning: %s\n" % missing)
        return 0
    if args.format == "json":
        _json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(tracereport.trace_report_text(report))
        out.write("\n")
    return 0


def _command_status(args, out) -> int:
    """Render the read-only run dashboard (optionally polling)."""
    import json as _json
    import time as _time

    from repro.core import statusreport

    def render() -> None:
        status = statusreport.build_status(args.run_dir)
        if args.format == "json":
            _json.dump(status, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            out.write(statusreport.status_text(status))
            out.write("\n")

    if args.watch is None:
        render()
        return 0
    if args.watch <= 0:
        raise CliError("--watch needs a positive interval")
    try:
        while True:
            render()
            out.write("\n")
            if hasattr(out, "flush"):
                out.flush()
            _time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0


def _command_metrics(args, out) -> int:
    """Export a run directory's metric series.

    Stable series are derived from the shards, unstable ones come from
    the latest ``metrics.jsonl`` snapshot (if the run has any).
    """
    import json as _json

    from repro.core import runmetrics, statusreport

    view = statusreport.metrics_view(args.run_dir)
    if args.format == "json":
        _json.dump(view, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(runmetrics.render_openmetrics(view["metrics"]))
    return 0


def _command_validate(args, out) -> int:
    web, result = _run_crawl(args, quad=False)
    out.write("== Internal validation (Table 3) ==\n")
    out.write(reporting.table3_text(internal_validation(result)))
    out.write("\n\n== External validation (Figure 9) ==\n")
    outcome = external_validation(
        result, web,
        n_target=min(100, args.sites),
        n_completed=min(92, max(1, args.sites - 8)),
        seed=args.seed,
    )
    out.write(reporting.figure9_series(outcome))
    out.write("\n")
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    from repro.core.checkpoint import CheckpointError
    from repro.core.statusreport import StatusError
    from repro.core.storage import RunLockError, StorageError
    from repro.core.survey import SurveyInterrupted
    from repro.core.tracereport import TraceReportError

    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on bad usage but 0 for --help/--version;
        # normalize so embedding callers always get an int back and
        # scripts can rely on "2 == bad invocation".
        return 0 if exit_.code in (0, None) else 2
    handler = {
        "survey": _command_survey,
        "figures": _command_figures,
        "corpus": _command_corpus,
        "standards": _command_standards,
        "debloat": _command_debloat,
        "validate": _command_validate,
        "chaos": _command_chaos,
        "fsck": _command_fsck,
        "trace": _command_trace,
        "status": _command_status,
        "metrics": _command_metrics,
        "compare": _command_compare,
        "export": _command_export,
    }[args.command]
    try:
        return handler(args, out)
    except BrokenPipeError:
        # The reader went away (`repro trace … | head`).  Not an
        # error; redirect stdout at the descriptor level so the
        # interpreter's exit-time flush cannot trip over it again.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except CliError as error:
        out.write("usage error: %s\n" % error)
        return 2
    except CheckpointError as error:
        out.write("checkpoint error: %s\n" % error)
        return 2
    except RunLockError as error:
        out.write("run-dir locked: %s\n" % error)
        return 2
    except SurveyInterrupted as error:
        out.write("interrupted: %s\n" % error)
        return 3
    except StorageError as error:
        out.write(
            "storage error: %s\nthe run directory is resumable — "
            "free space / fix the device and rerun with --resume\n"
            % error
        )
        return 1
    except TraceReportError as error:
        out.write("trace error: %s\n" % error)
        return 2
    except StatusError as error:
        out.write("status error: %s\n" % error)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
