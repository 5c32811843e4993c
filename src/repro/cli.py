"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``survey``   — crawl a synthetic web and print the chosen reports
* ``corpus``   — inspect the WebIDL corpus / feature registry
* ``standards``— print the standards catalog (the study's targets)
* ``debloat``  — run the crawl and evaluate debloating policies
* ``validate`` — run the section 6 internal/external validation
* ``chaos``    — crawl under one seeded fault plan whose arms combine
  (``--arms budget,net,storage,proc``) and verify every fault was
  contained: each resource budget and the worker watchdog catch their
  designated hostile site, the resilience layer absorbs the network
  faults, and with storage or process faults armed the measurement,
  trace and metrics digests equal a reference crawl's, with both run
  dirs passing fsck
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
        help="crawl under a seeded fault plan and verify every fault "
        "was contained (robustness smoke test; nonzero exit on any miss)",
    )
    chaos.add_argument("--visits", type=int, default=2)
    chaos.add_argument("--seed", type=int, default=2016)
    chaos.add_argument(
        "--arms", type=_chaos_arms, default="budget",
        metavar="ARM[,ARM...]",
        help="fault arms to combine, any of %s (default: budget).  "
        "budget: the hostile web's budget pathologies (and hang/crash "
        "sites with >= 2 workers); net: its network faults (implies "
        "budget); storage: disk faults; proc: worker faults (>= 2 "
        "workers).  storage and proc re-crawl with both off into "
        "DIR/reference and require equal digests (needs --run-dir)"
        % ",".join(CHAOS_ARMS),
    )
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
        help="also write the check table and the failure (and "
        "degraded) reports to this file",
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


#: ``repro chaos --arms`` choices
CHAOS_ARMS = ("budget", "net", "storage", "proc")


def _chaos_arms(text: str) -> frozenset:
    arms = frozenset(arm.strip() for arm in text.split(",") if arm.strip())
    if not arms or not arms <= set(CHAOS_ARMS):
        raise argparse.ArgumentTypeError(
            "expected a comma-separated subset of %s, got %r"
            % (",".join(CHAOS_ARMS), text)
        )
    return arms


def _command_chaos(args, out) -> int:
    """Crawl under one seeded fault plan; verify every fault was contained.

    ``budget`` (implied by ``net``) crawls the hostile web: every
    budget-class site must degrade into a partial measurement tagged
    with *its* budget cause, the benign controls must still measure,
    and with workers the hang/crash sites must end quarantined; ``net``
    adds the network-fault sites.  Without ``budget`` the crawl covers
    a small synthetic web.
    ``proc`` and ``storage`` faults must cost wall-clock, never
    measurements: the run is re-crawled with both off into
    ``<run-dir>/reference`` (the hang and crash sites struck out up
    front, never dispatched), and the digests must match.  Any miss is
    a nonzero exit — this is the CI smoke test.
    """
    import os
    from dataclasses import replace as replace_config

    from repro.core import persistence
    from repro.core.checkpoint import SurveyCheckpoint, fsck_run_dir
    from repro.core.faults import LAYERS, FaultPlan, FaultSource
    from repro.core.sandbox import QUARANTINE_CAUSE, ResourceBudget
    from repro.core.statusreport import run_metrics_digest
    from repro.core.storage import FaultyStorage
    from repro.core.tracereport import load_trace_records
    from repro.obs import trace_digest
    from repro.webgen.hostile import (
        BUDGET_PATHOLOGIES,
        EXPECTED_CAUSES,
        HostileWeb,
        chaos_budget,
    )

    _require_run_dir_for_trace(args)
    arms = args.arms | ({"budget"} if "net" in args.arms else set())
    referenced = "proc" in arms or "storage" in arms
    if referenced and not args.run_dir:
        raise CliError(
            "--arms storage/proc check the checkpointed run dir "
            "against a reference crawl; give it a --run-dir"
        )
    workers = max(2 if "proc" in arms else 1, args.workers)
    registry = default_registry()
    if "budget" in arms:
        web = HostileWeb(
            include_poison=workers > 1, include_net="net" in arms
        )
        net_faults = web.net_faults()
        controls = sorted(d for d in web.sites if d.startswith("ok-"))
        budget = chaos_budget()
    else:
        web = build_web(registry, n_sites=8, seed=args.seed)
        net_faults = {}
        controls = sorted(web.sites)
        # Limited so a meter exists: the allocation-boundary fault
        # hook only runs on metered visits.  The cap itself is far
        # above anything the web allocates.
        budget = ResourceBudget(max_allocations=10_000_000)
    proc_faults = {}
    if "proc" in arms:
        # One process fault of each kind, each on its own site.
        proc_faults = {
            domain: {"proc": [kind]}
            for domain, kind in zip(controls, LAYERS["proc"])
        }
    plan = FaultPlan(
        {**net_faults, **proc_faults}, seed=args.seed,
        spawn_failures=2 if "proc" in arms else 0,
    )
    # The sites whose worker the plan takes down on every dispatch:
    # quarantine is their only verdict.
    poison = plan.domains("net", "hang") + plan.domains("net", "crash")
    config = SurveyConfig(
        conditions=(BrowsingCondition.DEFAULT,),
        visits_per_site=max(1, args.visits),
        seed=args.seed,
        workers=workers,
        start_method=args.start_method,
        retry=RetryPolicy(attempts=1, backoff_base=0.0),
        # net arms the per-request retry the flaky site requires;
        # without it the layer stays inert.
        resilience=ResilienceConfig(
            request_attempts=2 if "net" in arms else 1
        ),
        budget=budget,
        hang_timeout=args.hang_timeout or None,
        # A proc-faulted site takes one strike and must survive it.
        quarantine_threshold=max(
            2 if "proc" in arms else 1, args.quarantine_threshold
        ),
        trace=bool(args.trace) or referenced,
        engine=args.engine,
    )
    storage = None
    if "storage" in arms:
        # Every durable write's first attempt fails (seeded ENOSPC /
        # EIO / torn write); the Storage retry layer must absorb all
        # of it without the crawl noticing.
        storage = FaultyStorage(seed=plan.seed)
    result = run_survey(
        FaultSource(web, plan), registry,
        replace_config(config, storage=storage) if storage else config,
        run_dir=args.run_dir, resume=False,
    )
    condition = BrowsingCondition.DEFAULT
    rows = []

    def check(name, ok, got):
        rows.append((name, got, "ok" if ok else "MISS"))

    if "budget" in arms:
        for pathology in BUDGET_PATHOLOGIES:
            domain = "%s.chaos" % pathology
            m = result.measurement(condition, domain)
            check(domain,
                  m.budget_cause == EXPECTED_CAUSES[pathology]
                  and not m.measured,
                  "budget_cause=%s" % m.budget_cause)
        for domain in controls:
            m = result.measurement(condition, domain)
            check(domain, m.measured, "rounds_ok=%d" % m.rounds_ok)
        for domain in poison:
            m = result.measurement(condition, domain)
            check(domain, m.budget_cause == QUARANTINE_CAUSE,
                  "budget_cause=%s" % m.budget_cause)
    if "net" in arms:
        for domain in plan.domains("net", "flaky"):
            # Every first attempt resets; the retry layer must absorb
            # it invisibly — measured, retried, nothing degraded.
            m = result.measurement(condition, domain)
            check(domain, m.measured and m.requests_retried > 0,
                  "rounds_ok=%d retried=%d"
                  % (m.rounds_ok, m.requests_retried))
        for domain in (plan.domains("net", "truncate")
                       + plan.domains("net", "garbage")):
            # Damaged bytes: the recovering parser must salvage the
            # page — measured, with the loss on the degraded ledger.
            m = result.measurement(condition, domain)
            check(domain, m.measured and m.degraded_resources > 0,
                  "rounds_ok=%d degraded=%d"
                  % (m.rounds_ok, m.degraded_resources))
        for domain in plan.domains("net", "slow"):
            # 45 s synthetic latency vs a 30 s deadline: the budget,
            # not a hang, must end the visit.
            m = result.measurement(condition, domain)
            check(domain,
                  not m.measured and m.budget_cause == "deadline",
                  "budget_cause=%s" % m.budget_cause)
    if "proc" in arms:
        faults = result.process_faults
        for name, key, least in (
            ("proc.kill", "watchdog_kills", 1),
            ("proc.memerr", "worker_faults", 1),
            ("proc.frames", "frame_errors", 2),
            ("proc.spawn", "spawn_retries", 2),
        ):
            got = faults.get(key, 0)
            check(name, got >= least, "%s=%d" % (key, got))
    if storage is not None:
        stats = storage.stats
        check("storage.faults", stats["faults_injected"] > 0,
              "injected=%d" % stats["faults_injected"])
        check("storage.absorbed", stats["faults_unabsorbed"] == 0,
              "unabsorbed=%d" % stats["faults_unabsorbed"])
    if referenced:
        # The same crawl with the storage and proc arms off: what was
        # measured must not depend on what the disk or the worker
        # processes went through.  The poison sites are struck out up
        # front, so the reference records their verdicts without
        # dispatching them again (and waiting out the hang a second
        # time).  Only those: a site the faulty run struck out wrongly
        # is measured here, and the digests tell.
        reference_dir = os.path.join(args.run_dir, "reference")
        checkpoint = SurveyCheckpoint.attach(
            reference_dir, registry, config, result.domains
        )
        for domain in poison:
            for _ in range(config.quarantine_threshold):
                checkpoint.add_strike(domain)
        checkpoint.close()
        reference = run_survey(
            FaultSource(web, FaultPlan(net_faults, seed=args.seed)),
            registry, config, run_dir=reference_dir, resume=True,
        )
        for name, digest, faulty, clean in (
            ("reference.digest", persistence.survey_digest,
             result, reference),
            ("reference.trace-digest",
             lambda run_dir: trace_digest(load_trace_records(run_dir)),
             args.run_dir, reference_dir),
            ("reference.metrics-digest", run_metrics_digest,
             args.run_dir, reference_dir),
        ):
            same = digest(faulty) == digest(clean)
            check(name, same, "faulty==reference: %s" % same)
        for name, run_dir in (("fsck", args.run_dir),
                              ("fsck.reference", reference_dir)):
            fsck_ok, _ = fsck_run_dir(run_dir)
            check(name, fsck_ok, "clean" if fsck_ok else "damage")
    report = "%s\n\n== failures ==\n%s\n" % (
        reporting.render_table(("Check", "Outcome", "Verdict"), rows),
        reporting.failure_report_text(result),
    )
    if "net" in arms:
        report += "\n== degraded ==\n%s\n" % (
            reporting.degraded_report_text(result)
        )
    out.write(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        out.write("chaos report written to %s\n" % args.out)
    missed = sum(1 for row in rows if row[2] != "ok")
    out.write("chaos: %d checks, %d missed\n" % (len(rows), missed))
    return 1 if missed else 0


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
