"""Render analyses as paper-style text tables and plot-ready series."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import analysis
from repro.core.survey import SurveyResult
from repro.core.validation import ExternalValidationOutcome


def _format_rate(rate: Optional[float]) -> str:
    if rate is None:
        return "-"
    return "%.1f%%" % (rate * 100.0)


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """A plain, aligned text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def table1_text(result: SurveyResult) -> str:
    summary = analysis.table1_crawl_summary(result)
    rows = [
        ("Domains measured", "{:,}".format(summary.domains_measured)),
        ("Domains failed", "{:,}".format(summary.domains_failed)),
        ("Domains degraded (measured, resources lost)",
         "{:,}".format(summary.domains_degraded)),
        ("Total website interaction time",
         "%.1f days" % summary.interaction_days),
        ("Web pages visited", "{:,}".format(summary.pages_visited)),
        ("Feature invocations recorded",
         "{:,}".format(summary.feature_invocations)),
    ]
    return render_table(("Quantity", "Value"), rows)


def table2_text(result: SurveyResult) -> str:
    rows = [
        (
            row.name,
            row.abbrev,
            str(row.features),
            "{:,}".format(row.sites),
            _format_rate(row.block_rate),
            str(row.cves),
        )
        for row in analysis.table2_standard_summary(result)
    ]
    return render_table(
        ("Standard Name", "Abbrev", "# Features", "# Sites", "Block Rate",
         "# CVEs"),
        rows,
    )


def table3_text(rows: List[Tuple[int, float]]) -> str:
    return render_table(
        ("Round #", "Avg. New Standards"),
        [(str(round_index), "%.2f" % avg) for round_index, avg in rows],
    )


#: what a headline line reads when the survey cannot support it
NO_BLOCKING = "skipped (survey lacks the blocking condition)"


def headline_text(result: SurveyResult) -> str:
    stats = analysis.headline_feature_statistics(result)
    blocked = under_blocked = NO_BLOCKING
    if stats.blocked_over_90_features is not None:
        blocked = "%d (%.1f%%)" % (
            stats.blocked_over_90_features,
            100 * stats.blocked_over_90_features / stats.total_features,
        )
        under_blocked = "%d (%.1f%%)" % (
            stats.under_one_percent_with_blocking,
            100 * stats.blocked_under_one_percent_fraction,
        )
    lines = [
        "Features instrumented:        %d" % stats.total_features,
        "Never used:                   %d (%.1f%%)"
        % (stats.never_used_features, 100 * stats.never_used_fraction),
        "Used on <1%% of sites:         %d (cumulative %.1f%%)"
        % (
            stats.under_one_percent_features,
            100 * stats.under_one_percent_fraction,
        ),
        "Blocked >90% of the time:     " + blocked,
        "On <1% of sites w/ blocking:  " + under_blocked,
        "Standards:                    %d (%d never used, %d on <=1%%)"
        % (
            stats.total_standards,
            stats.never_used_standards,
            stats.under_one_percent_standards,
        ),
    ]
    return "\n".join(lines)


def figure3_series(result: SurveyResult) -> str:
    points = analysis.figure3_standard_popularity_cdf(result)
    rows = [
        (str(sites), "%.1f%%" % (fraction * 100)) for sites, fraction in points
    ]
    return render_table(("Sites using standard", "Portion of standards"),
                        rows)


def figure4_series(result: SurveyResult) -> str:
    points = analysis.figure4_popularity_vs_block_rate(result)
    rows = [
        (p.abbrev, "{:,}".format(p.sites), _format_rate(p.block_rate))
        for p in sorted(points, key=lambda p: -p.sites)
    ]
    return render_table(("Standard", "Sites", "Block rate"), rows)


def figure5_series(result: SurveyResult) -> str:
    points = analysis.figure5_site_vs_traffic_popularity(result)
    rows = [
        (
            p.abbrev,
            "%.1f%%" % (p.site_fraction * 100),
            "%.1f%%" % (p.visit_fraction * 100),
            "%+.1f%%" % (p.skew * 100),
        )
        for p in sorted(points, key=lambda p: -abs(p.skew))
    ]
    return render_table(
        ("Standard", "% of sites", "% of visits", "Skew"), rows
    )


def figure6_series(result: SurveyResult) -> str:
    points = analysis.figure6_age_vs_popularity(result)
    rows = [
        (
            p.abbrev,
            p.introduced.isoformat(),
            "{:,}".format(p.sites),
            p.block_band,
        )
        for p in sorted(points, key=lambda p: p.introduced)
    ]
    return render_table(
        ("Standard", "Introduced", "Sites", "Block band"), rows
    )


def figure7_series(result: SurveyResult) -> str:
    points = analysis.figure7_ad_vs_tracking_block(result)
    rows = [
        (
            p.abbrev,
            "{:,}".format(p.sites),
            _format_rate(p.ad_block_rate),
            _format_rate(p.tracking_block_rate),
        )
        for p in sorted(points, key=lambda p: -p.sites)
    ]
    return render_table(
        ("Standard", "Sites", "Ad block rate", "Tracking block rate"), rows
    )


def figure8_series(result: SurveyResult) -> str:
    pdf = analysis.figure8_site_complexity_pdf(result)
    rows = [
        (str(count), "%.1f%%" % (fraction * 100))
        for count, fraction in pdf.items()
    ]
    return render_table(("Standards used", "Portion of sites"), rows)


def figure9_series(outcome: ExternalValidationOutcome) -> str:
    rows = [
        (str(new_count), str(domains))
        for new_count, domains in outcome.histogram.items()
    ]
    table = render_table(
        ("New standards observed", "Number of domains"), rows
    )
    return "%s\n(%d sites compared, %.1f%% with nothing new)" % (
        table, outcome.sites_compared, outcome.zero_fraction * 100
    )


def failure_report_text(result: SurveyResult) -> str:
    """Every unmeasured (condition, domain) with its cause and attempts.

    ``transient`` marks failures the retry policy gave up on — the
    candidates worth re-crawling — versus deterministic ones (dead
    hosts, scriptless sites) that re-running cannot fix.  A summary
    groups failures by structured cause (the budget class, quarantine,
    or the failure string) with the worst overshoot per cause, so a
    budget tuned 10x too tight reads differently from one a site
    barely grazed.
    """
    rows: List[Tuple[str, str, str, str, str]] = []
    by_cause: Dict[str, List] = {}
    for condition in result.conditions:
        for failure in result.failed_domains(condition):
            rows.append((
                str(failure),
                condition,
                failure.cause or "unknown",
                str(failure.attempts),
                "yes" if failure.transient else "no",
            ))
            cause_key = (failure.budget_cause
                         or failure.cause or "unknown")
            by_cause.setdefault(cause_key, []).append(failure)
    if not rows:
        return "no failed domains"
    table = render_table(
        ("Domain", "Condition", "Cause", "Attempts", "Transient"), rows
    )
    summary_lines = ["by cause:"]
    for cause_key in sorted(by_cause):
        failures = by_cause[cause_key]
        line = "  %s: %d site%s" % (
            cause_key, len(failures), "" if len(failures) == 1 else "s"
        )
        worst = max(f.overshoot for f in failures)
        if worst > 0.0:
            line += ", worst overshoot %.1fx" % worst
        summary_lines.append(line)
    return "%s\n\n%s" % (table, "\n".join(summary_lines))


def compile_cache_text(result: SurveyResult) -> str:
    """The crawl's compile-cache counters, as a table.

    ``hits``/``misses``/``evictions`` answer "did each distinct script
    body parse exactly once?" (a healthy crawl shows a hit rate near
    1.0 and zero evictions); ``parse_seconds`` is the residual cost the
    cache could not avoid.
    """
    cache = result.compile_cache
    if not cache:
        return "no compile-cache statistics recorded"
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    lookups = hits + misses
    rows = [
        ("Cache hits", "{:,}".format(int(hits))),
        ("Cache misses (bodies parsed)", "{:,}".format(int(misses))),
        ("Hit rate",
         _format_rate(hits / lookups if lookups else None)),
        ("Evictions", "{:,}".format(int(cache.get("evictions", 0)))),
        ("Syntax-error hits",
         "{:,}".format(int(cache.get("error_hits", 0)))),
        ("Entries resident", "{:,}".format(int(cache.get("entries", 0)))),
        ("Source bytes compiled",
         "{:,}".format(int(cache.get("compiled_bytes", 0)))),
        ("Parse wall time", "%.2f s" % cache.get("parse_seconds", 0.0)),
    ]
    return render_table(("Compile cache", "Value"), rows)


def crawl_health_text(result: SurveyResult) -> str:
    """Per-condition crawl health: done / failed / retried sites.

    Depends only on what was *measured*, so a resumed run prints the
    same table as the uninterrupted one — the CLI appends it to every
    checkpointed run for exactly that reproducibility.
    """
    rows = []
    for condition in result.conditions:
        total = len(result.domains)
        measured = len(result.measured_domains(condition))
        rows.append((
            condition,
            "%d/%d" % (measured, total),
            str(total - measured),
            str(len(result.degraded_domains(condition))),
            str(len(result.retried_domains(condition))),
        ))
    return render_table(
        ("Condition", "Measured", "Failed", "Degraded", "Retried"), rows
    )


def degraded_report_text(result: SurveyResult) -> str:
    """Every degraded (condition, domain) with its lost resources.

    Degraded sites *were* measured — their pages loaded and their
    features counted — but lost subresources or needed HTML salvage
    along the way, so their numbers are lower bounds.  The report lists
    each site's structured causes (slug + url + wire attempts) and a
    per-slug summary, keeping the loss ledger separate from the failure
    ledger (:func:`failure_report_text`)."""
    rows: List[Tuple[str, str, str, str, str]] = []
    by_slug: Dict[str, int] = {}
    total_lost = 0
    for condition in result.conditions:
        for domain in result.degraded_domains(condition):
            m = result.measurements[condition][domain]
            total_lost += m.degraded_resources
            for cause in m.degraded:
                rows.append((
                    domain,
                    condition,
                    cause.slug,
                    cause.url,
                    str(cause.attempts),
                ))
                by_slug[cause.slug] = by_slug.get(cause.slug, 0) + 1
    if not rows:
        return "no degraded domains"
    table = render_table(
        ("Domain", "Condition", "Cause", "URL", "Attempts"), rows
    )
    summary_lines = [
        "by cause (%d distinct losses, %d occurrences):"
        % (len(rows), total_lost)
    ]
    for slug in sorted(by_slug):
        summary_lines.append("  %s: %d" % (slug, by_slug[slug]))
    return "%s\n\n%s" % (table, "\n".join(summary_lines))


def telemetry_report_text(result: SurveyResult) -> str:
    """Every canonical counter the crawl keeps, in one table.

    Per-condition sums of the per-site counters (the single source of
    truth is :data:`repro.browser.session.TELEMETRY_COUNTERS` on
    ``SiteMeasurement``), the quarantine count, and the run-wide
    compile-cache traffic.  The telemetry-schema test pins that
    nothing surfaced here lives anywhere else.
    """
    from repro.browser.session import TELEMETRY_COUNTERS

    rows = []
    for condition in result.conditions:
        totals = result.telemetry_totals(condition)
        rows.append(
            (condition,)
            + tuple("{:,}".format(totals[name])
                    for name in TELEMETRY_COUNTERS)
            + (str(len(result.quarantined_domains(condition))),)
        )
    headers = ("Condition",) + tuple(
        name.replace("_", " ") for name in TELEMETRY_COUNTERS
    ) + ("quarantined",)
    table = render_table(headers, rows)
    cache = result.compile_cache
    footer = "compile cache: %d hit(s), %d miss(es)" % (
        int(cache.get("hits", 0)), int(cache.get("misses", 0)),
    ) if cache else "compile cache: no statistics recorded"
    return "%s\n\n%s" % (table, footer)


def progress_report_text(result: SurveyResult) -> str:
    """Crawl health plus the run's compile-cache vitals.

    The vitals describe *this process's* work (a resumed or warm-cache
    run reports different counters for the same data), so they live in
    the explicitly requested report, not the always-printed health
    table.  Per-phase time comes from the spans (``repro trace``)."""
    report = crawl_health_text(result)
    if result.compile_cache:
        report += "\n\n" + compile_cache_text(result)
    return report


def checkpoint_status_text(
    done_counts: Dict[str, int], n_domains: int
) -> str:
    """Resume-aware progress: sites done / remaining per condition."""
    rows = [
        (condition, str(done), str(max(0, n_domains - done)))
        for condition, done in done_counts.items()
    ]
    return render_table(("Condition", "Done", "Remaining"), rows)


def figure1_series() -> str:
    points = analysis.figure1_browser_evolution()
    rows = [
        (str(p.year), p.browser, "%.1f" % p.million_loc,
         str(p.web_standards))
        for p in points
    ]
    return render_table(
        ("Year", "Browser", "MLoC", "Standards available"), rows
    )
