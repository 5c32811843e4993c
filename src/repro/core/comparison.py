"""Automated paper-vs-measured comparison.

EXPERIMENTS.md narrates the comparison for one reference run; this
module *computes* it for any run: every published quantity the
reproduction targets, the measured value, and a pass/fail against a
shape tolerance.  ``python -m repro compare`` prints the scorecard;
``tests/test_comparison.py`` keeps the suite honest by asserting the
scorecard stays green at fixture scale.

Tolerances are deliberately wide for popularity fractions (a scaled
synthetic crawl is a noisy estimator) and exact for structural
quantities (feature counts, CVE counts) that no amount of crawling
noise may change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.blocking.extension import BrowsingCondition
from repro.core import analysis, metrics
from repro.core.survey import SurveyResult
from repro.standards.catalog import all_standards

#: Absolute tolerance for site-fraction comparisons.
POPULARITY_TOLERANCE = 0.18
#: Absolute tolerance for block-rate comparisons.
BLOCK_RATE_TOLERANCE = 0.25
#: Standards rarer than this (paper fraction) are skipped for rate
#: comparisons — a handful of sites decide them at small scale.
RARITY_FLOOR = 0.02

#: the note on a row the survey's conditions cannot check
NO_BLOCKING = "skipped: survey lacks the blocking condition"


@dataclass(frozen=True)
class ComparisonRow:
    """One checked claim; ``ok`` is None for a skipped row, which
    counts as neither pass nor fail."""

    metric: str
    paper: str
    measured: str
    ok: Optional[bool]
    note: str = ""


def compare_to_paper(result: SurveyResult) -> List[ComparisonRow]:
    """The full scorecard for a survey result."""
    rows: List[ComparisonRow] = []
    rows.extend(_structural_rows(result))
    rows.extend(_headline_rows(result))
    rows.extend(_standard_rows(result))
    rows.extend(_validation_rows(result))
    return rows


def _row(metric: str, paper: str, measured: str, ok: Optional[bool],
         note: str = "") -> ComparisonRow:
    return ComparisonRow(metric=metric, paper=paper, measured=measured,
                         ok=ok, note=note)


def _skipped(metric: str, paper: str) -> ComparisonRow:
    return _row(metric, paper, "-", None, NO_BLOCKING)


def _structural_rows(result: SurveyResult) -> List[ComparisonRow]:
    registry = result.registry
    rows = [
        _row("features instrumented", "1392",
             str(registry.feature_count()),
             registry.feature_count() == 1392),
        _row("standards identified", "75",
             str(registry.standard_count()),
             registry.standard_count() == 75),
    ]
    # CVE join: exact for every standard.
    from repro.standards.cves import build_cve_corpus, cves_by_standard

    counts = cves_by_standard(build_cve_corpus())
    mismatches = [
        s.abbrev for s in all_standards()
        if counts.get(s.abbrev, 0) != s.cves
    ]
    rows.append(
        _row("CVE attribution (111 mapped)", "exact per standard",
             "exact" if not mismatches else "mismatch: %s" % mismatches[:3],
             not mismatches)
    )
    return rows


def _headline_rows(result: SurveyResult) -> List[ComparisonRow]:
    stats = analysis.headline_feature_statistics(result)
    measured = len(result.measured_domains(BrowsingCondition.DEFAULT))
    total = len(result.domains)
    measurable = measured / max(1, total)
    blocked = stats.blocked_over_90_features
    under_blocked = stats.blocked_under_one_percent_fraction
    rows = [
        _row("domains measurable", "97.3%", "%.1f%%" % (100 * measurable),
             0.90 <= measurable <= 1.0),
        _row("features never used", "49.5%",
             "%.1f%%" % (100 * stats.never_used_fraction),
             0.45 <= stats.never_used_fraction <= 0.85,
             "small webs shift rare features into this bucket"),
        _row("features on <1% of sites", "79%",
             "%.1f%%" % (100 * stats.under_one_percent_fraction),
             stats.under_one_percent_fraction >= 0.60),
        _skipped("features on <1% with blocking", "83%")
        if under_blocked is None else
        _row("features on <1% with blocking", "83%",
             "%.1f%%" % (100 * under_blocked),
             under_blocked >= stats.under_one_percent_fraction),
        _skipped("features blocked >90%", "~10%") if blocked is None else
        _row("features blocked >90%", "~10%",
             "%.1f%%" % (100 * blocked / stats.total_features),
             blocked > 0, "direction only: a blocked core exists"),
        _row("standards never used", ">=11", str(stats.never_used_standards),
             stats.never_used_standards >= 11),
        _row("standards at <=1%", "28", str(stats.under_one_percent_standards),
             stats.under_one_percent_standards >= 20),
    ]
    return rows


def _standard_rows(result: SurveyResult) -> List[ComparisonRow]:
    rows: List[ComparisonRow] = []
    measured = max(1, len(result.measured_domains(BrowsingCondition.DEFAULT)))
    counts = metrics.standard_site_counts(result, BrowsingCondition.DEFAULT)
    has_blocking = BrowsingCondition.BLOCKING in result.conditions
    rates = metrics.standard_block_rates(result) if has_blocking else {}
    for spec in all_standards():
        if not spec.in_table2 or spec.never_used:
            continue
        fraction = counts[spec.abbrev] / measured
        ok = abs(fraction - spec.popularity) <= POPULARITY_TOLERANCE
        rows.append(
            _row("popularity %s" % spec.abbrev,
                 "%.1f%%" % (100 * spec.popularity),
                 "%.1f%%" % (100 * fraction), ok)
        )
        if spec.popularity < RARITY_FLOOR:
            continue
        metric = "block rate %s" % spec.abbrev
        paper = "%.1f%%" % (100 * spec.block_rate)
        if not has_blocking:
            rows.append(_skipped(metric, paper))
            continue
        rate = rates.get(spec.abbrev)
        if rate is None:
            continue
        ok = abs(rate - spec.block_rate) <= BLOCK_RATE_TOLERANCE
        rows.append(_row(metric, paper, "%.1f%%" % (100 * rate), ok))
    return rows


def _validation_rows(result: SurveyResult) -> List[ComparisonRow]:
    from repro.core.validation import internal_validation

    rows: List[ComparisonRow] = []
    table3 = internal_validation(result)
    if len(table3) >= 2:
        values = [v for _, v in table3]
        declining = values[0] >= values[-1]
        rows.append(
            _row("round discovery declines (Table 3)",
                 "1.56 -> 0.00",
                 " -> ".join("%.2f" % v for v in values),
                 declining and values[-1] <= 0.5)
        )
    return rows


def _tally(rows: List[ComparisonRow]) -> Tuple[int, int]:
    """(passing rows, checked rows); skipped rows count in neither."""
    return (sum(1 for r in rows if r.ok),
            sum(1 for r in rows if r.ok is not None))


def scorecard(result: SurveyResult) -> Tuple[int, int]:
    """(passing rows, checked rows)."""
    return _tally(compare_to_paper(result))


def render_comparison(rows: List[ComparisonRow],
                      failures_only: bool = False) -> str:
    """A text scorecard."""
    from repro.core.reporting import render_table

    labels = {True: "PASS", False: "FAIL", None: "SKIP"}
    body = [
        (
            labels[row.ok],
            row.metric,
            row.paper,
            row.measured,
            row.note,
        )
        for row in rows
        if not failures_only or row.ok is False
    ]
    passing, checked = _tally(rows)
    table = render_table(
        ("", "Metric", "Paper", "Measured", "Note"), body
    )
    text = "%s\n\n%d/%d checks pass" % (table, passing, checked)
    if checked < len(rows):
        text += " (%d skipped)" % (len(rows) - checked)
    return text
