"""CSV export of every analysis — plot-ready data.

Measurement papers ship their data; so does this reproduction.  Each
function returns CSV text for one table/figure, and
:func:`export_all` writes the full set to a directory, ready for any
external plotting tool.
"""

from __future__ import annotations

import csv
import io
import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import analysis, metrics
from repro.core.survey import SurveyResult
from repro.core.validation import (
    ExternalValidationOutcome,
    internal_validation,
)


def _csv(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


def figure1_csv() -> str:
    points = analysis.figure1_browser_evolution()
    return _csv(
        ("year", "browser", "million_loc", "web_standards"),
        [(p.year, p.browser, p.million_loc, p.web_standards)
         for p in points],
    )


def table1_csv(result: SurveyResult) -> str:
    summary = analysis.table1_crawl_summary(result)
    return _csv(
        ("quantity", "value"),
        [
            ("domains_measured", summary.domains_measured),
            ("domains_failed", summary.domains_failed),
            ("pages_visited", summary.pages_visited),
            ("interaction_seconds", summary.interaction_seconds),
            ("feature_invocations", summary.feature_invocations),
        ],
    )


def figure3_csv(result: SurveyResult) -> str:
    points = analysis.figure3_standard_popularity_cdf(result)
    return _csv(
        ("sites_using_standard", "portion_of_standards"),
        [(sites, "%.6f" % fraction) for sites, fraction in points],
    )


def figure4_csv(result: SurveyResult) -> str:
    points = analysis.figure4_popularity_vs_block_rate(result)
    return _csv(
        ("standard", "sites", "block_rate"),
        [
            (p.abbrev, p.sites,
             "" if p.block_rate is None else "%.6f" % p.block_rate)
            for p in points
        ],
    )


def figure5_csv(result: SurveyResult) -> str:
    points = analysis.figure5_site_vs_traffic_popularity(result)
    return _csv(
        ("standard", "site_fraction", "visit_fraction"),
        [
            (p.abbrev, "%.6f" % p.site_fraction, "%.6f" % p.visit_fraction)
            for p in points
        ],
    )


def figure6_csv(result: SurveyResult) -> str:
    points = analysis.figure6_age_vs_popularity(result)
    return _csv(
        ("standard", "introduced", "sites", "block_band"),
        [
            (p.abbrev, p.introduced.isoformat(), p.sites, p.block_band)
            for p in points
        ],
    )


def figure7_csv(result: SurveyResult) -> str:
    points = analysis.figure7_ad_vs_tracking_block(result)
    return _csv(
        ("standard", "sites", "ad_block_rate", "tracking_block_rate"),
        [
            (
                p.abbrev,
                p.sites,
                "" if p.ad_block_rate is None else "%.6f" % p.ad_block_rate,
                "" if p.tracking_block_rate is None
                else "%.6f" % p.tracking_block_rate,
            )
            for p in points
        ],
    )


def table2_csv(result: SurveyResult) -> str:
    rows = analysis.table2_standard_summary(result)
    return _csv(
        ("standard_name", "abbrev", "features", "sites", "block_rate",
         "cves"),
        [
            (
                row.name, row.abbrev, row.features, row.sites,
                "" if row.block_rate is None else "%.6f" % row.block_rate,
                row.cves,
            )
            for row in rows
        ],
    )


def figure8_csv(result: SurveyResult) -> str:
    pdf = analysis.figure8_site_complexity_pdf(result)
    return _csv(
        ("standards_used", "portion_of_sites"),
        [(count, "%.6f" % fraction) for count, fraction in pdf.items()],
    )


def table3_csv(result: SurveyResult) -> str:
    rows = internal_validation(result)
    return _csv(
        ("round", "avg_new_standards"),
        [(round_index, "%.4f" % value) for round_index, value in rows],
    )


def figure9_csv(outcome: ExternalValidationOutcome) -> str:
    return _csv(
        ("new_standards_observed", "domains"),
        list(outcome.histogram.items()),
    )


def features_csv(result: SurveyResult) -> str:
    """The full per-feature dataset: popularity + block rate."""
    counts = metrics.feature_site_counts(result, "default")
    rates = (
        metrics.feature_block_rates(result)
        if "blocking" in result.conditions else {}
    )
    registry = result.registry
    rows = []
    for feature in registry.features():
        rate = rates.get(feature.name)
        rows.append(
            (
                feature.name,
                feature.standard,
                feature.kind,
                counts.get(feature.name, 0),
                "" if rate is None else "%.6f" % rate,
            )
        )
    return _csv(
        ("feature", "standard", "kind", "sites", "block_rate"), rows
    )


def export_all(
    result: SurveyResult,
    out_dir: str,
    external: Optional[ExternalValidationOutcome] = None,
    skipped: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """Write every exportable dataset to ``out_dir``; returns paths.

    Datasets comparing against a condition the survey did not run are
    skipped, and named with their reason in ``skipped`` when given.
    """
    os.makedirs(out_dir, exist_ok=True)
    exports = {"figure1": figure1_csv()}
    exports.update(metrics.build_supported({
        "table1": table1_csv,
        "figure3": figure3_csv,
        "figure4": figure4_csv,
        "figure5": figure5_csv,
        "figure6": figure6_csv,
        "table2": table2_csv,
        "figure7": figure7_csv,
        "figure8": figure8_csv,
        "table3": table3_csv,
        "features": features_csv,
    }, result, skipped))
    if external is not None:
        exports["figure9"] = figure9_csv(external)
    paths: Dict[str, str] = {}
    for name, text in exports.items():
        path = os.path.join(out_dir, "%s.csv" % name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths[name] = path
    return paths
