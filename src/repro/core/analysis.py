"""One function per table and figure of the paper's evaluation.

Each function consumes a :class:`~repro.core.survey.SurveyResult` (plus
the static data sources where the paper does) and returns plain data
structures; :mod:`repro.core.reporting` renders them.  Figure and table
numbers follow the paper.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.blocking.extension import BrowsingCondition
from repro.core import metrics
from repro.core.survey import SurveyResult
from repro.standards import history
from repro.standards.cves import CveRecord, build_cve_corpus, cves_by_standard

#: Seconds of interaction per page visit (the paper's 30-second dwell).
INTERACTION_SECONDS_PER_PAGE = 30


# ---------------------------------------------------------------------------
# Figure 1 — standards available and browser LoC over time
# ---------------------------------------------------------------------------

def figure1_browser_evolution() -> List[history.BrowserEvolutionPoint]:
    """Feature families and lines of code in popular browsers over time."""
    return history.browser_evolution_series()


# ---------------------------------------------------------------------------
# Table 1 — crawl summary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrawlSummary:
    domains_measured: int
    domains_failed: int
    pages_visited: int
    interaction_seconds: int
    feature_invocations: int
    #: measured domains that lost at least one resource (a subset of
    #: ``domains_measured``, disjoint from ``domains_failed``: their
    #: numbers are real but lower bounds)
    domains_degraded: int = 0

    @property
    def interaction_days(self) -> float:
        return self.interaction_seconds / 86_400.0


def table1_crawl_summary(result: SurveyResult) -> CrawlSummary:
    """The Table 1 aggregates for this crawl."""
    default = BrowsingCondition.DEFAULT
    measured = len(result.measured_domains(default))
    failed = len(result.domains) - measured
    pages = result.total_pages_visited()
    return CrawlSummary(
        domains_measured=measured,
        domains_failed=failed,
        pages_visited=pages,
        interaction_seconds=pages * INTERACTION_SECONDS_PER_PAGE,
        feature_invocations=result.total_invocations(),
        domains_degraded=len(result.degraded_domains(default)),
    )


# ---------------------------------------------------------------------------
# Figure 3 — cumulative distribution of standard popularity
# ---------------------------------------------------------------------------

def figure3_standard_popularity_cdf(
    result: SurveyResult, condition: str = BrowsingCondition.DEFAULT
) -> List[Tuple[int, float]]:
    """(sites using a standard, portion of standards at or below)."""
    counts = sorted(metrics.standard_site_counts(result, condition).values())
    total = len(counts)
    return [
        (count, (index + 1) / total) for index, count in enumerate(counts)
    ]


# ---------------------------------------------------------------------------
# Figure 4 — standard popularity vs block rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardPoint:
    abbrev: str
    sites: int
    block_rate: Optional[float]


def figure4_popularity_vs_block_rate(
    result: SurveyResult,
) -> List[StandardPoint]:
    """One point per standard used by at least one site."""
    counts = metrics.standard_site_counts(
        result, BrowsingCondition.DEFAULT
    )
    rates = metrics.standard_block_rates(result)
    points = []
    for abbrev, sites in sorted(counts.items()):
        if sites == 0:
            continue
        points.append(
            StandardPoint(abbrev=abbrev, sites=sites,
                          block_rate=rates.get(abbrev))
        )
    return points


# ---------------------------------------------------------------------------
# Figure 5 — site popularity vs traffic-weighted popularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficPoint:
    abbrev: str
    site_fraction: float
    visit_fraction: float

    @property
    def skew(self) -> float:
        """>0: more popular on high-traffic sites."""
        return self.visit_fraction - self.site_fraction


def figure5_site_vs_traffic_popularity(
    result: SurveyResult, condition: str = BrowsingCondition.DEFAULT
) -> List[TrafficPoint]:
    by_sites = metrics.standard_popularity(result, condition)
    by_visits = metrics.traffic_weighted_standard_popularity(
        result, condition
    )
    return [
        TrafficPoint(abbrev, by_sites[abbrev], by_visits[abbrev])
        for abbrev in sorted(by_sites)
        if by_sites[abbrev] > 0
    ]


# ---------------------------------------------------------------------------
# Figure 6 — standard introduction date vs popularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgePoint:
    abbrev: str
    introduced: datetime.date
    sites: int
    block_band: str  # "low" (<33%), "mid" (33-66%), "high" (>66%)


def figure6_age_vs_popularity(
    result: SurveyResult,
    implementation_history: Optional[history.ImplementationHistory] = None,
) -> List[AgePoint]:
    """Implementation date (most-popular-feature rule) vs popularity."""
    registry = result.registry
    if implementation_history is None:
        names = {
            spec.abbrev: [
                f.name for f in registry.features_of_standard(spec.abbrev)
            ]
            for spec in registry.standards()
        }
        implementation_history = history.ImplementationHistory(names)
    feature_counts = metrics.feature_site_counts(
        result, BrowsingCondition.DEFAULT
    )
    standard_counts = metrics.standard_site_counts(
        result, BrowsingCondition.DEFAULT
    )
    rates = metrics.standard_block_rates(result)
    points: List[AgePoint] = []
    for spec in registry.standards():
        names = [f.name for f in registry.features_of_standard(spec.abbrev)]
        date = implementation_history.standard_implementation_date(
            spec, names, popularity=feature_counts
        )
        rate = rates.get(spec.abbrev)
        if rate is None:
            band = "low"
        elif rate < 0.33:
            band = "low"
        elif rate <= 0.66:
            band = "mid"
        else:
            band = "high"
        points.append(
            AgePoint(
                abbrev=spec.abbrev,
                introduced=date,
                sites=standard_counts[spec.abbrev],
                block_band=band,
            )
        )
    return points


# ---------------------------------------------------------------------------
# Figure 7 — ad-blocking vs tracking-blocking block rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionBlockPoint:
    abbrev: str
    sites: int
    ad_block_rate: Optional[float]
    tracking_block_rate: Optional[float]


def figure7_ad_vs_tracking_block(
    result: SurveyResult,
) -> List[ConditionBlockPoint]:
    """Per-standard block rate under each extension alone.

    Requires the survey to have run the ``abp-only`` and
    ``ghostery-only`` conditions (:class:`metrics.MissingCondition`
    otherwise).
    """
    counts = metrics.standard_site_counts(result, BrowsingCondition.DEFAULT)
    ad_rates = metrics.standard_block_rates(
        result, blocking_condition=BrowsingCondition.ABP_ONLY
    )
    tracking_rates = metrics.standard_block_rates(
        result, blocking_condition=BrowsingCondition.GHOSTERY_ONLY
    )
    return [
        ConditionBlockPoint(
            abbrev=abbrev,
            sites=counts[abbrev],
            ad_block_rate=ad_rates.get(abbrev),
            tracking_block_rate=tracking_rates.get(abbrev),
        )
        for abbrev in sorted(counts)
        if counts[abbrev] > 0
    ]


# ---------------------------------------------------------------------------
# Table 2 — per-standard summary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table2Row:
    name: str
    abbrev: str
    features: int
    sites: int
    block_rate: Optional[float]
    cves: int


def table2_standard_summary(
    result: SurveyResult,
    cve_corpus: Optional[List[CveRecord]] = None,
) -> List[Table2Row]:
    """Popularity, block rate and CVE count per standard.

    Mirrors the paper's inclusion rule: standards used on at least 1%
    of sites or with at least one associated CVE.  Rows ordered by CVE
    count then sites, like the paper's table.
    """
    registry = result.registry
    corpus = cve_corpus if cve_corpus is not None else build_cve_corpus()
    cves = cves_by_standard(corpus)
    counts = metrics.standard_site_counts(result, BrowsingCondition.DEFAULT)
    rates = metrics.standard_block_rates(result)
    measured = max(1, len(result.measured_domains(BrowsingCondition.DEFAULT)))
    rows: List[Table2Row] = []
    for spec in registry.standards():
        sites = counts[spec.abbrev]
        n_cves = cves.get(spec.abbrev, 0)
        if sites / measured < 0.01 and n_cves == 0:
            continue
        rows.append(
            Table2Row(
                name=spec.name,
                abbrev=spec.abbrev,
                features=spec.n_features,
                sites=sites,
                block_rate=rates.get(spec.abbrev),
                cves=n_cves,
            )
        )
    rows.sort(key=lambda r: (-r.cves, -r.sites, r.abbrev))
    return rows


# ---------------------------------------------------------------------------
# Figure 8 — site complexity PDF
# ---------------------------------------------------------------------------

def figure8_site_complexity_pdf(
    result: SurveyResult, condition: str = BrowsingCondition.DEFAULT
) -> Dict[int, float]:
    """standards-per-site -> fraction of sites."""
    complexity = metrics.site_complexity(result, condition)
    total = max(1, len(complexity))
    histogram: Dict[int, int] = {}
    for value in complexity.values():
        histogram[value] = histogram.get(value, 0) + 1
    return {
        count: occurrences / total
        for count, occurrences in sorted(histogram.items())
    }


# ---------------------------------------------------------------------------
# Section 5.3 headline statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeadlineStatistics:
    total_features: int
    never_used_features: int
    under_one_percent_features: int  # used, but on <1% of sites
    #: None when the survey lacks the blocking condition
    blocked_over_90_features: Optional[int]
    under_one_percent_with_blocking: Optional[int]
    total_standards: int
    never_used_standards: int
    under_one_percent_standards: int

    @property
    def never_used_fraction(self) -> float:
        return self.never_used_features / self.total_features

    @property
    def under_one_percent_fraction(self) -> float:
        """Features used by <1% of the web, never-used included."""
        return (
            self.never_used_features + self.under_one_percent_features
        ) / self.total_features

    @property
    def blocked_under_one_percent_fraction(self) -> Optional[float]:
        if self.under_one_percent_with_blocking is None:
            return None
        return self.under_one_percent_with_blocking / self.total_features


def headline_feature_statistics(result: SurveyResult) -> HeadlineStatistics:
    registry = result.registry
    measured = max(1, len(result.measured_domains(BrowsingCondition.DEFAULT)))
    counts = metrics.feature_site_counts(result, BrowsingCondition.DEFAULT)
    never = sum(1 for c in counts.values() if c == 0)
    under_1pct = sum(
        1 for c in counts.values() if 0 < c / measured < 0.01
    )
    blocked_over_90 = blocking_under_1pct = None
    if BrowsingCondition.BLOCKING in result.conditions:
        rates = metrics.feature_block_rates(result)
        blocked_over_90 = sum(
            1 for rate in rates.values()
            if rate is not None and rate > 0.90
        )
        blocking_measured = max(
            1, len(result.measured_domains(BrowsingCondition.BLOCKING))
        )
        blocking_counts = metrics.feature_site_counts(
            result, BrowsingCondition.BLOCKING
        )
        blocking_under_1pct = sum(
            1 for c in blocking_counts.values()
            if c / blocking_measured < 0.01
        )
    standard_counts = metrics.standard_site_counts(
        result, BrowsingCondition.DEFAULT
    )
    never_standards = sum(1 for c in standard_counts.values() if c == 0)
    low_standards = sum(
        1 for c in standard_counts.values() if c / measured <= 0.01
    )
    return HeadlineStatistics(
        total_features=registry.feature_count(),
        never_used_features=never,
        under_one_percent_features=under_1pct,
        blocked_over_90_features=blocked_over_90,
        under_one_percent_with_blocking=blocking_under_1pct,
        total_standards=registry.standard_count(),
        never_used_standards=never_standards,
        under_one_percent_standards=low_standards,
    )
