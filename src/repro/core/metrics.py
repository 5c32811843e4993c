"""The paper's section 5.1 measurement definitions.

* **feature popularity** — the fraction of (measured) sites that use a
  feature at least once during automated interaction.
* **standard popularity** — the fraction of sites using at least one of
  the standard's features.
* **block rate** — of the sites that used the standard (feature) in the
  default condition, the fraction on which it never executes once
  blocking extensions are installed.
* **site complexity** — the number of distinct standards a site uses.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.blocking.extension import BrowsingCondition
from repro.core.survey import SurveyResult


class MissingCondition(ValueError):
    """A comparison needs a browsing condition the survey did not run."""


def _require(result: SurveyResult, *conditions: str) -> None:
    for condition in conditions:
        if condition not in result.conditions:
            raise MissingCondition(
                "survey lacks the %s condition" % condition
            )


def build_supported(
    builders: Dict[str, Callable[[SurveyResult], str]],
    result: SurveyResult,
    skipped: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """Every artifact the survey's conditions support, by name.

    An artifact whose builder raises :class:`MissingCondition` is left
    out; ``skipped``, when given, collects its name and the reason.
    """
    built: Dict[str, str] = {}
    for name, build in builders.items():
        try:
            built[name] = build(result)
        except MissingCondition as error:
            if skipped is not None:
                skipped[name] = str(error)
    return built


def feature_site_counts(
    result: SurveyResult, condition: str
) -> Dict[str, int]:
    """feature -> number of sites using it (0 for never-used)."""
    sites = result.feature_sites(condition)
    counts = {f.name: 0 for f in result.registry.features()}
    for name, domains in sites.items():
        counts[name] = len(domains)
    return counts


def standard_site_counts(
    result: SurveyResult, condition: str
) -> Dict[str, int]:
    """standard -> number of sites using it (0 for never-used)."""
    return {
        abbrev: len(domains)
        for abbrev, domains in result.standard_sites(condition).items()
    }


def feature_popularity(
    result: SurveyResult, condition: str
) -> Dict[str, float]:
    """feature -> fraction of measured sites using it."""
    measured = max(1, len(result.measured_domains(condition)))
    return {
        name: count / measured
        for name, count in feature_site_counts(result, condition).items()
    }


def standard_popularity(
    result: SurveyResult, condition: str
) -> Dict[str, float]:
    """standard -> fraction of measured sites using it."""
    measured = max(1, len(result.measured_domains(condition)))
    return {
        abbrev: count / measured
        for abbrev, count in standard_site_counts(result, condition).items()
    }


def standard_block_rates(
    result: SurveyResult,
    blocking_condition: str = BrowsingCondition.BLOCKING,
    default_condition: str = BrowsingCondition.DEFAULT,
) -> Dict[str, Optional[float]]:
    """standard -> block rate (None when the standard is never used).

    Only sites measured under *both* conditions participate, matching
    the paper's given-used-by-default conditional.  Raises
    :class:`MissingCondition` when the survey lacks either.
    """
    _require(result, default_condition, blocking_condition)
    default_sites = result.standard_sites(default_condition)
    blocking_sites = result.standard_sites(blocking_condition)
    common = set(result.measured_domains(default_condition)) & set(
        result.measured_domains(blocking_condition)
    )
    rates: Dict[str, Optional[float]] = {}
    for abbrev in default_sites:
        used_default = default_sites[abbrev] & common
        if not used_default:
            rates[abbrev] = None
            continue
        still_used = blocking_sites.get(abbrev, set()) & used_default
        rates[abbrev] = 1.0 - len(still_used) / len(used_default)
    return rates


def feature_block_rates(
    result: SurveyResult,
    blocking_condition: str = BrowsingCondition.BLOCKING,
    default_condition: str = BrowsingCondition.DEFAULT,
) -> Dict[str, Optional[float]]:
    """feature -> block rate (None when never used by default)."""
    _require(result, default_condition, blocking_condition)
    default_sites = result.feature_sites(default_condition)
    blocking_sites = result.feature_sites(blocking_condition)
    common = set(result.measured_domains(default_condition)) & set(
        result.measured_domains(blocking_condition)
    )
    rates: Dict[str, Optional[float]] = {}
    for feature in result.registry.features():
        used_default = default_sites.get(feature.name, set()) & common
        if not used_default:
            rates[feature.name] = None
            continue
        still = blocking_sites.get(feature.name, set()) & used_default
        rates[feature.name] = 1.0 - len(still) / len(used_default)
    return rates


def site_complexity(
    result: SurveyResult, condition: str
) -> Dict[str, int]:
    """domain -> number of distinct standards used (section 5.9)."""
    return {
        domain: len(result.measurement(condition, domain).standards_used())
        for domain in result.measured_domains(condition)
    }


def traffic_weighted_standard_popularity(
    result: SurveyResult, condition: str
) -> Dict[str, float]:
    """standard -> fraction of *site visits* that use it (Figure 5)."""
    measured = result.measured_domains(condition)
    total_weight = sum(result.visit_weights[d] for d in measured)
    if total_weight <= 0:
        return {s.abbrev: 0.0 for s in result.registry.standards()}
    weighted: Dict[str, float] = {}
    standard_sites = result.standard_sites(condition)
    for abbrev, domains in standard_sites.items():
        weight = sum(
            result.visit_weights[d] for d in domains if d in set(measured)
        )
        weighted[abbrev] = weight / total_weight
    return weighted
