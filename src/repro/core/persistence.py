"""Saving and loading survey results.

A 10,000-site crawl takes hours; its analyses take milliseconds.  This
module serializes a :class:`~repro.core.survey.SurveyResult` to a JSON
document (and back) so a crawl can be measured once and analyzed many
times — or shipped alongside a paper the way measurement studies
publish their datasets.

The format is versioned and self-describing; loading validates the
feature names against the running registry so a result saved against a
different corpus fails loudly instead of mis-attributing.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.browser.session import TELEMETRY_COUNTERS, SiteMeasurement
from repro.core.survey import SurveyResult
from repro.net.resilience import DegradedResource
from repro.webidl.registry import FeatureRegistry, default_registry

FORMAT_VERSION = 1


class PersistenceError(ValueError):
    """Unusable or incompatible serialized survey."""


def measurement_to_dict(m: SiteMeasurement) -> Dict[str, Any]:
    """A JSON-ready representation of one site-under-one-condition.

    The telemetry counters serialize through
    :meth:`SiteMeasurement.telemetry` — one canonical list of names
    shared with the reports and ``repro fsck`` — under exactly the
    same keys as always (digest-stable).
    """
    out = {
        "rounds_completed": m.rounds_completed,
        "rounds_ok": m.rounds_ok,
        "features": sorted(m.features),
        "standards_by_round": [
            sorted(s) for s in m.standards_by_round
        ],
        "invocations": m.invocations,
        "pages": m.pages,
        "failure_reason": m.failure_reason,
        "transient_failure": m.transient_failure,
        "attempts": m.attempts,
        "rounds_partial": m.rounds_partial,
        "budget_cause": m.budget_cause,
        "budget_overshoot": m.budget_overshoot,
        "degraded": [d.to_dict() for d in m.degraded],
        "rounds_degraded": m.rounds_degraded,
    }
    out.update(m.telemetry())
    return out


def measurement_from_dict(
    domain: str,
    condition: str,
    raw: Dict[str, Any],
    registry: FeatureRegistry,
) -> SiteMeasurement:
    """Rebuild one measurement; validates features against the registry.

    ``transient_failure``/``attempts`` (and the budget fields) default
    when absent so surveys saved before the checkpointed runner and
    the site-isolation budgets still load.
    """
    unknown = [f for f in raw["features"] if f not in registry]
    if unknown:
        raise PersistenceError(
            "unknown features in stored survey: %s" % unknown[:3]
        )
    m = SiteMeasurement(domain=domain, condition=condition)
    m.rounds_completed = raw["rounds_completed"]
    m.rounds_ok = raw["rounds_ok"]
    m.features = set(raw["features"])
    m.standards_by_round = [
        set(s) for s in raw["standards_by_round"]
    ]
    m.invocations = raw["invocations"]
    m.pages = raw["pages"]
    m.failure_reason = raw["failure_reason"]
    m.transient_failure = raw.get("transient_failure", False)
    m.attempts = raw.get("attempts", 1)
    m.rounds_partial = raw.get("rounds_partial", 0)
    m.budget_cause = raw.get("budget_cause")
    m.budget_overshoot = raw.get("budget_overshoot", 0.0)
    # The degraded-page fields default so pre-resilience surveys load.
    m.degraded = [
        DegradedResource.from_dict(d) for d in raw.get("degraded", [])
    ]
    m.rounds_degraded = raw.get("rounds_degraded", 0)
    # Telemetry counters round-trip by their canonical names.  The
    # first three predate the versioned format and are required; the
    # rest default so pre-resilience surveys load.
    for counter in TELEMETRY_COUNTERS:
        if counter in ("scripts_blocked", "requests_blocked",
                       "interaction_events"):
            setattr(m, counter, raw[counter])
        else:
            setattr(m, counter, raw.get(counter, 0))
    return m


def survey_to_dict(result: SurveyResult) -> Dict[str, Any]:
    """A JSON-ready representation of a survey result."""
    measurements: Dict[str, Dict[str, Any]] = {}
    for condition, by_domain in result.measurements.items():
        measurements[condition] = {
            domain: measurement_to_dict(m)
            for domain, m in by_domain.items()
        }
    return {
        "format_version": FORMAT_VERSION,
        "registry_fingerprint": registry_fingerprint(result.registry),
        "conditions": list(result.conditions),
        "visits_per_site": result.visits_per_site,
        "domains": list(result.domains),
        "visit_weights": dict(result.visit_weights),
        "manual_only": {
            domain: list(standards)
            for domain, standards in result.manual_only.items()
        },
        "wall_seconds": result.wall_seconds,
        "compile_cache": dict(result.compile_cache),
        "measurements": measurements,
    }


def survey_from_dict(
    data: Dict[str, Any], registry: Optional[FeatureRegistry] = None
) -> SurveyResult:
    """Rebuild a SurveyResult; validates format and registry identity."""
    registry = registry or default_registry()
    if data.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            "unsupported format version %r" % data.get("format_version")
        )
    fingerprint = registry_fingerprint(registry)
    if data.get("registry_fingerprint") != fingerprint:
        raise PersistenceError(
            "survey was recorded against a different feature registry"
        )
    measurements: Dict[str, Dict[str, SiteMeasurement]] = {}
    for condition, by_domain in data["measurements"].items():
        measurements[condition] = {
            domain: measurement_from_dict(domain, condition, raw, registry)
            for domain, raw in by_domain.items()
        }
    return SurveyResult(
        conditions=tuple(data["conditions"]),
        visits_per_site=data["visits_per_site"],
        domains=list(data["domains"]),
        measurements=measurements,
        visit_weights=dict(data["visit_weights"]),
        manual_only={
            domain: list(standards)
            for domain, standards in data["manual_only"].items()
        },
        registry=registry,
        wall_seconds=data.get("wall_seconds", 0.0),
        compile_cache=dict(data.get("compile_cache", {})),
    )


def registry_fingerprint(registry: FeatureRegistry) -> str:
    """A stable identity for the feature surface a survey measured."""
    import hashlib

    hasher = hashlib.sha256()
    for feature in sorted(registry.features(), key=lambda f: f.name):
        hasher.update(feature.name.encode("utf-8"))
        hasher.update(b"\x1f")
        hasher.update(feature.standard.encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()[:16]


def survey_digest(result: SurveyResult) -> str:
    """A content hash of everything a survey *measured*.

    Two runs are bit-identical when their digests match.  Wall-clock
    time is excluded (it differs run to run); key order is
    canonicalized, so dict insertion order cannot leak in.  The
    equivalence tests use this to assert that worker count, retries
    and checkpoint/resume never change what was measured.
    """
    import hashlib

    data = survey_to_dict(result)
    # Cache counters vary run to run without changing what was
    # *measured* — they are excluded like wall_seconds.
    data.pop("wall_seconds", None)
    data.pop("compile_cache", None)
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_survey(result: SurveyResult, path: str) -> None:
    """Write a survey result to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(survey_to_dict(result), handle, indent=None,
                  separators=(",", ":"))


def load_survey(
    path: str, registry: Optional[FeatureRegistry] = None
) -> SurveyResult:
    """Read a survey result back from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise PersistenceError("not a survey file: %s" % error)
    return survey_from_dict(data, registry=registry)
