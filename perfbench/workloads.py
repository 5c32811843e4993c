"""The benchmark's workloads and the program inputs they generate.

Every workload is a closed loop driven by one process: the benchmark
starts a crawl, waits for it to finish, and only then starts the next.
A run of ``--seconds`` makes ``round(seconds / NOMINAL_CRAWL_S)``
crawls (at least one), each of its own synthetic web, whose seed is
derived from ``--seed`` and the crawl's index; so a run averages over
several webs, and the same ``--seed`` always gives the same webs.  The
crawl count depends only on ``--seconds``, never on how fast the
program is, so two versions of the program do the same work.

The crawl settings are the CLI's crawl defaults (3 visit rounds, 3
site attempts with 0.5 s backoff, 2 request attempts, breaker
threshold 5, compiled engine) except where a workload's ``visits``
says otherwise.

Nothing here imports ``repro`` at module level: a crawl child times
its set-up from the first ``import repro``, so the benchmark's own
modules must not get there first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

FOUR_CONDITIONS = ("default", "blocking", "abp-only", "ghostery-only")

#: about the seconds one crawl of any workload takes on the reference
#: host (2 vCPUs of an Intel Xeon, CPython 3.11)
NOMINAL_CRAWL_S = 4.8


@dataclass(frozen=True)
class Workload:
    name: str
    sites: int
    conditions: Tuple[str, ...]
    visits: int
    #: parallel crawl workers (1 = the in-process serial crawl)
    workers: int = 1
    #: checkpoint into a run directory on the local disk, with program
    #: tracing and metrics on, and read it back through the CLI
    run_dir: bool = False
    #: read passes per crawl (each pass is every read-surface command)
    read_passes: int = 1

    def params(self) -> Dict[str, object]:
        """What the expected records depend on (besides the web seed)."""
        out = asdict(self)
        out.pop("read_passes")
        out["conditions"] = list(self.conditions)
        return out


# Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("crawl-deep", sites=8, conditions=FOUR_CONDITIONS, visits=3,
             read_passes=6),
    Workload("crawl-breadth", sites=70, conditions=("default",), visits=1,
             read_passes=60),
    Workload("rundir-k2", sites=14, conditions=FOUR_CONDITIONS, visits=3,
             workers=2, run_dir=True, read_passes=3),
)}


def crawl_count(seconds: float) -> int:
    """How many crawls a run of ``seconds`` makes."""
    return max(1, round(seconds / NOMINAL_CRAWL_S))


def web_seeds(seed: int, crawls: int) -> List[int]:
    """The seed of each crawl's web in a run of ``seed``."""
    return [
        int.from_bytes(hashlib.sha256(
            b"perfbench/%d/%d" % (seed, index)
        ).digest()[:4], "big")
        for index in range(crawls)
    ]


def build_inputs(workload: Workload, seed: int):
    """The crawl's inputs: (registry, web, domains), untimed form."""
    from repro.webgen.sitegen import build_web
    from repro.webidl.registry import default_registry

    registry = default_registry()
    web = build_web(registry, n_sites=workload.sites, seed=seed)
    return registry, web, [r.domain for r in web.ranking.all()]


def survey_config(
    workload: Workload,
    seed: int,
    engine: str = "compiled",
    workers: Optional[int] = None,
):
    """The SurveyConfig the CLI would build for this workload."""
    from repro.core.survey import RetryPolicy, SurveyConfig
    from repro.net.resilience import ResilienceConfig

    workers = workload.workers if workers is None else workers
    return SurveyConfig(
        conditions=tuple(workload.conditions),
        visits_per_site=workload.visits,
        seed=seed,
        workers=workers,
        start_method="fork" if workers > 1 else None,
        retry=RetryPolicy(attempts=3, backoff_base=0.5),
        resilience=ResilienceConfig(
            request_attempts=2, breaker_threshold=5
        ),
        trace=workload.run_dir,
        metrics=True,
        engine=engine,
    )


#: hex digits kept per record digest
DIGEST_HEX = 8


def record_digests(result) -> Tuple[List[str], str]:
    """(keys, digests) of a survey's (condition, site) records.

    Records go in crawl order: condition by condition, sites by rank.
    ``digests`` concatenates one short digest per record, so the
    expected records of a web are one string.
    """
    from repro.core.persistence import measurement_to_dict

    keys, parts = [], []
    for condition in result.conditions:
        by_domain = result.measurements.get(condition, {})
        for domain in result.domains:
            measurement = by_domain.get(domain)
            payload = "" if measurement is None else json.dumps(
                measurement_to_dict(measurement),
                sort_keys=True, separators=(",", ":"),
            )
            keys.append("%s/%s" % (condition, domain))
            parts.append(hashlib.sha256(
                payload.encode("utf-8")
            ).hexdigest()[:DIGEST_HEX])
    return keys, "".join(parts)


def mismatches(keys: List[str], got: str, expected: str) -> List[str]:
    """The records whose digest differs from the expected one."""
    count = max(len(got), len(expected)) // DIGEST_HEX
    return [
        keys[i] if i < len(keys) else "record #%d" % i
        for i in range(count)
        if got[i * DIGEST_HEX:(i + 1) * DIGEST_HEX]
        != expected[i * DIGEST_HEX:(i + 1) * DIGEST_HEX]
    ]
