"""Self-tests of the benchmark harness (not of the program).

Tiny workloads keep these fast; they check the harness's own
contracts: wrappers come off after a traced crawl, spans nest, self
times add up to the crawl's wall time, a wrong expected record fails
the command, and the seed reaches the generated inputs.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
from layers import (
    PAGE_BOUNDARIES,
    READ_BOUNDARIES,
    ROOT,
    SELF_TIME_METRICS,
    SUPERVISOR_BOUNDARIES,
    SpanTrace,
    crawl_layer_metrics,
)
from workloads import (
    DIGEST_HEX,
    WORKLOADS,
    Workload,
    build_inputs,
    survey_config,
    web_seeds,
)

from conftest import BENCH, ROOT as CHECKOUT

TINY = Workload("tiny", sites=3, conditions=("default", "blocking"),
                visits=1)
TINY_K2 = Workload("tiny-k2", sites=3, conditions=("default", "blocking"),
                   visits=1, workers=2, run_dir=True, read_passes=2)
ALL_BOUNDARIES = PAGE_BOUNDARIES + SUPERVISOR_BOUNDARIES + READ_BOUNDARIES


def _originals():
    out = {}
    for module, attribute, _ in ALL_BOUNDARIES:
        owner, name = layers._resolve(module, attribute)
        out[(module, attribute)] = owner.__dict__[name]
    return out


@pytest.fixture(scope="module")
def traced_crawl():
    from repro.core.survey import run_survey

    registry, web, _ = build_inputs(TINY, 5)
    before = _originals()
    trace = SpanTrace("self-test")
    trace.install(ALL_BOUNDARIES, collector=True)
    try:
        result = trace.span(ROOT, run_survey, web, registry,
                            survey_config(TINY, 5))
    finally:
        trace.uninstall()
    return trace, result, before, (registry, web)


def test_no_wrapper_survives_a_traced_run(traced_crawl):
    from repro.core.survey import run_survey

    trace, _, before, (registry, web) = traced_crawl
    assert all(before[key] is now for key, now in _originals().items())
    recorded = len(trace)
    run_survey(web, registry, survey_config(TINY, 5))
    assert len(trace) == recorded


def test_every_child_span_lies_within_its_parent(traced_crawl):
    trace = traced_crawl[0]
    assert len(trace) > 100
    assert trace.nesting_errors() == []


def test_self_times_add_up_to_the_crawl_wall_time(traced_crawl):
    trace, result, _, _ = traced_crawl
    metrics = crawl_layer_metrics(trace, result)
    self_total = sum(
        metrics[name] for name in set(SELF_TIME_METRICS.values())
    )
    assert metrics["core.survey.unattributed_s"] >= 0
    assert self_total == pytest.approx(metrics["core.survey.wall_s"],
                                       abs=1e-6)
    assert metrics["browser.pages"] >= result.total_pages_visited() > 0


def web_fingerprint(web) -> str:
    """A content hash of a generated web: its domains and scripts."""
    hasher = hashlib.sha256()
    for ranked in web.ranking.all():
        hasher.update(ranked.domain.encode("utf-8") + b"\0")
    for body in web.script_bodies():
        hasher.update(body.encode("utf-8") + b"\0")
    return hasher.hexdigest()


def test_seed_changes_the_generated_web():
    _, web_a, _ = build_inputs(TINY, 1)
    _, web_b, _ = build_inputs(TINY, 2)
    _, web_a2, _ = build_inputs(TINY, 1)
    assert web_fingerprint(web_a) == web_fingerprint(web_a2)
    assert web_fingerprint(web_a) != web_fingerprint(web_b)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert layers.tail(list(range(19))) == (0.0, 0.0)
    assert layers.tail(list(range(20))) == (50.0, 9)
    assert layers.tail(list(range(1, 101))) == (90.0, 90)
    assert layers.tail(list(range(1, 1001))) == (99.0, 990)


def test_stored_expected_records_match_the_workloads():
    directory = os.path.join(BENCH, "expected")
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as handle:
            data = json.load(handle)
        workload = WORKLOADS[name[:-len(".json")]]
        assert data["params"] == workload.params()
        for digests in data["webs"].values():
            assert len(digests) == DIGEST_HEX * workload.sites * len(
                workload.conditions
            )


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A checkout-like directory whose workloads are tiny."""
    os.symlink(os.path.join(CHECKOUT, "src"), tmp_path / "src")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(run.WORKLOADS, TINY_K2.name, TINY_K2)
    monkeypatch.setattr(run, "EXPECTED_DIR", str(tmp_path / "expected"))
    return tmp_path


def _run(capsys, *argv):
    code = run.main(["--workload", TINY_K2.name, "--seed", "3",
                     "--seconds", "1"] + list(argv))
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_command_checks_outputs_and_fails_on_a_tampered_record(
    checkout, capsys
):
    code, result = _run(capsys, "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_share"]["value"] == 1.0
    assert sorted(result["metrics"]) == sorted(
        n for n, _ in run.metric_units("end_to_end"))

    code, result = _run(capsys, "--trace", "1")
    assert code == 0 and result["correct"]
    assert sorted(result["metrics"]) == sorted(
        n for n, _ in run.metric_units("per_layer"))
    assert result["metrics"]["core.ipc.frames"]["value"] > 0

    (web,) = web_seeds(3, 1)
    (cached,) = (checkout / ".bench_build" / "perfbench" / "expected").glob(
        "tiny-k2-web%d-*.json" % web
    )
    digests = json.loads(cached.read_text())
    flipped = "1" * DIGEST_HEX if digests.startswith("0") else "0" * DIGEST_HEX
    digests = flipped + digests[DIGEST_HEX:]
    os.makedirs(run.EXPECTED_DIR)
    with open(os.path.join(run.EXPECTED_DIR, "tiny-k2.json"), "w") as out:
        json.dump({"params": TINY_K2.params(),
                   "webs": {str(web): digests}}, out)
    code, result = _run(capsys, "--trace", "0")
    assert code != 0 and not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
