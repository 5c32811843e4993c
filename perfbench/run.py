"""The repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload crawl-deep --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: it
makes as many crawls as fill ``--seconds`` on the reference host, each
of its own web and in a fresh interpreter (see ``workloads.py``), and
pools them.  ``--trace 1`` crawls the first web four times, untraced,
traced, traced, untraced, and reports the per-layer metrics (see
``layers.py``).  Every (condition,
site) record and every read-surface call is checked against its
expected output; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
nonzero when any operation failed.

Scratch files, cached expected records, span traces and per-run
records (metrics with the host fingerprint) go under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import host
from workloads import WORKLOADS, Workload, crawl_count, web_seeds

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORK_DIR = os.path.join(".bench_build", "perfbench")

#: a run stops every child and fails once this many seconds have gone
RUN_DEADLINE_S = 170.0


def spec() -> Dict[str, object]:
    """The benchmark's definition, ``BENCHMARK.json``."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(kind: str) -> List[Tuple[str, str]]:
    """(name, unit) of every ``end_to_end`` or ``per_layer`` metric."""
    return [(m["name"], m["unit"]) for m in spec()[kind]]


class BenchError(RuntimeError):
    """The benchmark could not produce a result (no JSON is printed)."""


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Starts every child interpreter of one run, against one deadline."""

    def __init__(
        self, workload: Workload, deadline_s: Optional[float] = RUN_DEADLINE_S
    ) -> None:
        self.workload = workload
        self.deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        self.work = os.path.abspath(WORK_DIR)
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src")]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        # String hashing then orders sets and dicts the same way in
        # every run, so a web's crawl does identical work each time.
        self.env["PYTHONHASHSEED"] = "0"

    def remaining(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return max(1.0, self.deadline - time.monotonic())

    def child(self, mode: str, **spec) -> Dict[str, object]:
        """Run child.py in a fresh interpreter; its JSON result."""
        out = os.path.join(self.work, "child-%d.json" % os.getpid())
        spec.update(mode=mode, out=out, work=self.work,
                    workload=dict(vars(self.workload)))
        if os.path.exists(out):
            os.remove(out)
        self.call([sys.executable, os.path.join(HERE, "child.py"),
                   json.dumps(spec)], "%s child" % mode)
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        os.remove(out)
        return result

    def call(self, argv: List[str], what: str) -> None:
        # Its own session, so a timeout kills crawl workers too.
        proc = subprocess.Popen(argv, env=self.env, start_new_session=True)
        try:
            code = proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError("%s passed the run deadline" % what)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if code != 0:
            raise BenchError("%s exited with %d" % (what, code))


def source_digest() -> str:
    """A hash of the program's sources."""
    hasher = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "repro", "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as handle:
            hasher.update(path.encode("utf-8") + b"\0" + handle.read())
    return hasher.hexdigest()[:16]


def expected_paths(runner: Runner, seeds: List[int]) -> Dict[int, str]:
    """Per web seed, a file holding its expected record digests.

    Stored digests (``expected/<workload>.json``) serve the webs they
    hold; the tree-engine oracle computes the others once per (web,
    workload parameters, program source) into the scratch directory.
    Either way, outside every timed region.
    """
    workload = runner.workload
    stored: Dict[str, str] = {}
    path = os.path.join(EXPECTED_DIR, workload.name + ".json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if data["params"] == workload.params():
            stored = data["webs"]
    directory = os.path.join(runner.work, "expected")
    os.makedirs(directory, exist_ok=True)
    key = hashlib.sha256(json.dumps(
        [workload.params(), source_digest()], sort_keys=True
    ).encode("utf-8")).hexdigest()[:16]
    paths, missing = {}, []
    for seed in seeds:
        tag = "stored" if str(seed) in stored else key
        paths[seed] = os.path.join(directory, "%s-web%d-%s.json" % (
            workload.name, seed, tag))
        if str(seed) in stored:
            with open(paths[seed], "w", encoding="utf-8") as handle:
                json.dump(stored[str(seed)], handle)
        elif not os.path.exists(paths[seed]):
            missing.append(seed)
    if missing:
        computed = runner.child("oracle", seeds=missing)
        for seed in missing:
            with open(paths[seed], "w", encoding="utf-8") as handle:
                json.dump(computed[str(seed)], handle)
    return paths


def pages_per_s(crawls: List[Dict[str, object]]) -> float:
    """Pages visited ÷ seconds inside run_survey, over all ``crawls``."""
    return sum(c["pages"] for c in crawls) / sum(c["crawl_s"] for c in crawls)


def operations(crawls: List[Dict[str, object]]) -> Tuple[int, int]:
    """(attempted, failed) over records and read-surface calls."""
    attempted = sum(c["records"] + c["read_calls"] for c in crawls)
    failed = sum(c["records_failed"] + c["read_failed"] for c in crawls)
    return attempted, failed


def measure(runner: Runner, expected: Dict[int, str]):
    """Untraced: (metrics, crawls, set-up samples)."""
    setups, crawls = [], []
    for seed, path in expected.items():
        # A set-up-only interpreter before each crawl spreads the
        # set-up samples over the whole run, like the crawls' own.
        setups.append(runner.child("setup", seed=seed)["setup_s"])
        crawls.append(
            runner.child("crawl", seed=seed, expected=path, trace=False)
        )
    setups += [c["setup_s"] for c in crawls]
    attempted, failed = operations(crawls)
    passes = [s for c in crawls for s in c["read_passes"]]
    # The reference host's speed flips between two modes about 1.8x
    # apart, for seconds at a time, so a short timing is bimodal and
    # its median jumps between the modes; totals and means average the
    # mix.  A run's read passes fill only a few short windows, often
    # all in one mode, so report_s takes the fastest pass instead.
    metrics = {
        "pages_per_s": pages_per_s(crawls),
        "setup_s": statistics.mean(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in crawls),
        "ok_share": (attempted - failed) / attempted,
        "report_s": min(passes),
    }
    return metrics, crawls, setups


def measure_traced(runner: Runner, expected: Dict[int, str]):
    """Untraced, traced, traced, untraced crawls of the first web.

    The per-layer metrics are the two traced crawls' means; the
    symmetric order cancels a steady drift in host speed out of the
    tracing overhead.
    """
    seed, path = next(iter(expected.items()))
    crawls = [
        runner.child("crawl", seed=seed, expected=path, trace=traced)
        for traced in (False, True, True, False)
    ]
    traced = [c for c in crawls if "layers" in c]
    metrics = {
        name: statistics.mean(c["layers"][name] for c in traced)
        for name in traced[0]["layers"]
    }
    metrics["bench.trace_overhead_share"] = 1.0 - pages_per_s(
        traced
    ) / pages_per_s([c for c in crawls if "layers" not in c])
    return metrics, crawls


def report(
    args, metrics: Dict[str, float], units, crawls, setups,
    fingerprint: Dict[str, object],
) -> Dict[str, object]:
    """Print the human-readable table and write the run record."""
    attempted, failed = operations(crawls)
    correct = failed == 0 and all(
        c.get("nesting_errors", 0) == 0 for c in crawls
    )
    print("perfbench %s seed=%d trace=%d: %d crawl(s) of %s pages"
          % (args.workload, args.seed, args.trace, len(crawls),
             "/".join(str(c["pages"]) for c in crawls)))
    for name, unit in units:
        print("  %-34s %14.6g %s" % (name, metrics[name], unit))
    if not args.trace:
        passes = [s for c in crawls for s in c["read_passes"]]
        print("  (pages_per_s: pooled over %d crawls; setup_s: mean of "
              "%d set-ups; report_s: fastest of %d read passes)"
              % (len(crawls), len(setups), len(passes)))
    print("  operations: %d attempted, %d failed" % (attempted, failed))
    for c in crawls:
        for key in c["mismatched"]:
            print("  MISMATCH record %s" % key)
        for name in c["read_failures"]:
            print("  FAILED read-surface call %s" % name)
    print("host %s" % json.dumps(fingerprint, sort_keys=True))
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": fingerprint, "metrics": metrics, "setup_samples": setups,
        "crawls": [{k: v for k, v in c.items() if k != "layers"}
                   for c in crawls],
    }
    runs = os.path.join(WORK_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, int(time.time() * 1000)
    )), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout of the repro "
              "sources (src/repro is missing)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(workload)
    n_crawls = 1 if args.trace else crawl_count(args.seconds)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        # Byte-compile first, so no set-up sample pays for it.
        runner.call([sys.executable, "-m", "compileall", "-q",
                     os.path.join("src", "repro")], "compileall")
        expected = expected_paths(runner, web_seeds(args.seed, n_crawls))
        fingerprint = host.fingerprint(runner.work)
        steal = host.steal_jiffies()
        fingerprint["calibration_s"] = host.calibration_seconds()
        if args.trace:
            metrics, crawls = measure_traced(runner, expected)
            setups: List[float] = []
        else:
            metrics, crawls, setups = measure(runner, expected)
        if steal is not None:
            fingerprint["steal_jiffies"] = host.steal_jiffies() - steal
        listed = {name for name, _ in units}
        if set(metrics) != listed:
            raise BenchError(
                "metrics not computed: %s; computed but not in "
                "BENCHMARK.json: %s" % (sorted(listed - set(metrics)),
                                        sorted(set(metrics) - listed)))
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 3
    result = report(args, metrics, units, crawls, setups, fingerprint)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
