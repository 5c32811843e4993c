"""Regenerate the stored expected records in ``expected/``.

    python3 perfbench/store_expected.py [--seeds 0-31] [WORKLOAD ...]

For each workload, computes with the tree-engine oracle the record
digests of every web that runs of the given seeds crawl at the
``run_seconds`` of ``BENCHMARK.json``, and writes
``expected/<workload>.json``.  Run it from the root of a checkout
whenever a workload's parameters or the program's measured output
change on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from workloads import WORKLOADS, crawl_count, web_seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31",
                        help="run seeds, as FIRST-LAST (default 0-31)")
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    seconds = run.spec()["run_seconds"]
    for name in args.workloads:
        workload = WORKLOADS[name]
        runner = run.Runner(workload, deadline_s=None)
        webs = sorted({
            web for seed in range(first, last + 1)
            for web in web_seeds(seed, crawl_count(seconds))
        })
        digests = runner.child("oracle", seeds=webs)
        path = os.path.join(run.EXPECTED_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"params": workload.params(), "webs": digests},
                      handle, sort_keys=True, indent=0)
            handle.write("\n")
        print("%s: %d webs -> %s" % (name, len(webs), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
