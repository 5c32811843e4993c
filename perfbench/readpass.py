"""The read pass: every read-surface command of the CLI over one crawl.

Each command call is one operation, checked against the crawl it
reads.  Run-directory commands (status, metrics, trace, fsck) need a
checkpointed crawl; the analysis commands read the crawl's saved
``survey.json`` with ``--load``.
"""

from __future__ import annotations

import io
import json
import os
import sys
import traceback
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from layers import READ_LAYERS


#: The ``survey`` reports defined for a survey of the default condition
#: alone.  The rest (``--report all``, ``figures``, ``export`` and
#: ``compare``) compare against the blocking condition and raise
#: ``KeyError('blocking')`` on such a survey.
SINGLE_CONDITION_REPORTS = (
    "table1", "figure3", "figure5", "figure7", "figure8", "failures",
    "degraded", "progress", "telemetry", "timing",
)


def commands(
    run_dir: Optional[str],
    survey_path: str,
    out_dir: str,
    conditions: Tuple[str, ...],
) -> List[Tuple[str, List[str]]]:
    """(command name, argv) of one read pass, in order."""
    cmds: List[Tuple[str, List[str]]] = []
    if run_dir is not None:
        cmds += [
            ("status", ["status", run_dir, "--format", "json"]),
            ("metrics", ["metrics", run_dir]),
            ("trace", ["trace", run_dir, "--format", "json"]),
            ("fsck", ["fsck", run_dir, "--format", "json"]),
        ]
    if "blocking" not in conditions:
        reports = []
        for name in SINGLE_CONDITION_REPORTS:
            reports += ["--report", name]
        return cmds + [("survey", ["survey", "--load", survey_path]
                        + reports)]
    cmds += [
        ("survey", ["survey", "--report", "all", "--load", survey_path]),
        ("figures", ["figures", "--load", survey_path,
                     "--out", os.path.join(out_dir, "figures")]),
        ("export", ["export", "--load", survey_path,
                    "--out", os.path.join(out_dir, "data")]),
        ("compare", ["compare", "--load", survey_path]),
    ]
    return cmds


def _written_files(text: str) -> List[str]:
    """The paths a ``name -> path`` listing reports."""
    return [
        line.split(" -> ", 1)[1] for line in text.splitlines()
        if " -> " in line
    ]


def check(
    name: str,
    rc: Optional[int],
    text: str,
    records: int,
    survey_ok: bool,
) -> bool:
    """Does this command's output agree with the crawl it read?

    ``records`` is the crawl's (condition, site) count; ``survey_ok``
    says whether the saved survey loads back with the crawl's digest.
    """
    if name == "status":
        status = json.loads(text)
        return rc == 0 and status["status"] == "complete" and (
            status["done_total"] == status["total"] == records
        )
    if name == "metrics":
        started = sum(
            float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
            if line.startswith("crawl_sites_started_total{")
        )
        return rc == 0 and text.endswith("# EOF\n") and started == records
    if name == "trace":
        return rc == 0 and json.loads(text).get("sites") == records
    if name == "fsck":
        return rc == 0 and json.loads(text)["ok"] is True
    if not survey_ok:
        return False
    if name == "survey":
        return rc == 0 and "== table1 ==" in text
    if name in ("figures", "export"):
        files = _written_files(text)
        return rc == 0 and bool(files) and all(
            os.path.isfile(path) for path in files
        )
    # compare exits 1 when the scorecard misses the paper; both are
    # answers, an exception is not.
    return rc in (0, 1) and "checks pass" in text


def run_pass(
    cmds: List[Tuple[str, List[str]]],
    records: int,
    survey_ok: bool,
    span: Optional[Callable] = None,
) -> Tuple[float, List[str]]:
    """Run every command once: (timed seconds, names that failed).

    With ``span`` (a trace's span method) each call runs inside a span
    named after its layer.  Checks run outside the timed calls.
    """
    from repro.cli import main

    seconds = 0.0
    failed: List[str] = []
    for name, argv in cmds:
        out = io.StringIO()
        started = perf_counter()
        try:
            if span is None:
                rc = main(argv, out=out)
            else:
                rc = span(READ_LAYERS[name], main, argv, out=out)
        except Exception:  # an operation failed; report it, go on
            traceback.print_exc(file=sys.stderr)
            rc = None
        seconds += perf_counter() - started
        try:
            ok = check(name, rc, out.getvalue(), records, survey_ok)
        except (ValueError, KeyError, IndexError):
            ok = False
        if not ok:
            failed.append(name)
    return seconds, failed
