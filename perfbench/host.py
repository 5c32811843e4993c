"""The host fingerprint stored beside every run's metrics.

A reader comparing two runs needs to tell the host's own drift apart
from a program change: the same code on this kind of shared host has
read 15-20% apart between batches.  The fingerprint names the
interpreter, CPU and the filesystem under the run directories, counts
the jiffies the hypervisor stole during the run, and times a fixed
pure-Python loop just before measuring.
"""

from __future__ import annotations

import os
import platform
from time import perf_counter
from typing import Dict, Optional


def steal_jiffies() -> Optional[int]:
    """Cumulative steal time of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 \
        else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_seconds(rounds: int = 3) -> float:
    """Median time of a fixed pure-Python loop (ints, dicts, calls)."""
    def work() -> int:
        table: Dict[int, int] = {}
        total = 0
        for i in range(200_000):
            table[i & 1023] = i
            total += len(str(i)) + table[i & 1023] % 7
        return total

    times = []
    for _ in range(rounds):
        started = perf_counter()
        work()
        times.append(perf_counter() - started)
    return sorted(times)[len(times) // 2]


def filesystem(path: str) -> str:
    """The type of the filesystem holding ``path`` (ext4, tmpfs, ...)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")
                        ) and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def fingerprint(work_dir: str) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        # fsync costs are real only off tmpfs
        "work_dir_fs": filesystem(work_dir),
    }
