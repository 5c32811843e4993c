"""Injectable durability layer: every run-dir write goes through here.

The checkpoint layer (:mod:`repro.core.checkpoint`) claims the run
directory survives crashes *bit-identically* — but until this module
existed, every durable write assumed the storage layer itself never
fails: an ENOSPC or EIO mid-shard raised an unclassified ``OSError``
out of the crawl loop, and nothing could exercise the "crash exactly
between these two fsyncs" windows the design claims to cover.

:class:`Storage` owns the two durable-write primitives the whole
codebase uses:

* :meth:`Storage.append_record` — one JSONL record: write, flush,
  fsync, with a bounded retry loop that **rolls back the torn tail**
  (``ftruncate`` to the pre-write size) before re-attempting, so a
  failed attempt can never leave garbage mid-file;
* :meth:`Storage.replace_atomic` — the write-then-rename pattern for
  ``manifest.json`` / ``quarantine.json``: tmp write, fsync, rename,
  directory fsync, with the tmp removed before any retry.

A write that still fails after the retries raises
:class:`StorageError` — an ``OSError`` subclass classified by cause
(``enospc``, ``eio``, ``torn``) that the survey runner and CLI turn
into a structured, *resumable* failure instead of a crash.

:class:`FaultyStorage` is the chaos arm (seeded and deterministic,
like :class:`repro.core.faults.FaultPlan` is for the network and the
worker processes, whose seed it takes): it injects ENOSPC, EIO and
torn/short writes on chosen attempts so the retry-and-rollback
machinery is exercised for real, by ``repro chaos --arms storage`` and
the CI chaos job's storage cells.

**Crashpoints** are the third leg: every durability boundary (before
and after each write, fsync and rename) fires a named crashpoint; the
crashpoint-matrix test harness arms one (point, hit) pair per run,
``os._exit``'s the process there — genuine kill ``-9`` semantics, no
``finally`` blocks, no buffered flushes — and asserts that resume
reproduces the uninterrupted run's digests bit for bit.

:class:`RunLock` rounds the module out: an advisory pid-stamped
``run.lock`` so two crawls cannot interleave appends into the same
run directory; stale locks from dead pids are reclaimed.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

#: exit status a crashpoint-armed process dies with (visible in tests)
CRASHPOINT_EXIT_CODE = 74

#: every durability boundary, in the order a write crosses them
CRASHPOINTS = (
    "append:start",       # nothing written yet
    "append:mid-write",   # half the record's bytes on disk (torn)
    "append:pre-fsync",   # full record written, not yet fsynced
    "append:post-fsync",  # the record is durable
    "replace:start",      # target and tmp both untouched
    "replace:mid-write",  # half the tmp file's bytes on disk (torn)
    "replace:pre-fsync",  # full tmp written, not yet fsynced
    "replace:pre-rename", # tmp durable, rename not yet issued (litter)
    "replace:post-rename",# the replacement is visible
)

# -- crashpoint machinery (module-level so the default Storage and any
#    FaultyStorage share one schedule) -----------------------------------

_armed: Optional[Tuple[str, int]] = None
_counts: Dict[str, int] = {}


def install_crashpoint(point: str, hit: int) -> None:
    """Arm ``os._exit`` at the ``hit``-th crossing of ``point``.

    The crashpoint-matrix harness calls this in a freshly forked child
    right before running the survey; the parent stays unarmed.
    """
    global _armed
    if point not in CRASHPOINTS:
        raise ValueError("unknown crashpoint %r" % point)
    _armed = (point, max(1, hit))


def clear_crashpoint() -> None:
    global _armed
    _armed = None


def reset_crashpoint_counts() -> None:
    _counts.clear()


def crashpoint_counts() -> Dict[str, int]:
    """How often each boundary was crossed since the last reset.

    An uninterrupted baseline run records these so the matrix knows
    exactly which (point, hit) cells exist to kill.
    """
    return dict(_counts)


def _fire(point: str) -> None:
    count = _counts.get(point, 0) + 1
    _counts[point] = count
    if _armed is not None and _armed == (point, count):
        # Genuine kill -9 semantics: no atexit, no finally, no flush.
        os._exit(CRASHPOINT_EXIT_CODE)


# -- errors --------------------------------------------------------------

class StorageError(OSError):
    """A durable write that failed even after the retry budget.

    Carries a structured cause so the crawl loop and the CLI can report
    "the disk failed" distinctly from "the code crashed" — and so tests
    can assert the failure class.  The run directory stays *resumable*:
    the failed write was rolled back (appends) or discarded (replaces)
    before this was raised.
    """

    def __init__(self, op: str, path: str, cause: str,
                 message: str) -> None:
        super().__init__("%s failed on %s: %s (%s)"
                         % (op, path, message, cause))
        self.op = op
        self.path = path
        self.cause = cause
        #: a storage failure never poisons later attempts — the dir is
        #: left consistent, so rerunning with --resume continues it
        self.resumable = True


def classify_errno(error_number: Optional[int]) -> str:
    """Map an errno to the fault-model's cause slugs."""
    if error_number in (errno.ENOSPC, getattr(errno, "EDQUOT", None)):
        return "enospc"
    if error_number == errno.EIO:
        return "eio"
    if error_number is None:
        return "unknown"
    return errno.errorcode.get(error_number, "errno-%d"
                               % error_number).lower()


class _InjectedFault(OSError):
    """Internal: a fault FaultyStorage injected (cause pre-classified)."""

    def __init__(self, cause: str) -> None:
        super().__init__("injected %s fault" % cause)
        self.cause = cause


# -- the durable-write primitives ----------------------------------------

class AppendHandle:
    """An open append-only shard: path + unbuffered binary file.

    Unbuffered (``buffering=0``) so every write goes straight to the
    fd: a kill -9 after ``write`` can lose at most what ``fsync``
    hadn't pinned, never a userspace buffer the durability math forgot.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.file = open(path, "ab", buffering=0)

    def size(self) -> int:
        return os.fstat(self.file.fileno()).st_size

    def rollback(self, size: int) -> None:
        """Truncate a failed attempt's torn tail back off the file."""
        os.ftruncate(self.file.fileno(), size)

    def close(self) -> None:
        self.file.close()


class Storage:
    """Durable-write primitives with bounded retry and torn-tail rollback.

    Subclass hook points (``_write_bytes`` / ``_fsync`` / ``_replace``)
    are the fault surface :class:`FaultyStorage` drives; the retry /
    rollback / crashpoint structure lives here so the faulty arm
    exercises exactly the production code path.
    """

    def __init__(self, attempts: int = 3) -> None:
        #: write attempts per durable operation (1 disables retries)
        self.attempts = max(1, attempts)
        #: observability: how much repair work the layer performed
        self.stats: Dict[str, int] = {
            "appends": 0,
            "replaces": 0,
            "write_retries": 0,
            "faults_injected": 0,
            "faults_unabsorbed": 0,
        }

    # -- fault surface (overridden by FaultyStorage) ---------------------

    def _write_bytes(self, file, data: bytes, op: str, path: str,
                     attempt: int) -> None:
        file.write(data)

    def _fsync(self, file, op: str, path: str, attempt: int) -> None:
        os.fsync(file.fileno())

    def _replace(self, tmp_path: str, path: str, attempt: int) -> None:
        os.replace(tmp_path, path)

    def _begin(self, op: str, path: str, attempt: int) -> None:
        """Called at the top of every attempt (fault hook)."""

    # -- primitives ------------------------------------------------------

    def open_append(self, path: str) -> AppendHandle:
        handle = AppendHandle(path)
        if handle.size() == 0:
            # A brand-new shard: pin the directory entry too, so the
            # file itself survives a crash right after creation.
            self._fsync_dir(os.path.dirname(path) or ".")
        return handle

    def append_record(self, handle: AppendHandle,
                      record: Dict[str, Any]) -> None:
        """Durably append one JSONL record: write, flush, fsync.

        Retries transient failures up to ``attempts`` times; every
        failed attempt's partial bytes are truncated back off before
        the next one, so the file is parseable at every instant.
        """
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        data = line.encode("utf-8")
        half = len(data) // 2
        self.stats["appends"] += 1
        last_error: Optional[StorageError] = None
        for attempt in range(1, self.attempts + 1):
            start = handle.size()
            try:
                self._begin("append", handle.path, attempt)
                _fire("append:start")
                # Two writes with a boundary between them: the
                # "append:mid-write" crashpoint is a *real* torn write,
                # half the record's bytes on disk and no newline.
                self._write_bytes(handle.file, data[:half], "append",
                                  handle.path, attempt)
                _fire("append:mid-write")
                self._write_bytes(handle.file, data[half:], "append",
                                  handle.path, attempt)
                _fire("append:pre-fsync")
                self._fsync(handle.file, "append", handle.path, attempt)
                _fire("append:post-fsync")
                if last_error is not None:
                    self.stats["write_retries"] += 1
                return
            except OSError as error:
                last_error = self._storage_error(
                    "append", handle.path, error
                )
                try:
                    handle.rollback(start)
                except OSError:
                    # Rollback itself failed (the disk is truly gone).
                    # The torn tail stays; resume's repair drops it.
                    break
        self.stats["faults_unabsorbed"] += 1
        raise last_error

    def replace_atomic(self, path: str, payload: Dict[str, Any],
                       indent: Optional[int] = 2) -> None:
        """Atomically replace ``path`` with serialized ``payload``.

        Write-then-rename: a crash never leaves a half-written target,
        only (at worst) an orphan ``path + ".tmp"`` that resume and
        ``fsck --repair`` clean up.  Failed attempts discard their tmp
        before retrying.  ``indent=None`` writes compact JSON (the
        large ``survey.json`` result).
        """
        data = json.dumps(
            payload, indent=indent, sort_keys=True,
            separators=(",", ":") if indent is None else None,
        )
        raw = data.encode("utf-8")
        half = len(raw) // 2
        tmp_path = path + ".tmp"
        self.stats["replaces"] += 1
        last_error: Optional[StorageError] = None
        for attempt in range(1, self.attempts + 1):
            try:
                self._begin("replace", path, attempt)
                _fire("replace:start")
                with open(tmp_path, "wb") as handle:
                    self._write_bytes(handle, raw[:half], "replace",
                                      path, attempt)
                    _fire("replace:mid-write")
                    self._write_bytes(handle, raw[half:], "replace",
                                      path, attempt)
                    handle.flush()
                    _fire("replace:pre-fsync")
                    self._fsync(handle, "replace", path, attempt)
                _fire("replace:pre-rename")
                self._replace(tmp_path, path, attempt)
                _fire("replace:post-rename")
                self._fsync_dir(os.path.dirname(path) or ".")
                if last_error is not None:
                    self.stats["write_retries"] += 1
                return
            except OSError as error:
                last_error = self._storage_error("replace", path, error)
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
        self.stats["faults_unabsorbed"] += 1
        raise last_error

    # -- helpers ---------------------------------------------------------

    def _storage_error(self, op: str, path: str,
                       error: OSError) -> StorageError:
        if isinstance(error, StorageError):
            return error
        if isinstance(error, _InjectedFault):
            cause = error.cause
        else:
            cause = classify_errno(error.errno)
        return StorageError(op, path, cause, str(error))

    @staticmethod
    def _fsync_dir(dir_path: str) -> None:
        """Pin directory metadata (new file / rename) — best effort.

        Not part of the fault surface: platforms without O_DIRECTORY
        or fsync-able directories simply skip it.
        """
        try:
            fd = os.open(dir_path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


class FaultyStorage(Storage):
    """Seeded, deterministic storage-fault injection (the chaos arm).

    Each durable operation gets an operation index per target path;
    a hash of (seed, op, basename, index) decides — identically in
    every process and on every re-run — whether its early attempts
    fault and with which pathology:

    * ``enospc`` — the write fails before any byte lands;
    * ``eio``    — the fsync fails after the bytes landed (the page
      cache took them; the platters did not);
    * ``torn``   — half the bytes land, then the device errors.

    Faults fire on attempts ``<= fail_attempts`` only, so a storage
    retry budget of ``fail_attempts + 1`` absorbs every injected fault
    and the run's digests stay bit-identical to a clean-storage run —
    the same shape as the flaky-web network-chaos acceptance.
    """

    KINDS = ("enospc", "eio", "torn")

    def __init__(self, seed: int, fault_rate: float = 1.0,
                 fail_attempts: int = 1, attempts: int = 3) -> None:
        super().__init__(attempts=attempts)
        self.seed = seed
        self.fault_rate = max(0.0, min(1.0, fault_rate))
        self.fail_attempts = max(0, fail_attempts)
        #: per-(op, path) durable-operation counter
        self._op_index: Dict[Tuple[str, str], int] = {}
        self._current: Dict[Tuple[str, str], int] = {}

    def _begin(self, op: str, path: str, attempt: int) -> None:
        key = (op, os.path.basename(path))
        if attempt == 1:
            index = self._op_index.get(key, 0) + 1
            self._op_index[key] = index
        self._current[key] = self._op_index.get(key, 1)

    def _verdict(self, op: str, path: str) -> Optional[str]:
        key = (op, os.path.basename(path))
        index = self._current.get(key, 1)
        digest = hashlib.sha256(
            ("%d:%s:%s:%d" % (self.seed, op, key[1], index))
            .encode("utf-8")
        ).digest()
        roll = int.from_bytes(digest[:4], "big") / 2 ** 32
        if roll >= self.fault_rate:
            return None
        return self.KINDS[digest[4] % len(self.KINDS)]

    def _inject(self, cause: str) -> None:
        self.stats["faults_injected"] += 1
        raise _InjectedFault(cause)

    def _write_bytes(self, file, data: bytes, op: str, path: str,
                     attempt: int) -> None:
        if attempt <= self.fail_attempts:
            kind = self._verdict(op, path)
            if kind == "enospc":
                self._inject("enospc")
            if kind == "torn":
                # Half of *this* chunk lands before the device errors;
                # the base class's rollback must clean it up.
                file.write(data[: len(data) // 2])
                self._inject("torn")
        file.write(data)

    def _fsync(self, file, op: str, path: str, attempt: int) -> None:
        if (attempt <= self.fail_attempts
                and self._verdict(op, path) == "eio"):
            self._inject("eio")
        os.fsync(file.fileno())


# -- run-dir advisory lock -----------------------------------------------

LOCK_NAME = "run.lock"


class RunLockError(ValueError):
    """The run directory is locked by another live crawl process."""


class RunLock:
    """An advisory pid-stamped lock on a run directory.

    Two crawls appending into the same shards would interleave records
    and corrupt both runs' ordering guarantees; the lock makes the
    second process abort loudly (exit 2 via :class:`RunLockError`)
    instead.  Stale locks — the pid no longer exists, e.g. after a
    kill -9 — are reclaimed automatically; ``fsck`` flags a live one.
    """

    def __init__(self, path: str, pid: int) -> None:
        self.path = path
        self.pid = pid

    @classmethod
    def acquire(cls, run_dir: str) -> "RunLock":
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, LOCK_NAME)
        for _ in range(8):
            try:
                fd = os.open(path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                holder = read_lock(path)
                pid = holder.get("pid") if holder else None
                if (isinstance(pid, int) and pid != os.getpid()
                        and pid_alive(pid)):
                    raise RunLockError(
                        "%s is locked by live process %d (%s); a "
                        "second crawl into the same run directory "
                        "would interleave its shards — wait for it or "
                        "choose another directory"
                        % (run_dir, pid, holder.get("command", "?"))
                    )
                # Dead pid or unreadable litter: reclaim and retry.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            payload = json.dumps({
                "pid": os.getpid(),
                "command": "repro survey",
            }, sort_keys=True)
            try:
                os.write(fd, payload.encode("utf-8"))
                os.fsync(fd)
            finally:
                os.close(fd)
            return cls(path, os.getpid())
        raise RunLockError(
            "%s: could not acquire run.lock (another process keeps "
            "recreating it)" % run_dir
        )

    def release(self) -> None:
        """Remove the lock if this process still owns it."""
        holder = read_lock(self.path)
        if holder and holder.get("pid") == self.pid:
            try:
                os.unlink(self.path)
            except OSError:
                pass


def read_lock(path: str) -> Optional[Dict[str, Any]]:
    """The lock file's payload, or None when absent/unreadable."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def pid_alive(pid: int) -> bool:
    """Whether a pid names a live process (advisory-lock semantics)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def orphan_tmp_files(run_dir: str) -> List[str]:
    """Crash litter: ``*.tmp`` names the write-then-rename left behind."""
    try:
        names = os.listdir(run_dir)
    except OSError:
        return []
    return sorted(n for n in names if n.endswith(".tmp"))
