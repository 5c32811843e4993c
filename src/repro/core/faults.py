"""One seeded fault plan for every fault injected beneath page content.

The paper could not measure 267 of the Alexa 10k: their pages hang,
crash or exhaust the browser.  A crawl that survives such a web must
show that what it measures does not depend on what its network and
processes went through.  A :class:`FaultPlan` says which faults hit
which site, keyed by layer, and a :class:`FaultSource` wraps any web
source and carries the plan into every crawl process (spawn pickles it
with the source)::

    FaultPlan({"*": {"net": ["flaky"]},
               "a.test": {"proc": ["kill"]},
               "b.test": {"net": [Outage({1}, rounds=2)]}},
              seed=7, spawn_failures=2)

``"*"`` matches every host.  **net** faults fire in
:meth:`FaultSource.respond`: ``hang`` (the document request sleeps
until the watchdog kills the worker), ``crash`` (the document request
takes the worker down with ``os._exit(CRASH_EXIT_CODE)``), ``flaky``
(the first wire attempt of every request resets; stateless, it reads
``request.attempt``), ``truncate`` and ``garbage`` (document bodies
cut in half, or deterministically corrupted), ``slow`` (45 seconds of
synthetic latency, credited to the visit's virtual clock) and
:class:`Outage`.  **proc** faults fire in the parallel worker loop and
supervisor, which find the plan through the source's ``fault_plan``
attribute: ``kill`` (SIGKILL at the document fetch), ``memerr`` (a
``MemoryError`` at the visit's first MiniJS allocation), ``garbage``
and ``torn`` (seeded noise and a torn frame prefix written to the
result pipe ahead of the real frame), plus the plan-level
``spawn_failures`` budget of ``EAGAIN`` fork failures.  Content
pathologies live in :mod:`repro.webgen.hostile`; disk faults stay
:class:`repro.core.storage.FaultyStorage`, seeded from the plan's seed.

Process faults arm only on a site's first lease epoch: the fault
fires, the supervisor strikes and re-leases the site, and the epoch-2
dispatch measures cleanly, so the surviving measurement and trace
digests are bit-identical to a fault-free run's.  Serial runs never
lease (epoch 0), so process faults are inert outside the supervisor.
Per-task state and outage counters live in the process that measures:
parallel workers start from the supervisor's copy, which never
measures, so every worker starts with fresh counters.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.core import ipc
from repro.net.fetcher import TransientNetworkError
from repro.net.resilience import ALL_HOSTS, SYNTHETIC_DELAY_HEADER
from repro.net.resources import Request, ResourceKind, Response

#: exit status a crash-injected worker dies with (visible in tests)
CRASH_EXIT_CODE = 73

#: every named fault kind, by the layer whose hook injects it (the net
#: layer also takes :class:`Outage` instances)
LAYERS: Dict[str, Tuple[str, ...]] = {
    "net": ("hang", "crash", "flaky", "truncate", "garbage", "slow"),
    "proc": ("kill", "memerr", "garbage", "torn"),
}

#: synthetic latency of a ``slow`` document: past the reference chaos
#: budget's 30-second deadline
SLOW_SECONDS = 45.0


@dataclass(frozen=True)
class Outage:
    """The net ``outage`` fault: fail chosen site-measurement attempts.

    An attempt is one full pass of ``rounds`` visit rounds over a site;
    each round issues exactly one first-try home-page request, so
    home-page requests ``(k-1)*rounds+1 .. k*rounds`` belong to attempt
    ``k``.  Request-level retries replay a counted request and are
    never counted again, so the boundaries hold whatever the fetcher's
    retry policy.  ``scope`` is the blast radius: ``"home"`` (only the
    home page fails), ``"site"`` (every request to the domain) or
    ``"subresources"`` (everything but the home page: the degraded-page
    case).  ``transient=False`` answers "host not found", which is
    never retried, instead of raising :class:`TransientNetworkError`.
    """

    attempts: FrozenSet[int]
    rounds: int
    scope: str = "home"
    transient: bool = True

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.scope not in ("home", "site", "subresources"):
            raise ValueError("unknown outage scope %r" % self.scope)
        object.__setattr__(self, "attempts", frozenset(self.attempts))


def _seeded_bytes(seed: int, domain: str, epoch: int, tag: str,
                  nbytes: int) -> bytes:
    """Deterministic noise bytes for one (domain, epoch, tag)."""
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        material = "%d|%s|%d|%s|%d" % (seed, domain, epoch, tag, counter)
        out.extend(hashlib.sha256(material.encode("utf-8")).digest())
        counter += 1
    blob = bytes(out[:nbytes])
    # Garbage must stay garbage: scrub any accidental frame marker so
    # the decoder's recovery path, not a phantom frame, is what's
    # exercised.
    return blob.replace(ipc.MAGIC, b"XXXX")


class FaultPlan:
    """Which faults to inject where: ``{site: {layer: [kind, ...]}}``.

    Worker-side process faults key on the *current task* installed by
    :meth:`begin_task`; the spawn-failure budget is consumed by the
    supervisor.  ``hang_seconds`` bounds a ``hang``, so a serial crawl
    that reaches a hang site eventually gets control back.
    """

    def __init__(
        self,
        sites: Optional[Mapping[str, Mapping[str, Iterable]]] = None,
        seed: int = 0,
        spawn_failures: int = 0,
        hang_seconds: float = 3600.0,
    ) -> None:
        self.sites: Dict[str, Dict[str, tuple]] = {
            site: {layer: tuple(kinds) for layer, kinds in layers.items()}
            for site, layers in (sites or {}).items()
        }
        for layers in self.sites.values():
            for layer, kinds in layers.items():
                for kind in kinds:
                    if not (kind in LAYERS.get(layer, ()) or (
                            layer == "net" and isinstance(kind, Outage))):
                        raise ValueError(
                            "unknown %s fault %r" % (layer, kind)
                        )
        self.seed = seed
        self.spawn_failures = max(0, spawn_failures)
        self.hang_seconds = hang_seconds
        #: current worker task (set by :meth:`begin_task`); epoch 0
        #: means "no leased task" and disarms every process fault
        self._domain: Optional[str] = None
        self._epoch = 0

    def kinds(self, host: str, layer: str) -> tuple:
        """The ``layer`` faults aimed at ``host`` (``"*"`` included)."""
        return (self.sites.get(host, {}).get(layer, ())
                + self.sites.get(ALL_HOSTS, {}).get(layer, ()))

    def domains(self, layer: str, kind: str) -> Tuple[str, ...]:
        """The sites whose ``layer`` faults include ``kind``."""
        return tuple(
            site for site, layers in self.sites.items()
            if kind in layers.get(layer, ())
        )

    # -- worker side (proc) ------------------------------------------------

    def begin_task(self, domain: str, epoch: Optional[int]) -> None:
        """The worker loop starts measuring ``domain`` at ``epoch``."""
        self._domain = domain
        self._epoch = epoch if epoch is not None else 0

    def _armed(self, kind: str) -> bool:
        return (self._epoch == 1
                and kind in self.kinds(self._domain, "proc"))

    def should_kill(self, host: str) -> bool:
        """Take SIGKILL on this document fetch?"""
        return host == self._domain and self._armed("kill")

    def on_allocation(self, count: int) -> None:
        """Allocation-boundary hook: a ``MemoryError`` at the first
        allocation of an armed visit, the same one in every run."""
        if count == 1 and self._armed("memerr"):
            raise MemoryError(
                "injected allocator failure at allocation %d (fault "
                "plan, %s epoch %d)" % (count, self._domain, self._epoch)
            )

    def pipe_noise(self, domain: str, epoch: Optional[int]) -> List[bytes]:
        """Noise messages to write to the result pipe before the real
        frame: seeded garbage and/or a torn valid-frame prefix."""
        if epoch != 1:
            return []
        kinds = self.kinds(domain, "proc")
        noise: List[bytes] = []
        if "garbage" in kinds:
            noise.append(_seeded_bytes(self.seed, domain, epoch,
                                       "garbage", 64))
        if "torn" in kinds:
            body = _seeded_bytes(self.seed, domain, epoch, "torn", 48)
            frame = ipc.encode_frame(body)
            # A worker dying mid-write: header plus half the payload.
            noise.append(frame[: ipc.FRAME_HEADER_LEN + len(body) // 2])
        return noise

    # -- parent side (proc) ------------------------------------------------

    def check_spawn(self) -> None:
        """Consume one injected spawn failure, if any remain."""
        if self.spawn_failures > 0:
            self.spawn_failures -= 1
            raise OSError(11, "injected fork failure (fault plan)")


class FaultSource:
    """A WebSource wrapper injecting its :class:`FaultPlan`'s faults.

    Unknown attributes delegate to the wrapped source, so a wrapped
    synthetic web still exposes its ranking, sites and script bodies
    to the survey runner.  ``injected`` logs every (domain, site
    attempt) an :class:`Outage` actually failed.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self._inner = inner
        self.fault_plan = plan
        self._home_requests: Dict[str, int] = {}
        self.injected: List[Tuple[str, int]] = []

    def __getattr__(self, name: str):
        if name == "_inner":
            # During unpickling __getattr__ runs before __init__ has
            # set _inner; without this guard the lookup recurses.
            raise AttributeError(name)
        return getattr(self._inner, name)

    def respond(self, request: Request) -> Optional[Response]:
        plan = self.fault_plan
        url = request.url
        host = url.host
        net = plan.kinds(host, "net")
        is_document = request.kind == ResourceKind.DOCUMENT
        if is_document:
            if plan.should_kill(host):
                os.kill(os.getpid(), signal.SIGKILL)
            if "hang" in net:
                time.sleep(plan.hang_seconds)
                return None
            if "crash" in net:
                os._exit(CRASH_EXIT_CODE)
        outages = [fault for fault in net if isinstance(fault, Outage)]
        if outages:
            is_home = is_document and url.path == "/"
            if is_home and getattr(request, "attempt", 1) == 1:
                self._home_requests[host] = (
                    self._home_requests.get(host, 0) + 1
                )
            count = self._home_requests.get(host, 0)
            for outage in outages:
                attempt = (count - 1) // outage.rounds + 1 if count else 1
                hit = {"home": is_home, "site": True,
                       "subresources": not is_home}[outage.scope]
                if hit and attempt in outage.attempts:
                    self.injected.append((host, attempt))
                    if outage.transient:
                        raise TransientNetworkError(url, "injected outage")
                    return None
        if "flaky" in net and getattr(request, "attempt", 1) <= 1:
            raise TransientNetworkError(url, "flaky reset")
        response = self._inner.respond(request)
        if (response is None or not is_document
                or not {"truncate", "garbage", "slow"}.intersection(net)):
            return response
        body = response.body
        if "truncate" in net:
            body = body[:len(body) // 2]
        if "garbage" in net:
            body = _garbled(body)
        headers = dict(response.headers)
        if "slow" in net:
            headers[SYNTHETIC_DELAY_HEADER] = repr(SLOW_SECONDS)
        return replace(response, body=body, headers=headers)


def _garbled(body: str) -> str:
    """Corrupt the second half of ``body``, deterministically.

    Every fourth character is replaced by a C0 control byte derived
    from its position and original value (never ``\\t``/``\\n``/
    ``\\f``/``\\r``, which browsers treat as whitespace), so the same
    document garbles the same way in every process — and the
    recovering parser is guaranteed a ``control-chars`` salvage.
    """
    half = len(body) // 2
    garbled = []
    for index, char in enumerate(body[half:]):
        if index % 4 == 0:
            code = (index * 37 + ord(char)) % 31 + 1  # 1..31
            if code in (9, 10, 12, 13):
                code = 1
            garbled.append(chr(code))
        else:
            garbled.append(char)
    return body[:half] + "".join(garbled)
