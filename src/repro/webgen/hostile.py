"""A small hostile web: one site per crawl pathology.

The synthetic web models the *measurable* internet; this module models
the 267 sites the paper could not measure — pages that spin, allocate,
recurse, flood the DOM, storm the network, nap through the visit, hang
the connection or crash the browser.  Each pathology gets its own
domain so the chaos acceptance run can assert that every budget class
fires on its designated site and nowhere else:

=================  ============================================
domain             what it does / which budget catches it
=================  ============================================
``steps.chaos``    ``while (true)`` — whole-round step budget
``alloc.chaos``    allocation bomb — MiniJS allocation budget
``strings.chaos``  doubling concat — string-byte budget
``recurse.chaos``  unbounded recursion — call-depth budget
``dom.chaos``      createElement flood — DOM-node budget
``fetch.chaos``    request storm — per-page fetch budget
``deadline.chaos`` hour-long ``setTimeout`` nap — deadline
                   (fires under an injected virtual clock)
``hang.chaos``     connection that never answers — watchdog
``crash.chaos``    takes the worker process down — watchdog
``flaky.chaos``    resets the first attempt of every request —
                   per-request retry must absorb it (measured,
                   ``requests_retried > 0``, no degraded causes)
``trunc.chaos``    body cut mid-script — recovering HTML parse
                   salvages the page (measured + degraded)
``garbage.chaos``  corrupted bytes — control chars stripped,
                   page salvaged (measured + degraded)
``slow.chaos``     45-second synthetic latency — the deadline
                   budget fires (unmeasured, cause ``deadline``)
``ok-N.chaos``     benign controls; must measure cleanly
=================  ============================================

The hostile *content* is bounded even unmetered (loops stop, strings
top out around a megabyte) so an unbudgeted test touching one of these
sites degrades into an ordinary script-step-limit failure rather than
eating the machine.  The hang/crash and network pathologies are
faults, not content — :class:`HostileWeb` serves those domains
benignly, and :func:`hostile_web` derives a
:class:`~repro.core.faults.FaultPlan` from each site's pathology and
wraps the whole thing in a :class:`~repro.core.faults.FaultSource` to
arm them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.faults import FaultPlan, FaultSource
from repro.core.sandbox import ResourceBudget, VirtualClock
from repro.net.resources import Request, ResourceKind, Response
from repro.webgen.alexa import RankedSite
from repro.webgen.thirdparty import ThirdPartyEcosystem

#: every budget-class pathology, in crawl (rank) order
BUDGET_PATHOLOGIES = (
    "steps", "alloc", "strings", "recurse", "dom", "fetch", "deadline",
)

#: pathologies the watchdog (not a budget) must handle
POISON_PATHOLOGIES = ("hang", "crash")

#: network-fault pathologies the resilience layer must handle
#: (served benignly by HostileWeb; armed by its fault plan)
NET_PATHOLOGIES = ("flaky", "trunc", "garbage", "slow")

#: fault pathology -> the net fault kind (repro.core.faults) arming it
NET_FAULTS = dict(
    {p: p for p in POISON_PATHOLOGIES + NET_PATHOLOGIES}, trunc="truncate"
)

#: pathology -> the budget cause its partial measurement must carry
#: (strings share the allocation budget: both are memory exhaustion)
EXPECTED_CAUSES = {
    "steps": "steps",
    "alloc": "allocation",
    "strings": "allocation",
    "recurse": "recursion",
    "dom": "dom-nodes",
    "fetch": "fetches",
    "deadline": "deadline",
}

_PATHOLOGY_SCRIPTS: Dict[str, str] = {
    # Burns interpreter steps forever; the per-script step limit would
    # eventually catch it, but the (lower) whole-round budget fires
    # first.
    "steps": "var i = 0; while (true) { i = i + 1; }",
    # Allocation-heavy, step-light: each pass allocates a 16-slot array
    # plus an object, so the allocation budget fires long before the
    # step budget would.
    "alloc": (
        "var hoard = []; var i = 0;"
        "while (i < 30000) {"
        "  hoard.push([0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]);"
        "  i = i + 1;"
        "}"
    ),
    # Doubling concatenation: exponential string growth with trivial
    # step cost.  Bounded at ~1 MB final size so an unmetered run
    # cannot eat the machine.
    "strings": (
        'var s = "xxxxxxxx"; var i = 0;'
        "while (i < 17) { s = s + s; i = i + 1; }"
    ),
    # The recursion budget sits below the engine's own (catchable)
    # depth cap, so it fires first and aborts the visit.
    "recurse": "function f() { f(); } f();",
    # DOM flood: node growth outpaces every other counter.
    "dom": (
        "var i = 0;"
        "while (i < 30000) {"
        '  document.body.appendChild(document.createElement("div"));'
        "  i = i + 1;"
        "}"
    ),
    # Request storm from one page; the per-page fetch cap fires.
    "fetch": (
        "var i = 0;"
        'while (i < 3000) { fetch("/x" + i); i = i + 1; }'
    ),
    # Naps through the visit.  Timer flushing fast-forwards the
    # virtual clock by the full hour, so the deadline budget fires
    # without a single wall-clock second passing.
    "deadline": (
        "setTimeout(function () { var napped = 1; }, 3600000);"
    ),
}

#: what a harmless control site runs (touches one instrumented API)
_BENIGN_SCRIPT = (
    'var el = document.createElement("p");'
    "document.body.appendChild(el);"
    'setTimeout(function () { el.setAttribute("data-late", "1"); }, 40);'
)

#: ~2.5 KB of inert padding.  The truncate/garbage pages serve it as a
#: *second* script after the benign one, so a 50% body cut (or a
#: second-half garble) lands squarely in this script while the benign
#: one before it survives — the page degrades but stays measurable.
_FILLER_SCRIPT = " ".join(
    "var pad%d = %d;" % (i, i) for i in range(160)
)


@dataclass(frozen=True)
class _HostilePlan:
    """The slice of a SitePlan the survey runner reads."""

    manual_only: Tuple[str, ...] = ()
    failure_mode: Optional[str] = None


@dataclass
class HostileSite:
    """One pathological (or control) site."""

    domain: str
    rank: int
    pathology: Optional[str]  # None for benign controls
    plan: _HostilePlan = field(default_factory=_HostilePlan)

    @property
    def script(self) -> str:
        if self.pathology in _PATHOLOGY_SCRIPTS:
            return _PATHOLOGY_SCRIPTS[self.pathology]
        return _BENIGN_SCRIPT


class HostileRanking:
    """A fixed ranking over the hostile domains (Alexa stand-in)."""

    def __init__(self, domains: Sequence[str]) -> None:
        self._sites = [
            RankedSite(rank, domain, 1000.0 / rank)
            for rank, domain in enumerate(domains, start=1)
        ]

    def all(self) -> List[RankedSite]:
        return list(self._sites)

    def visit_weight(self, domain: str) -> float:
        total = sum(s.monthly_visits for s in self._sites)
        for site in self._sites:
            if site.domain == domain:
                return site.monthly_visits / total
        raise KeyError(domain)

    def __len__(self) -> int:
        return len(self._sites)


class HostileWeb:
    """A WebSource serving the pathology sites.

    Interleaves benign controls among the hostile sites so the
    acceptance run can also assert the crawl still *measures* ordinary
    sites while its neighbors explode.  The hang/crash and network
    fault domains are listed (and ranked) here but served benignly;
    :meth:`net_faults` gives the fault-plan entries that arm them (see
    :func:`hostile_web`).
    """

    def __init__(
        self,
        include_poison: bool = True,
        include_net: bool = False,
    ) -> None:
        self.ecosystem = ThirdPartyEcosystem()
        pathologies = list(BUDGET_PATHOLOGIES)
        if include_poison:
            pathologies += list(POISON_PATHOLOGIES)
        self.sites: Dict[str, HostileSite] = {}
        domains: List[str] = []
        benign = 0
        for index, pathology in enumerate(pathologies):
            if index % 3 == 0:
                benign += 1
                domains.append("ok-%d.chaos" % benign)
            domains.append("%s.chaos" % pathology)
        benign += 1
        domains.append("ok-%d.chaos" % benign)
        if include_net:
            # Appended after the existing sequence so arming the net
            # pathologies never renumbers the budget/poison ranks.
            for pathology in NET_PATHOLOGIES:
                domains.append("%s.chaos" % pathology)
            benign += 1
            domains.append("ok-%d.chaos" % benign)
        for rank, domain in enumerate(domains, start=1):
            pathology = domain.split(".", 1)[0]
            if pathology.startswith("ok-"):
                pathology = None
            self.sites[domain] = HostileSite(
                domain=domain, rank=rank, pathology=pathology
            )
        self.ranking = HostileRanking(domains)

    def net_faults(self) -> Dict[str, Dict[str, List[str]]]:
        """``{domain: {"net": [kind]}}`` for every fault pathology."""
        return {
            domain: {"net": [NET_FAULTS[site.pathology]]}
            for domain, site in self.sites.items()
            if site.pathology in NET_FAULTS
        }

    # -- WebSource ------------------------------------------------------

    def respond(self, request: Request) -> Optional[Response]:
        site = self.sites.get(request.url.host)
        if site is None:
            return None
        path = request.url.path
        if path == "/":
            return Response(
                url=request.url,
                content_type="text/html",
                body=self._page_html(site),
            )
        # Everything else (the fetch storm's /x0, /x1, ... targets)
        # answers with an empty success so the storm keeps storming.
        return Response(url=request.url, content_type="text/plain",
                        body="")

    def script_bodies(
        self, domains: Optional[Sequence[str]] = None
    ) -> Iterator[str]:
        """The inline bodies, for compile-cache pre-warming."""
        if domains is None:
            domains = list(self.sites)
        for domain in domains:
            site = self.sites.get(domain)
            if site is not None:
                yield site.script

    def _page_html(self, site: HostileSite) -> str:
        if site.pathology in ("trunc", "garbage"):
            # Benign script first, padding second: the body damage the
            # fault plan inflicts lands in the padding's tail.
            return (
                "<html><head><title>%s</title></head>"
                "<body><p>pathology: %s</p><script>%s</script>"
                "<script>%s</script></body></html>"
                % (site.domain, site.pathology, _BENIGN_SCRIPT,
                   _FILLER_SCRIPT)
            )
        return (
            "<html><head><title>%s</title></head>"
            "<body><p>pathology: %s</p><script>%s</script></body></html>"
            % (site.domain, site.pathology or "none", site.script)
        )


def hostile_web(include_poison: bool = True, include_net: bool = False):
    """The armed hostile web: content pathologies + network faults."""
    web = HostileWeb(
        include_poison=include_poison, include_net=include_net
    )
    faults = web.net_faults()
    return FaultSource(web, FaultPlan(faults)) if faults else web


def chaos_budget() -> ResourceBudget:
    """The reference budget for chaos runs: every limit armed.

    Tuned so each hostile site trips *its own* budget class first
    while the benign controls finish with comfortable headroom, and
    driven by a :class:`VirtualClock` so budget-limited chaos runs are
    bit-identical across machines and start methods.
    """
    return ResourceBudget(
        deadline_seconds=30.0,
        max_steps=120_000,
        max_allocations=8_000,
        max_string_bytes=200_000,
        max_call_depth=64,
        max_dom_nodes=1_500,
        max_fetches_per_page=64,
        clock=VirtualClock(
            seconds_per_step=0.0001, seconds_per_fetch=0.05
        ),
    )
