"""Content-addressed MiniJS compilation: parse each script body once.

The crawl executes the same scripts over and over — 13 pages x several
visit rounds per site per condition, with the first-party bundle, the
shared CDN library, ad/tracker tags and the injected instrumentation
repeated across pages, rounds and sites.  Lexing + parsing is a large
share of a page visit's cost (comparable to executing the script), so
re-compiling every body from scratch on every execution wastes most of
the crawl's CPU on work with exactly one correct answer.

:class:`CompileCache` maps ``sha256(source)`` to the parsed
:class:`~repro.minijs.ast.Program`, through a bounded LRU with
hit/miss/eviction counters.  One process-wide cache
(:func:`shared_cache`) is shared by every consumer of compiled MiniJS:

* the browser's inline + external page scripts,
* the proxy-injected instrumentation payload,
* DOM0 ``on*`` attribute handlers,
* late compilations (string ``setTimeout`` bodies,
  ``Interpreter.run_source``).

The survey runner pre-warms it before forking workers, so a parallel
crawl's children inherit a hot cache through copy-on-write memory.

Correctness contract: a cached ``Program`` is **shared and immutable**.
The interpreter walks AST nodes but never writes to them (guarded by
``tests/test_compile_cache.py``), so one compiled program can back any
number of realms concurrently.  Syntax errors are cached too — a site
whose only bundle has a fatal parse error re-raises the recorded error
instead of re-lexing the broken source five rounds in a row.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Union

from repro.minijs import ast
from repro.minijs.errors import JSLexError, JSParseError
from repro.minijs.parser import parse as _parse
from repro.obs import phase

_CompileOutcome = Union[ast.Program, JSLexError, JSParseError]

#: Bound chosen for a 10k-site crawl: distinct bodies number in the low
#: thousands (sites share CDN/ad/tracker scripts), and an AST is a few
#: KB — the ceiling exists to survive hostile workloads, not typical
#: ones.
DEFAULT_MAX_ENTRIES = 8192


def source_key(source: str) -> str:
    """The content address of a script body."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class CompileCache:
    """A bounded, stats-tracking LRU of compiled MiniJS programs."""

    def __init__(
        self, max_entries: int = DEFAULT_MAX_ENTRIES, enabled: bool = True
    ) -> None:
        self.max_entries = max_entries
        self.enabled = enabled
        self._entries: "OrderedDict[str, _CompileOutcome]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: cache hits that re-raise a recorded syntax error
        self.error_hits = 0
        #: wall seconds spent actually lexing + parsing (misses only)
        self.parse_seconds = 0.0
        #: source bytes compiled (misses only; what caching avoided
        #: re-reading is hits x their sizes, not tracked per-entry)
        self.compiled_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, source: str) -> bool:
        return source_key(source) in self._entries

    # -- the one hot path --------------------------------------------------

    def compile(self, source: str) -> ast.Program:
        """Return the parsed program for ``source``, cached by content.

        Raises :class:`JSLexError`/:class:`JSParseError` exactly as
        :func:`repro.minijs.parser.parse` would — including on a cache
        hit against a body already known to be broken.
        """
        if not self.enabled:
            with phase("parse"):
                return _parse(source)
        key = source_key(source)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            if isinstance(cached, ast.Program):
                return cached
            self.error_hits += 1
            raise cached
        self.misses += 1
        started = time.perf_counter()
        outcome: _CompileOutcome
        with phase("parse"):
            try:
                outcome = _parse(source)
            except (JSLexError, JSParseError) as error:
                outcome = error
        self.parse_seconds += time.perf_counter() - started
        self.compiled_bytes += len(source)
        self._entries[key] = outcome
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        if isinstance(outcome, ast.Program):
            return outcome
        raise outcome

    # -- warm-up -----------------------------------------------------------

    def prewarm(self, sources: Iterable[str], lower: bool = False) -> int:
        """Compile every distinct body up front; returns new entries.

        Broken sources are recorded (not raised): pre-warming must not
        fail because one synthetic site ships a deliberate syntax
        error.

        With ``lower=True`` each parsed program is also closure-lowered
        for the compiled engine, so forked crawl workers inherit both
        the AST cache and the code cache through copy-on-write memory.
        """
        before = len(self._entries)
        if not self.enabled:
            return 0
        for source in sources:
            try:
                program = self.compile(source)
            except (JSLexError, JSParseError):
                continue
            if lower:
                lower_program(program)
        return len(self._entries) - before

    # -- administration ----------------------------------------------------

    def clear(self) -> None:
        self._entries.clear()

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.error_hits = 0
        self.parse_seconds = 0.0
        self.compiled_bytes = 0

    def counters(self) -> Dict[str, float]:
        """Monotonic counters (suitable for before/after deltas)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "error_hits": self.error_hits,
            "parse_seconds": self.parse_seconds,
            "compiled_bytes": self.compiled_bytes,
        }

    @staticmethod
    def counter_delta(
        now: Dict[str, float], since: Dict[str, float]
    ) -> Dict[str, float]:
        return {
            name: value - since.get(name, 0)
            for name, value in now.items()
        }

    @property
    def hit_rate(self) -> Optional[float]:
        lookups = self.hits + self.misses
        if lookups == 0:
            return None
        return self.hits / lookups


#: The process-wide cache every layer compiles through.
_SHARED = CompileCache()


def shared_cache() -> CompileCache:
    return _SHARED


def compile_source(source: str) -> ast.Program:
    """Compile through the shared process-wide cache."""
    return _SHARED.compile(source)


def lower_program(program: ast.Program):
    """Closure-lower a parsed program for the compiled engine.

    The second compilation tier: slot-resolves identifiers and lowers
    each node to a Python closure, memoized per program identity (the
    shared AST cache guarantees one Program per distinct body, so the
    lowered code is shared exactly as widely as the AST is).
    """
    from repro.minijs.codegen import code_for_program

    return code_for_program(program)


def lower_source(source: str) -> ast.Program:
    """Compile *and* closure-lower through the shared caches."""
    program = _SHARED.compile(source)
    lower_program(program)
    return program


def configure_shared_cache(
    enabled: Optional[bool] = None, max_entries: Optional[int] = None
) -> CompileCache:
    """Tune the shared cache (benchmarks flip ``enabled`` to measure
    the cold path; surveys never need to touch this)."""
    if enabled is not None:
        _SHARED.enabled = enabled
    if max_entries is not None:
        _SHARED.max_entries = max_entries
        while len(_SHARED._entries) > _SHARED.max_entries:
            _SHARED._entries.popitem(last=False)
            _SHARED.evictions += 1
    return _SHARED
