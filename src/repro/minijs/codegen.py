"""The closure-compiled MiniJS execution tier (the ``compiled`` engine).

The tree-walker in :mod:`repro.minijs.interpreter` re-dispatches on node
type and re-resolves every identifier through a chain of dict-based
:class:`Environment` records on every visit.  This module adds a second
tier that does that work once, at compile time:

* **Slot resolution** — every function scope is analyzed up front and
  its bindings (params, ``var``s, hoisted functions, ``arguments``,
  ``this``) are assigned fixed list indexes.  A *frame* at run time is
  just ``(slots_list, parent_frame)``; variable access is a couple of
  list indexings instead of dict probes up an environment chain.
* **Closure compilation** — each AST node is lowered, once, to a Python
  closure ``f(rt, frame) -> value`` with its constants, slot indexes
  and child closures pre-bound.  Executing a program is then plain
  closure calls with zero per-step dispatch.
* **Inline caches** — property reads (and method-call sites) carry a
  per-site cache of the receiver's prototype chain, validated by the
  global shape epoch :data:`repro.minijs.objects.PROTO_EPOCH`.  A hit
  skips the chain walk; builtin (host) calls found through the cache
  dispatch straight into the Python callable, which is the fast path
  for the hot builtins the webgen corpus leans on (``Array.push``,
  ``Math.random``, ``document.getElementById``, ...).

The tier is **observationally identical** to the tree-walker: the same
pre-order node visits drive the same step counter, virtual clock, and
budget-meter charges (ticks, allocations, string bytes, depth checks),
so ``StepLimitExceeded``, ``BudgetExceeded``, watchdog behavior, and
trace digests are bit-for-bit the same.  The differential conformance
suite (``tests/test_engine_differential.py``) is the oracle for this.

One scoping quirk is load-bearing: the tree-walker does **not** hoist
``var`` bindings — a name only shadows outer scopes *after* its
declaration statement has executed.  Slots therefore start as the
:data:`_UNBOUND` sentinel and every non-certain access compiles to an
ordered candidate list of ``(hops, index)`` pairs with a runtime
sentinel check, falling through to the global object exactly like
``Environment.lookup`` falling off the chain.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.minijs import ast
from repro.minijs.errors import (
    JSRuntimeError,
    JSThrownValue,
    StepLimitExceeded,
)
from repro.minijs.interpreter import (
    Interpreter,
    _BreakSignal,
    _ContinueSignal,
    _ReturnSignal,
)
from repro.minijs.objects import (
    JSArray,
    JSFunction,
    JSObject,
    NULL,
    PROTO_EPOCH,
    UNDEFINED,
    forin_key_live,
    forin_keys,
    js_equals_loose,
    js_equals_strict,
    to_boolean,
    to_number,
    to_string,
    type_of,
)

#: Slot value before the ``var`` declaration statement has executed;
#: accesses fall through to outer scopes / the global object, exactly
#: like a missing key in an Environment dict.
_UNBOUND = object()

#: Inline-cache "never filled" marker (distinct from a ``None`` proto).
_MISS = object()

#: Inline-cache sites filled since the last flush.  Compiled code is
#: shared across realms but a filled cache pins the realm objects it
#: last resolved against (the start proto and the owning prototype).
#: Cross-realm hits are impossible anyway (each realm has fresh
#: prototype identities), so ``DomRealm.close`` flushes the filled
#: sites when a page ends: refcounting then frees the dead page at
#: once, instead of the next realm's construction unpinning it.
_DIRTY_ICS: List[list] = []


def flush_inline_caches() -> None:
    """Reset every filled inline-cache site (see ``_DIRTY_ICS``)."""
    for cache in _DIRTY_ICS:
        cache[0] = _MISS
        cache[1] = -1
        cache[2] = None
        cache[3] = False
    del _DIRTY_ICS[:]

_CMP = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


# ----------------------------------------------------------------------
# Compile-time scopes
# ----------------------------------------------------------------------

class _Scope:
    """A compile-time lexical scope.

    ``function`` scopes own a slot table; ``catch`` scopes hold exactly
    one binding (the caught value, always index 0); the ``global``
    scope has no slots at all — its bindings live on the global object.
    """

    __slots__ = ("kind", "parent", "slots", "always", "catch_name",
                 "this_slot")

    def __init__(self, kind: str, parent: Optional["_Scope"]) -> None:
        self.kind = kind
        self.parent = parent
        self.slots: Dict[str, int] = {}
        #: Names guaranteed bound from function entry (params,
        #: ``arguments``, top-level hoisted functions, the catch name):
        #: their accesses skip the sentinel check entirely.
        self.always: set = set()
        self.catch_name: Optional[str] = None
        self.this_slot: Optional[int] = None


def _resolve_load(scope: Optional[_Scope], name: str):
    """Resolve a read: ``(candidates, certain)``.

    ``candidates`` is an ordered list of ``(frame_hops, slot_index)``
    to probe; ``certain`` means the final candidate is always bound, so
    no global fallback can ever be reached.
    """
    candidates: List[Tuple[int, int]] = []
    hops = 0
    s = scope
    while s is not None:
        if s.kind == "catch":
            if name == s.catch_name:
                candidates.append((hops, 0))
                return candidates, True
            hops += 1
        elif s.kind == "function":
            idx = s.slots.get(name)
            if idx is not None:
                candidates.append((hops, idx))
                if name in s.always:
                    return candidates, True
            hops += 1
        s = s.parent
    return candidates, False


def _resolve_declare(scope: Optional[_Scope], name: str):
    """Resolve a ``var``/function-declaration target.

    Declarations skip catch scopes and land in the nearest function
    scope — or on the global object when there is none.
    """
    hops = 0
    s = scope
    while s is not None:
        if s.kind == "function":
            return ("slot", hops, s.slots[name])
        if s.kind == "catch":
            hops += 1
        s = s.parent
    return ("global", 0, 0)


def _resolve_this(scope: Optional[_Scope]):
    """``(hops, idx)`` of the nearest function scope's ``this`` slot,
    or ``None`` for global code (where ``this`` is the global object).
    """
    hops = 0
    s = scope
    while s is not None:
        if s.kind == "function":
            if s.this_slot is None:
                return None
            return hops, s.this_slot
        hops += 1  # catch scopes add a frame but never bind `this`
        s = s.parent
    return None


# ----------------------------------------------------------------------
# Scope analysis
# ----------------------------------------------------------------------

def _collect_decls(
    body: List[ast.Statement],
    var_names: List[str],
    fn_top: List[str],
    fn_nested: List[str],
    top: bool,
) -> None:
    """Collect every name this function body declares.

    ``fn_top`` gets function declarations directly in the body (hoisted
    at entry, hence always bound); ``fn_nested`` gets block-level ones
    (hoisted per block execution).  Nested *function* bodies are not
    descended into — their names live in their own scopes.
    """
    for stmt in body:
        kind = type(stmt)
        if kind is ast.VarDecl:
            for name, _init in stmt.declarations:
                var_names.append(name)
        elif kind is ast.FunctionDecl:
            (fn_top if top else fn_nested).append(stmt.name)
        elif kind is ast.Block or kind is ast.Program:
            _collect_decls(stmt.body, var_names, fn_top, fn_nested, False)
        elif kind is ast.If:
            _collect_decls(
                [stmt.consequent], var_names, fn_top, fn_nested, False
            )
            if stmt.alternate is not None:
                _collect_decls(
                    [stmt.alternate], var_names, fn_top, fn_nested, False
                )
        elif kind is ast.While or kind is ast.DoWhile:
            _collect_decls([stmt.body], var_names, fn_top, fn_nested, False)
        elif kind is ast.For:
            if stmt.init is not None:
                _collect_decls(
                    [stmt.init], var_names, fn_top, fn_nested, False
                )
            _collect_decls([stmt.body], var_names, fn_top, fn_nested, False)
        elif kind is ast.ForIn:
            if stmt.declares:
                var_names.append(stmt.var_name)
            _collect_decls([stmt.body], var_names, fn_top, fn_nested, False)
        elif kind is ast.Try:
            _collect_decls([stmt.block], var_names, fn_top, fn_nested, False)
            if stmt.catch_block is not None:
                _collect_decls(
                    [stmt.catch_block], var_names, fn_top, fn_nested, False
                )
            if stmt.finally_block is not None:
                _collect_decls(
                    [stmt.finally_block], var_names, fn_top, fn_nested, False
                )


def _scan_usage(body: List[ast.Statement]) -> Tuple[bool, bool]:
    """``(uses_this, uses_arguments)`` for a function body.

    Nested functions bind their own ``this``/``arguments``, so their
    bodies are skipped; everything else (including expressions) is
    walked via :func:`ast.child_nodes`.
    """
    uses_this = False
    uses_arguments = False
    stack: List[Any] = list(body)
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.FunctionDecl or kind is ast.FunctionExpr:
            continue
        if kind is ast.ThisExpr:
            uses_this = True
            if uses_arguments:
                break
            continue
        if kind is ast.Identifier:
            if node.name == "arguments":
                uses_arguments = True
                if uses_this:
                    break
            continue
        stack.extend(ast.child_nodes(node))
    return uses_this, uses_arguments


# ----------------------------------------------------------------------
# Code objects
# ----------------------------------------------------------------------

class _Code:
    """Compiled form of one function body."""

    __slots__ = ("n_slots", "param_idx", "arguments_idx", "this_idx",
                 "hoist", "body")


class _ProgramCode:
    """Compiled form of a whole program (global code has no frame)."""

    __slots__ = ("hoist", "body")


def _invoke(rt: Interpreter, code: _Code, def_frame, this, args) -> Any:
    """Run a compiled function body; mirrors the tree-walker's
    ``call_function`` prologue (params, then ``arguments``, then
    ``this``, then hoisting) including its meter charges."""
    slots = [_UNBOUND] * code.n_slots
    n = len(args)
    i = 0
    for idx in code.param_idx:
        slots[idx] = args[i] if i < n else UNDEFINED
        i += 1
    ai = code.arguments_idx
    if ai is not None:
        slots[ai] = rt.new_array(list(args))
    else:
        # The arguments array is never observed — skip building it but
        # keep the allocation charge identical to the tree-walker.
        meter = rt.meter
        if meter is not None:
            meter.charge_allocation(1 + n)
    ti = code.this_idx
    if ti is not None:
        slots[ti] = this if this is not None else rt.global_object
    frame = (slots, def_frame)
    for thunk in code.hoist:
        thunk(rt, frame)
    try:
        for stmt in code.body:
            stmt(rt, frame)
    except _ReturnSignal as signal:
        return signal.value
    return UNDEFINED


def _run_program(rt: Interpreter, code: _ProgramCode) -> Any:
    for thunk in code.hoist:
        thunk(rt, None)
    result: Any = UNDEFINED
    for stmt in code.body:
        result = stmt(rt, None)
    return result


# ----------------------------------------------------------------------
# Compilation memos
# ----------------------------------------------------------------------

# Keyed by id(program) with a strong reference to the Program held in
# the value, so a live entry's id can never be reused by a new object.
# AST programs come out of the content-addressed compile cache and are
# never mutated (TestAstImmutability), so identity is a sound key.
_PROGRAM_CODE_LIMIT = 4096
_PROGRAM_CODE: "OrderedDict[int, Tuple[ast.Program, _ProgramCode]]" = (
    OrderedDict()
)

_BODY_CODE_LIMIT = 4096
_BODY_CODE: "OrderedDict[int, Tuple[list, tuple, _Code]]" = OrderedDict()


def code_for_program(program: ast.Program) -> _ProgramCode:
    """Closure-lower a parsed program, memoized by identity."""
    key = id(program)
    entry = _PROGRAM_CODE.get(key)
    if entry is not None and entry[0] is program:
        _PROGRAM_CODE.move_to_end(key)
        return entry[1]
    scope = _Scope("global", None)
    code = _ProgramCode()
    code.hoist = _hoist_thunks(program.body, scope)
    code.body = [_compile_stmt(s, scope) for s in program.body]
    _PROGRAM_CODE[key] = (program, code)
    if len(_PROGRAM_CODE) > _PROGRAM_CODE_LIMIT:
        _PROGRAM_CODE.popitem(last=False)
    return code


def _code_for_global_fn(fn: JSFunction) -> _Code:
    """Lower a host-created raw-AST function (timer string bodies,
    ``on*`` attribute handlers) whose closure is the global scope."""
    body = fn.body or []
    params = tuple(fn.params)
    key = id(body)
    entry = _BODY_CODE.get(key)
    if entry is not None and entry[0] is body and entry[1] == params:
        _BODY_CODE.move_to_end(key)
        return entry[2]
    code = _compile_function(list(params), body, _Scope("global", None))
    _BODY_CODE[key] = (body, params, code)
    if len(_BODY_CODE) > _BODY_CODE_LIMIT:
        _BODY_CODE.popitem(last=False)
    return code


# ----------------------------------------------------------------------
# Function compilation
# ----------------------------------------------------------------------

def _compile_function(
    params: List[str],
    body: List[ast.Statement],
    parent_scope: Optional[_Scope],
) -> _Code:
    scope = _Scope("function", parent_scope)
    slots = scope.slots
    for param in params:
        if param not in slots:
            slots[param] = len(slots)
    var_names: List[str] = []
    fn_top: List[str] = []
    fn_nested: List[str] = []
    _collect_decls(body, var_names, fn_top, fn_nested, True)
    uses_this, uses_arguments = _scan_usage(body)
    for name in fn_top:
        if name not in slots:
            slots[name] = len(slots)
    for name in fn_nested:
        if name not in slots:
            slots[name] = len(slots)
    for name in var_names:
        if name not in slots:
            slots[name] = len(slots)
    if "arguments" not in slots:
        slots["arguments"] = len(slots)
    scope.always.update(params)
    scope.always.add("arguments")
    scope.always.update(fn_top)
    if uses_this:
        # "this" is a keyword, so it can never collide with a slot name.
        scope.this_slot = slots["this"] = len(slots)
    code = _Code()
    code.param_idx = [slots[p] for p in params]
    code.arguments_idx = slots["arguments"] if uses_arguments else None
    code.this_idx = scope.this_slot
    code.hoist = _hoist_thunks(body, scope)
    code.body = [_compile_stmt(s, scope) for s in body]
    code.n_slots = len(slots)
    return code


def _make_function_maker(
    node_name: str,
    node_params: List[str],
    node_body: List[ast.Statement],
    scope: _Scope,
) -> Callable:
    """Compile a function definition once; return ``make(rt, frame)``
    that materializes a fresh JSFunction per evaluation, mirroring the
    tree-walker's ``_make_function`` (charges, .prototype wiring)."""
    code = _compile_function(node_params, node_body, scope)
    name = node_name
    params = node_params

    def make(rt: Interpreter, frame) -> JSFunction:
        meter = rt.meter
        if meter is not None:
            meter.charge_allocation(2)
        fn = JSFunction(
            name=name,
            params=params,
            body=node_body,
            closure=None,
            function_prototype=rt.function_prototype,
        )
        proto = fn.properties["prototype"]
        if proto._proto is None:
            proto.prototype = rt.object_prototype
        proto.set("constructor", fn, rt)
        fn.compiled = (code, frame)
        return fn

    return make


def _store_maker(scope: _Scope, name: str) -> Callable:
    """A ``store(rt, frame, value)`` closure with declaration
    semantics: nearest function scope slot, or the global object."""
    target = _resolve_declare(scope, name)
    if target[0] == "global":
        def store(rt, frame, value):
            rt.global_object.set(name, value, rt)
        return store
    hops, idx = target[1], target[2]
    if hops == 0:
        def store(rt, frame, value):
            frame[0][idx] = value
        return store

    def store(rt, frame, value):
        f = frame
        h = hops
        while h:
            f = f[1]
            h -= 1
        f[0][idx] = value
    return store


def _assign_maker(scope: Optional[_Scope], name: str) -> Callable:
    """An ``assign(rt, frame, value)`` closure with assignment
    semantics: first live binding up the chain, else implicit global."""
    candidates, certain = _resolve_load(scope, name)
    if certain and len(candidates) == 1:
        hops, idx = candidates[0]
        if hops == 0:
            def assign(rt, frame, value):
                frame[0][idx] = value
            return assign

        def assign(rt, frame, value):
            f = frame
            h = hops
            while h:
                f = f[1]
                h -= 1
            f[0][idx] = value
        return assign
    cands = tuple(candidates)

    def assign(rt, frame, value):
        for hops, idx in cands:
            f = frame
            while hops:
                f = f[1]
                hops -= 1
            if f[0][idx] is not _UNBOUND:
                f[0][idx] = value
                return
        rt.global_object.set(name, value, rt)
    return assign


def _hoist_thunks(body: List[ast.Statement], scope: _Scope) -> list:
    thunks = []
    for stmt in body:
        if type(stmt) is ast.FunctionDecl:
            make = _make_function_maker(
                stmt.name, stmt.params, stmt.body, scope
            )
            store = _store_maker(scope, stmt.name)

            def thunk(rt, frame, _make=make, _store=store):
                _store(rt, frame, _make(rt, frame))
            thunks.append(thunk)
    return thunks


# ----------------------------------------------------------------------
# Statement compilation
#
# Every closure front-loads the exact tick sequence of the tree-walker's
# ``_tick`` (step counter, step limit, virtual clock, budget meter) so
# both engines charge identically, visit for visit.
# ----------------------------------------------------------------------

def _compile_stmt(node: ast.Statement, scope: _Scope) -> Callable:
    kind = type(node)
    handler = _STMT_COMPILERS.get(kind)
    if handler is not None:
        return handler(node, scope)
    kind_name = kind.__name__
    line = node.line

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        raise JSRuntimeError("unsupported statement %s" % kind_name, line)
    return run


def _c_expression_stmt(node: ast.ExpressionStmt, scope: _Scope) -> Callable:
    expr = _compile_expr(node.expression, scope)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        return expr(rt, frame)
    return run


def _c_var_decl(node: ast.VarDecl, scope: _Scope) -> Callable:
    decls = []
    for name, init in node.declarations:
        init_c = _compile_expr(init, scope) if init is not None else None
        decls.append((init_c, _store_maker(scope, name)))
    decls_t = tuple(decls)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        for init_c, store in decls_t:
            if init_c is None:
                store(rt, frame, UNDEFINED)
            else:
                store(rt, frame, init_c(rt, frame))
        return UNDEFINED
    return run


def _c_function_decl(node: ast.FunctionDecl, scope: _Scope) -> Callable:
    # The binding happens in the enclosing hoist pass; executing the
    # statement itself just ticks, like the tree-walker.
    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        return UNDEFINED
    return run


def _c_if(node: ast.If, scope: _Scope) -> Callable:
    test = _compile_expr(node.test, scope)
    consequent = _compile_stmt(node.consequent, scope)
    alternate = (
        _compile_stmt(node.alternate, scope)
        if node.alternate is not None
        else None
    )

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        if to_boolean(test(rt, frame)):
            return consequent(rt, frame)
        if alternate is not None:
            return alternate(rt, frame)
        return UNDEFINED
    return run


def _c_block(node: ast.Block, scope: _Scope) -> Callable:
    hoist = tuple(_hoist_thunks(node.body, scope))
    body = tuple(_compile_stmt(s, scope) for s in node.body)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        for thunk in hoist:
            thunk(rt, frame)
        result = UNDEFINED
        for stmt in body:
            result = stmt(rt, frame)
        return result
    return run


def _c_while(node: ast.While, scope: _Scope) -> Callable:
    test = _compile_expr(node.test, scope)
    body = _compile_stmt(node.body, scope)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        while to_boolean(test(rt, frame)):
            try:
                body(rt, frame)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue
        return UNDEFINED
    return run


def _c_do_while(node: ast.DoWhile, scope: _Scope) -> Callable:
    test = _compile_expr(node.test, scope)
    body = _compile_stmt(node.body, scope)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        while True:
            try:
                body(rt, frame)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if not to_boolean(test(rt, frame)):
                break
        return UNDEFINED
    return run


def _c_for(node: ast.For, scope: _Scope) -> Callable:
    init = _compile_stmt(node.init, scope) if node.init is not None else None
    test = _compile_expr(node.test, scope) if node.test is not None else None
    update = (
        _compile_expr(node.update, scope) if node.update is not None else None
    )
    body = _compile_stmt(node.body, scope)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        if init is not None:
            init(rt, frame)
        while test is None or to_boolean(test(rt, frame)):
            try:
                body(rt, frame)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if update is not None:
                update(rt, frame)
        return UNDEFINED
    return run


def _c_for_in(node: ast.ForIn, scope: _Scope) -> Callable:
    obj_c = _compile_expr(node.obj, scope)
    if node.declares:
        store = _store_maker(scope, node.var_name)
    else:
        store = _assign_maker(scope, node.var_name)
    body = _compile_stmt(node.body, scope)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        obj = obj_c(rt, frame)
        for key in forin_keys(obj):
            if not forin_key_live(obj, key):
                continue
            store(rt, frame, key)
            try:
                body(rt, frame)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue
        return UNDEFINED
    return run


def _c_return(node: ast.Return, scope: _Scope) -> Callable:
    value = (
        _compile_expr(node.value, scope) if node.value is not None else None
    )

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        raise _ReturnSignal(
            value(rt, frame) if value is not None else UNDEFINED
        )
    return run


def _c_break(node: ast.Break, scope: _Scope) -> Callable:
    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        raise _BreakSignal()
    return run


def _c_continue(node: ast.Continue, scope: _Scope) -> Callable:
    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        raise _ContinueSignal()
    return run


def _c_throw(node: ast.Throw, scope: _Scope) -> Callable:
    value = _compile_expr(node.value, scope)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        raise JSThrownValue(value(rt, frame))
    return run


def _c_try(node: ast.Try, scope: _Scope) -> Callable:
    block = _compile_stmt(node.block, scope)
    if node.catch_block is not None:
        catch_scope = _Scope("catch", scope)
        catch_scope.catch_name = node.catch_name or "e"
        catch = _compile_stmt(node.catch_block, catch_scope)
    else:
        catch = None
    final = (
        _compile_stmt(node.finally_block, scope)
        if node.finally_block is not None
        else None
    )

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        # StepLimitExceeded and BudgetExceeded are neither JSThrownValue
        # nor JSRuntimeError, so — exactly like the tree-walker — a page
        # `try` can never swallow the sandbox's control-flow exceptions.
        try:
            try:
                return block(rt, frame)
            except JSThrownValue as thrown:
                if catch is None:
                    raise
                return catch(rt, ([thrown.value], frame))
            except JSRuntimeError as error:
                if catch is None:
                    raise
                error_obj = rt.new_object("Error")
                error_obj.set("message", str(error))
                error_obj.set("name", "TypeError")
                return catch(rt, ([error_obj], frame))
        finally:
            if final is not None:
                final(rt, frame)
    return run


def _c_empty(node: ast.Empty, scope: _Scope) -> Callable:
    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        return UNDEFINED
    return run


def _c_program_stmt(node: ast.Program, scope: _Scope) -> Callable:
    # A Program appearing as a statement behaves like a Block.
    hoist = tuple(_hoist_thunks(node.body, scope))
    body = tuple(_compile_stmt(s, scope) for s in node.body)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        for thunk in hoist:
            thunk(rt, frame)
        result = UNDEFINED
        for stmt in body:
            result = stmt(rt, frame)
        return result
    return run


# ----------------------------------------------------------------------
# Expression compilation
# ----------------------------------------------------------------------

def _compile_expr(node: ast.Expression, scope: _Scope) -> Callable:
    kind = type(node)
    handler = _EXPR_COMPILERS.get(kind)
    if handler is not None:
        return handler(node, scope)
    kind_name = kind.__name__
    line = node.line

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        raise JSRuntimeError("unsupported expression %s" % kind_name, line)
    return run


def _c_literal(node: ast.Literal, scope: _Scope) -> Callable:
    value = NULL if node.value is None else node.value

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        return value
    return run


def _c_identifier(node: ast.Identifier, scope: _Scope) -> Callable:
    name = node.name
    line = node.line
    candidates, certain = _resolve_load(scope, name)
    if certain and len(candidates) == 1:
        hops, idx = candidates[0]
        if hops == 0:
            def run(rt, frame):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_limit:
                    raise StepLimitExceeded(rt.step_limit)
                rt.clock_ms += 0.0001
                meter = rt.meter
                if meter is not None:
                    meter.tick()
                return frame[0][idx]
            return run

        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            f = frame
            h = hops
            while h:
                f = f[1]
                h -= 1
            return f[0][idx]
        return run
    if not candidates:
        # Pure global read: walk the global object's chain directly.
        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            g = rt.global_object
            if type(g) is JSObject:
                obj = g
                while obj is not None:
                    props = obj.properties
                    if name in props:
                        return props[name]
                    obj = obj._proto
            elif g.has(name):
                return g.get(name)
            raise JSRuntimeError("%s is not defined" % name, line)
        return run
    cands = tuple(candidates)
    fall_to_global = not certain

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        for hops, idx in cands:
            f = frame
            while hops:
                f = f[1]
                hops -= 1
            value = f[0][idx]
            if value is not _UNBOUND:
                return value
        if fall_to_global:
            g = rt.global_object
            if g.has(name):
                return g.get(name)
        raise JSRuntimeError("%s is not defined" % name, line)
    return run


def _c_this(node: ast.ThisExpr, scope: _Scope) -> Callable:
    resolved = _resolve_this(scope)
    if resolved is None:
        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            return rt.global_object
        return run
    hops, idx = resolved

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        f = frame
        h = hops
        while h:
            f = f[1]
            h -= 1
        return f[0][idx]
    return run


def _c_member(node: ast.Member, scope: _Scope) -> Callable:
    obj_c = _compile_expr(node.obj, scope)
    name = node.name
    line = node.line
    # Per-site inline cache: [start_proto, epoch, owning_object,
    # dirty].  The cache stores the chain link where `name` was found
    # (or None for a miss) and re-reads the owner's live property dict
    # on each hit, so plain value overwrites never need invalidation;
    # layout changes are caught by the PROTO_EPOCH comparison, and
    # filled sites are flushed when a realm closes (see _DIRTY_ICS).
    cache = [_MISS, -1, None, False]

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        obj = obj_c(rt, frame)
        if type(obj) is JSObject:
            props = obj.properties
            if name in props:
                return props[name]
            proto = obj._proto
            if proto is cache[0] and cache[1] == PROTO_EPOCH[0]:
                owner = cache[2]
                if owner is None:
                    return UNDEFINED
                value = owner.properties.get(name, _MISS)
                if value is not _MISS:
                    return value
            walker = proto
            while walker is not None:
                if name in walker.properties:
                    cache[0] = proto
                    cache[1] = PROTO_EPOCH[0]
                    cache[2] = walker
                    if not cache[3]:
                        cache[3] = True
                        _DIRTY_ICS.append(cache)
                    return walker.properties[name]
                walker = walker._proto
            cache[0] = proto
            cache[1] = PROTO_EPOCH[0]
            cache[2] = None
            if not cache[3]:
                cache[3] = True
                _DIRTY_ICS.append(cache)
            return UNDEFINED
        return rt.get_member(obj, name, line)
    return run


def _c_index(node: ast.Index, scope: _Scope) -> Callable:
    obj_c = _compile_expr(node.obj, scope)
    index_c = _compile_expr(node.index, scope)
    line = node.line

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        obj = obj_c(rt, frame)
        key = index_c(rt, frame)
        # Dense-array fast path; the guard mirrors _key_string +
        # JSArray.get exactly (NaN, negatives, non-integers, and
        # >= 1e21 all format differently and take the slow path).
        if type(obj) is JSArray and type(key) is float and 0.0 <= key < 1e21:
            i = int(key)
            if i == key:
                elements = obj.elements
                if i < len(elements):
                    return elements[i]
                return UNDEFINED
        return rt.get_member(obj, rt._key_string(key), line)
    return run


def _c_call(node: ast.Call, scope: _Scope) -> Callable:
    callee = node.callee
    arg_cs = tuple(_compile_expr(a, scope) for a in node.args)
    line = node.line
    err_name = getattr(callee, "name", None) or "<expression>"
    if type(callee) is ast.Member:
        obj_c = _compile_expr(callee.obj, scope)
        name = callee.name
        member_line = callee.line
        cache = [_MISS, -1, None, False]

        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            this = obj_c(rt, frame)
            if type(this) is JSObject:
                fn = this.properties.get(name, _MISS)
                if fn is _MISS:
                    proto = this._proto
                    if proto is cache[0] and cache[1] == PROTO_EPOCH[0]:
                        owner = cache[2]
                        if owner is not None:
                            fn = owner.properties.get(name, _MISS)
                        else:
                            fn = UNDEFINED
                    if fn is _MISS:
                        walker = proto
                        while walker is not None:
                            if name in walker.properties:
                                cache[0] = proto
                                cache[1] = PROTO_EPOCH[0]
                                cache[2] = walker
                                fn = walker.properties[name]
                                break
                            walker = walker._proto
                        else:
                            cache[0] = proto
                            cache[1] = PROTO_EPOCH[0]
                            cache[2] = None
                            fn = UNDEFINED
                        if not cache[3]:
                            cache[3] = True
                            _DIRTY_ICS.append(cache)
            else:
                fn = rt.get_member(this, name, member_line)
            args = [c(rt, frame) for c in arg_cs]
            if type(fn) is JSFunction:
                depth = rt.call_depth
                if depth >= rt.max_call_depth:
                    raise JSRuntimeError("maximum call stack size exceeded")
                if meter is not None:
                    meter.check_depth(depth + 1)
                host = fn.host_call
                if host is not None:
                    # Builtin fast path: dispatch straight into the
                    # Python callable behind the JSFunction.
                    rt.call_depth = depth + 1
                    try:
                        return host(rt, this, args)
                    finally:
                        rt.call_depth = depth
                pair = fn.compiled
                if pair is not None:
                    rt.call_depth = depth + 1
                    try:
                        return _invoke(rt, pair[0], pair[1], this, args)
                    finally:
                        rt.call_depth = depth
                return rt.call_function(fn, this, args)
            if isinstance(fn, JSFunction):
                return rt.call_function(fn, this, args)
            raise JSRuntimeError("%s is not a function" % err_name, line)
        return run
    if type(callee) is ast.Index:
        obj_c = _compile_expr(callee.obj, scope)
        key_c = _compile_expr(callee.index, scope)
        index_line = callee.line

        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            this = obj_c(rt, frame)
            key = key_c(rt, frame)
            fn = rt.get_member(this, rt._key_string(key), index_line)
            args = [c(rt, frame) for c in arg_cs]
            if not isinstance(fn, JSFunction):
                raise JSRuntimeError("%s is not a function" % err_name, line)
            return rt.call_function(fn, this, args)
        return run
    callee_c = _compile_expr(callee, scope)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        fn = callee_c(rt, frame)
        args = [c(rt, frame) for c in arg_cs]
        if type(fn) is JSFunction:
            depth = rt.call_depth
            if depth >= rt.max_call_depth:
                raise JSRuntimeError("maximum call stack size exceeded")
            if meter is not None:
                meter.check_depth(depth + 1)
            host = fn.host_call
            this = rt.global_object
            if host is not None:
                rt.call_depth = depth + 1
                try:
                    return host(rt, this, args)
                finally:
                    rt.call_depth = depth
            pair = fn.compiled
            if pair is not None:
                rt.call_depth = depth + 1
                try:
                    return _invoke(rt, pair[0], pair[1], this, args)
                finally:
                    rt.call_depth = depth
            return rt.call_function(fn, this, args)
        if isinstance(fn, JSFunction):
            return rt.call_function(fn, rt.global_object, args)
        raise JSRuntimeError("%s is not a function" % err_name, line)
    return run


def _c_new(node: ast.New, scope: _Scope) -> Callable:
    callee_c = _compile_expr(node.callee, scope)
    arg_cs = tuple(_compile_expr(a, scope) for a in node.args)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        callee = callee_c(rt, frame)
        args = [c(rt, frame) for c in arg_cs]
        return rt.construct(callee, args)
    return run


def _compile_target_setter(
    target: ast.Expression, scope: _Scope
) -> Callable:
    """A ``set(rt, frame, value)`` closure mirroring
    ``Interpreter._assign_target`` (re-evaluating the object/index
    expressions, with their ticks, at set time)."""
    kind = type(target)
    if kind is ast.Identifier:
        assign = _assign_maker(scope, target.name)

        def setter(rt, frame, value):
            assign(rt, frame, value)
        return setter
    if kind is ast.Member:
        obj_c = _compile_expr(target.obj, scope)
        name = target.name
        line = target.line

        def setter(rt, frame, value):
            obj = obj_c(rt, frame)
            if type(obj) is JSObject:
                if obj._watchers:
                    obj.set(name, value, rt)
                else:
                    if obj.is_prototype and name not in obj.properties:
                        PROTO_EPOCH[0] += 1
                    obj.properties[name] = value
            else:
                rt.set_member(obj, name, value, line)
        return setter
    if kind is ast.Index:
        obj_c = _compile_expr(target.obj, scope)
        key_c = _compile_expr(target.index, scope)
        line = target.line

        def setter(rt, frame, value):
            obj = obj_c(rt, frame)
            key = key_c(rt, frame)
            if (
                type(obj) is JSArray
                and type(key) is float
                and 0.0 <= key < 1e21
            ):
                i = int(key)
                if i == key:
                    elements = obj.elements
                    if i < len(elements):
                        elements[i] = value
                        return
                    while len(elements) <= i:
                        elements.append(UNDEFINED)
                    elements[i] = value
                    return
            rt.set_member(obj, rt._key_string(key), value, line)
        return setter
    line = target.line

    def setter(rt, frame, value):
        raise JSRuntimeError("invalid assignment target", line)
    return setter


def _c_assign(node: ast.Assign, scope: _Scope) -> Callable:
    target = node.target
    value_c = _compile_expr(node.value, scope)
    if node.op == "=":
        kind = type(target)
        if kind is ast.Identifier:
            assign = _assign_maker(scope, target.name)

            def run(rt, frame):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_limit:
                    raise StepLimitExceeded(rt.step_limit)
                rt.clock_ms += 0.0001
                meter = rt.meter
                if meter is not None:
                    meter.tick()
                value = value_c(rt, frame)
                assign(rt, frame, value)
                return value
            return run
        if kind is ast.Member:
            obj_c = _compile_expr(target.obj, scope)
            name = target.name
            line = target.line

            def run(rt, frame):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_limit:
                    raise StepLimitExceeded(rt.step_limit)
                rt.clock_ms += 0.0001
                meter = rt.meter
                if meter is not None:
                    meter.tick()
                value = value_c(rt, frame)
                obj = obj_c(rt, frame)
                if type(obj) is JSObject:
                    if obj._watchers:
                        obj.set(name, value, rt)
                    else:
                        if obj.is_prototype and name not in obj.properties:
                            PROTO_EPOCH[0] += 1
                        obj.properties[name] = value
                else:
                    rt.set_member(obj, name, value, line)
                return value
            return run
        setter = _compile_target_setter(target, scope)

        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            value = value_c(rt, frame)
            setter(rt, frame, value)
            return value
        return run
    current_c = _compile_expr(target, scope)
    setter = _compile_target_setter(target, scope)
    binary_op = node.op[:-1]
    line = node.line

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        current = current_c(rt, frame)
        operand = value_c(rt, frame)
        value = rt._apply_binary(binary_op, current, operand, line)
        setter(rt, frame, value)
        return value
    return run


def _c_postfix(node: ast.Postfix, scope: _Scope) -> Callable:
    current_c = _compile_expr(node.target, scope)
    setter = _compile_target_setter(node.target, scope)
    delta = 1.0 if node.op == "++" else -1.0

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        old = to_number(current_c(rt, frame))
        setter(rt, frame, old + delta)
        return old
    return run


def _c_unary(node: ast.Unary, scope: _Scope) -> Callable:
    op = node.op
    operand = node.operand
    line = node.line
    if op == "typeof":
        if type(operand) is ast.Identifier:
            name = operand.name
            cands = tuple(_resolve_load(scope, name)[0])

            def run(rt, frame):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_limit:
                    raise StepLimitExceeded(rt.step_limit)
                rt.clock_ms += 0.0001
                meter = rt.meter
                if meter is not None:
                    meter.tick()
                for hops, idx in cands:
                    f = frame
                    while hops:
                        f = f[1]
                        hops -= 1
                    value = f[0][idx]
                    if value is not _UNBOUND:
                        return type_of(value)
                g = rt.global_object
                if g.has(name):
                    return type_of(g.get(name))
                return "undefined"
            return run
        operand_c = _compile_expr(operand, scope)

        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            return type_of(operand_c(rt, frame))
        return run
    if op == "delete":
        kind = type(operand)
        if kind is ast.Member:
            obj_c = _compile_expr(operand.obj, scope)
            name = operand.name

            def run(rt, frame):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_limit:
                    raise StepLimitExceeded(rt.step_limit)
                rt.clock_ms += 0.0001
                meter = rt.meter
                if meter is not None:
                    meter.tick()
                obj = obj_c(rt, frame)
                if isinstance(obj, JSObject):
                    return obj.delete(name)
                return True
            return run
        if kind is ast.Index:
            obj_c = _compile_expr(operand.obj, scope)
            key_c = _compile_expr(operand.index, scope)

            def run(rt, frame):
                rt.steps = steps = rt.steps + 1
                if steps > rt.step_limit:
                    raise StepLimitExceeded(rt.step_limit)
                rt.clock_ms += 0.0001
                meter = rt.meter
                if meter is not None:
                    meter.tick()
                obj = obj_c(rt, frame)
                key = rt._key_string(key_c(rt, frame))
                if isinstance(obj, JSObject):
                    return obj.delete(key)
                return True
            return run

        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            return True
        return run
    operand_c = _compile_expr(operand, scope)
    if op == "!":
        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            return not to_boolean(operand_c(rt, frame))
        return run
    if op == "-":
        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            return -to_number(operand_c(rt, frame))
        return run
    if op == "+":
        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            return to_number(operand_c(rt, frame))
        return run
    if op == "~":
        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            return float(~rt._to_int32(operand_c(rt, frame)))
        return run

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        operand_c(rt, frame)
        raise JSRuntimeError("unsupported unary %s" % op, line)
    return run


def _c_binary(node: ast.Binary, scope: _Scope) -> Callable:
    op = node.op
    line = node.line
    left_c = _compile_expr(node.left, scope)
    right_c = _compile_expr(node.right, scope)
    if op == ",":
        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            left_c(rt, frame)
            return right_c(rt, frame)
        return run
    if op == "+":
        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            left = left_c(rt, frame)
            right = right_c(rt, frame)
            if type(left) is float and type(right) is float:
                return left + right
            if (
                isinstance(left, str) or isinstance(right, str)
                or isinstance(left, JSObject) or isinstance(right, JSObject)
            ):
                result = to_string(left) + to_string(right)
                meter = rt.meter
                if meter is not None:
                    meter.charge_string_bytes(len(result))
                return result
            return to_number(left) + to_number(right)
        return run
    if op == "-":
        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            left = left_c(rt, frame)
            right = right_c(rt, frame)
            if type(left) is float and type(right) is float:
                return left - right
            return to_number(left) - to_number(right)
        return run
    if op == "*":
        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            left = left_c(rt, frame)
            right = right_c(rt, frame)
            if type(left) is float and type(right) is float:
                return left * right
            return to_number(left) * to_number(right)
        return run
    if op in ("==", "!=", "===", "!=="):
        equals = js_equals_loose if op in ("==", "!=") else js_equals_strict
        negate = op in ("!=", "!==")

        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            result = equals(left_c(rt, frame), right_c(rt, frame))
            return not result if negate else result
        return run
    if op in _CMP:
        compare = _CMP[op]

        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            left = left_c(rt, frame)
            right = right_c(rt, frame)
            if type(left) is float and type(right) is float:
                if left != left or right != right:
                    return False
                return compare(left, right)
            if isinstance(left, str) and isinstance(right, str):
                return compare(left, right)
            a = to_number(left)
            b = to_number(right)
            if a != a or b != b:
                return False
            return compare(a, b)
        return run

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        left = left_c(rt, frame)
        right = right_c(rt, frame)
        return rt._apply_binary(op, left, right, line)
    return run


def _c_logical(node: ast.Logical, scope: _Scope) -> Callable:
    left_c = _compile_expr(node.left, scope)
    right_c = _compile_expr(node.right, scope)
    if node.op == "&&":
        def run(rt, frame):
            rt.steps = steps = rt.steps + 1
            if steps > rt.step_limit:
                raise StepLimitExceeded(rt.step_limit)
            rt.clock_ms += 0.0001
            meter = rt.meter
            if meter is not None:
                meter.tick()
            left = left_c(rt, frame)
            return right_c(rt, frame) if to_boolean(left) else left
        return run

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        left = left_c(rt, frame)
        return left if to_boolean(left) else right_c(rt, frame)
    return run


def _c_conditional(node: ast.Conditional, scope: _Scope) -> Callable:
    test_c = _compile_expr(node.test, scope)
    consequent_c = _compile_expr(node.consequent, scope)
    alternate_c = _compile_expr(node.alternate, scope)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        if to_boolean(test_c(rt, frame)):
            return consequent_c(rt, frame)
        return alternate_c(rt, frame)
    return run


def _c_function_expr(node: ast.FunctionExpr, scope: _Scope) -> Callable:
    make = _make_function_maker(
        node.name or "", node.params, node.body, scope
    )

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        return make(rt, frame)
    return run


def _c_array_literal(node: ast.ArrayLiteral, scope: _Scope) -> Callable:
    element_cs = tuple(_compile_expr(e, scope) for e in node.elements)

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        return rt.new_array([c(rt, frame) for c in element_cs])
    return run


def _c_object_literal(node: ast.ObjectLiteral, scope: _Scope) -> Callable:
    entry_cs = tuple(
        (key, _compile_expr(value, scope)) for key, value in node.entries
    )

    def run(rt, frame):
        rt.steps = steps = rt.steps + 1
        if steps > rt.step_limit:
            raise StepLimitExceeded(rt.step_limit)
        rt.clock_ms += 0.0001
        meter = rt.meter
        if meter is not None:
            meter.tick()
        obj = rt.new_object()
        props = obj.properties
        for key, value_c in entry_cs:
            props[key] = value_c(rt, frame)
        return obj
    return run


_STMT_COMPILERS = {
    ast.ExpressionStmt: _c_expression_stmt,
    ast.VarDecl: _c_var_decl,
    ast.FunctionDecl: _c_function_decl,
    ast.If: _c_if,
    ast.Block: _c_block,
    ast.While: _c_while,
    ast.DoWhile: _c_do_while,
    ast.For: _c_for,
    ast.ForIn: _c_for_in,
    ast.Return: _c_return,
    ast.Break: _c_break,
    ast.Continue: _c_continue,
    ast.Throw: _c_throw,
    ast.Try: _c_try,
    ast.Empty: _c_empty,
    ast.Program: _c_program_stmt,
}

_EXPR_COMPILERS = {
    ast.Literal: _c_literal,
    ast.Identifier: _c_identifier,
    ast.ThisExpr: _c_this,
    ast.Member: _c_member,
    ast.Index: _c_index,
    ast.Call: _c_call,
    ast.New: _c_new,
    ast.Assign: _c_assign,
    ast.Postfix: _c_postfix,
    ast.Unary: _c_unary,
    ast.Binary: _c_binary,
    ast.Logical: _c_logical,
    ast.Conditional: _c_conditional,
    ast.FunctionExpr: _c_function_expr,
    ast.ArrayLiteral: _c_array_literal,
    ast.ObjectLiteral: _c_object_literal,
}


# ----------------------------------------------------------------------
# The compiled interpreter
# ----------------------------------------------------------------------

class CompiledInterpreter(Interpreter):
    """The closure-compiled execution tier.

    Same realm, builtins, budgets and observable behavior as
    :class:`Interpreter`; only the execution strategy differs.  Host
    functions and tree-closure functions transparently fall back to the
    inherited machinery.
    """

    engine = "compiled"

    def run(self, program: ast.Program) -> Any:
        return _run_program(self, code_for_program(program))

    def call_function(self, fn: Any, this: Any, args: List[Any]) -> Any:
        if not isinstance(fn, JSFunction):
            raise JSRuntimeError("%s is not a function" % type_of(fn))
        pair = fn.compiled
        if pair is None:
            if (
                fn.host_call is None
                and fn.body is not None
                and (fn.closure is None or fn.closure is self.global_env)
            ):
                # Host-created raw-AST function closed over the global
                # scope (timer string bodies, on* attribute handlers):
                # lower it lazily, once per body.
                pair = (_code_for_global_fn(fn), None)
                fn.compiled = pair
            else:
                return Interpreter.call_function(self, fn, this, args)
        depth = self.call_depth
        if depth >= self.max_call_depth:
            raise JSRuntimeError("maximum call stack size exceeded")
        if self.meter is not None:
            self.meter.check_depth(depth + 1)
        self.call_depth = depth + 1
        try:
            return _invoke(self, pair[0], pair[1], this, args)
        finally:
            self.call_depth = depth


#: Engine name -> interpreter class; the seam `--engine` selects over.
ENGINES: Dict[str, type] = {
    "tree": Interpreter,
    "compiled": CompiledInterpreter,
}


def interpreter_class(engine: str) -> type:
    try:
        return ENGINES[engine]
    except KeyError:
        raise ValueError(
            "unknown MiniJS engine %r (expected one of %s)"
            % (engine, ", ".join(sorted(ENGINES)))
        ) from None
