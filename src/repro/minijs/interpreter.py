"""The MiniJS tree-walking interpreter.

One :class:`Interpreter` is one JavaScript realm: a global object, the
built-in prototypes (``Object.prototype``, ``Function.prototype``,
``Array.prototype``), the standard library, and a step budget.  The
browser creates a fresh realm per page visit, installs the DOM bindings
onto the global object, runs the proxy-injected instrumentation first
and then the page's scripts — the execution model of section 4.2.

Determinism: ``Math.random`` draws from a seeded generator and
``Date.now`` reads a virtual clock, so identical crawls produce
identical measurements.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, Optional

from repro.minijs import ast
from repro.minijs.errors import (
    JSRuntimeError,
    JSThrownValue,
    StepLimitExceeded,
)
from repro.minijs.objects import (
    JSArray,
    JSFunction,
    JSObject,
    NULL,
    UNDEFINED,
    forin_key_live,
    forin_keys,
    format_number,
    to_int,
    js_equals_loose,
    js_equals_strict,
    to_boolean,
    to_number,
    to_string,
    type_of,
)

#: Default per-program step budget; generous for page scripts, small
#: enough that a runaway loop cannot stall a 10,000-site crawl.
DEFAULT_STEP_LIMIT = 500_000

#: Maximum JS call depth.  Each MiniJS frame costs several Python
#: frames in this tree-walker, so the ceiling sits well below Python's
#: own recursion limit; scripts see the familiar, catchable
#: "maximum call stack size exceeded".
DEFAULT_MAX_CALL_DEPTH = 90


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class Environment:
    """A lexical scope: bindings plus a parent link.

    MiniJS approximates ES3 scoping: only function bodies (and catch
    clauses) introduce scopes; blocks do not.  ``var`` declares in the
    nearest function scope.
    """

    __slots__ = ("bindings", "parent", "is_function_scope")

    def __init__(
        self,
        parent: Optional["Environment"] = None,
        is_function_scope: bool = False,
    ) -> None:
        self.bindings: Dict[str, Any] = {}
        self.parent = parent
        self.is_function_scope = is_function_scope

    def declare(self, name: str, value: Any) -> None:
        scope: Environment = self
        while not scope.is_function_scope and scope.parent is not None:
            scope = scope.parent
        scope.bindings[name] = value

    def lookup(self, name: str) -> Any:
        scope: Optional[Environment] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        raise KeyError(name)

    def assign(self, name: str, value: Any) -> bool:
        scope: Optional[Environment] = self
        while scope is not None:
            if name in scope.bindings:
                scope.bindings[name] = value
                return True
            scope = scope.parent
        return False


class Interpreter:
    """One JavaScript realm executing MiniJS programs."""

    #: Engine identifier; the closure-compiled subclass overrides it.
    engine = "tree"

    def __init__(
        self,
        seed: int = 0,
        step_limit: int = DEFAULT_STEP_LIMIT,
        global_object: Optional[JSObject] = None,
    ) -> None:
        self.rng = random.Random(seed)
        self.step_limit = step_limit
        self.steps = 0
        #: Optional per-visit :class:`repro.core.sandbox.BudgetMeter`.
        #: Duck-typed (the sandbox never needs importing here): when
        #: set, every step/allocation/call charges against site-level
        #: budgets that span all of a visit's scripts — the layer above
        #: the per-script ``step_limit``.
        self.meter: Optional[Any] = None
        self.clock_ms = 1_463_500_000_000.0  # mid-May 2016, fittingly
        #: Slot for the measuring extension's per-visit recorder; shared
        #: instrumentation shims reach it through the realm they run in.
        self.recorder: Optional[Any] = None
        self.call_depth = 0
        self.max_call_depth = DEFAULT_MAX_CALL_DEPTH
        self.object_prototype = JSObject(class_name="Object")
        self.function_prototype = JSObject(
            prototype=self.object_prototype, class_name="Function"
        )
        self.array_prototype = JSObject(
            prototype=self.object_prototype, class_name="Array"
        )
        self.global_object = global_object or JSObject(
            prototype=self.object_prototype, class_name="Window"
        )
        self.global_env = Environment(is_function_scope=True)
        self._install_builtins()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, program: ast.Program) -> Any:
        """Execute a parsed program in the realm's global scope."""
        self._hoist(program.body, self.global_env)
        result: Any = UNDEFINED
        for statement in program.body:
            result = self._exec(statement, self.global_env)
        return result

    def run_source(self, source: str) -> Any:
        """Compile (through the shared cache) and run MiniJS source."""
        from repro.minijs.compile import compile_source

        return self.run(compile_source(source))

    def reset_steps(self) -> None:
        """Restore the full step budget (called between page scripts)."""
        self.steps = 0

    def close(self) -> None:
        """Break the realm's builtin cycles; the realm is dead after.

        Builtins are host closures over this interpreter, reachable
        from its global object, its prototypes and its method tables.
        Those containers are replaced, not emptied, so nothing shared
        with another realm is touched, and no setter runs.
        """
        for obj in (self.global_object, self.object_prototype,
                    self.function_prototype, self.array_prototype):
            obj.properties = {}
            obj._watchers = {}
        self.global_env.bindings = {}
        self._string_methods = {}
        self._number_methods = {}
        self.recorder = None
        self.meter = None

    def host_function(
        self, name: str, fn: Callable[["Interpreter", Any, List[Any]], Any]
    ) -> JSFunction:
        """Wrap a Python callable as a JSFunction."""
        return JSFunction(
            name=name,
            host_call=fn,
            function_prototype=self.function_prototype,
        )

    def new_object(self, class_name: str = "Object") -> JSObject:
        if self.meter is not None:
            self.meter.charge_allocation()
        return JSObject(prototype=self.object_prototype,
                        class_name=class_name)

    def new_array(self, elements: Optional[List[Any]] = None) -> JSArray:
        if self.meter is not None:
            # An N-element array is N+1 allocations: `new Array(1e6)`
            # must charge for its payload, not count as one object.
            self.meter.charge_allocation(1 + len(elements or ()))
        return JSArray(elements, prototype=self.array_prototype)

    def call_function(
        self, fn: Any, this: Any, args: List[Any]
    ) -> Any:
        """Invoke a JSFunction (host or declared) from Python."""
        if not isinstance(fn, JSFunction):
            raise JSRuntimeError("%s is not a function" % type_of(fn))
        if self.call_depth >= self.max_call_depth:
            raise JSRuntimeError("maximum call stack size exceeded")
        if self.meter is not None:
            # The budget's recursion cap sits *below* the engine's
            # (catchable) one, so a hostile page cannot try/catch its
            # way around site isolation.
            self.meter.check_depth(self.call_depth + 1)
        self.call_depth += 1
        try:
            if fn.host_call is not None:
                return fn.host_call(self, this, args)
            env = Environment(parent=fn.closure or self.global_env,
                              is_function_scope=True)
            for index, param in enumerate(fn.params):
                env.bindings[param] = (
                    args[index] if index < len(args) else UNDEFINED
                )
            env.bindings["arguments"] = self.new_array(list(args))
            env.bindings["this"] = (
                this if this is not None else self.global_object
            )
            body = fn.body or []
            self._hoist(body, env)
            try:
                for statement in body:
                    self._exec(statement, env)
            except _ReturnSignal as signal:
                return signal.value
            return UNDEFINED
        finally:
            self.call_depth -= 1

    def construct(self, fn: Any, args: List[Any]) -> Any:
        """The ``new`` operation."""
        if not isinstance(fn, JSFunction):
            raise JSRuntimeError("%s is not a constructor" % type_of(fn))
        prototype = fn.properties.get("prototype")
        if not isinstance(prototype, JSObject):
            prototype = self.object_prototype
        instance = JSObject(
            prototype=prototype, class_name=fn.name or "Object"
        )
        result = self.call_function(fn, instance, args)
        return result if isinstance(result, JSObject) else instance

    # ------------------------------------------------------------------
    # Step accounting
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_limit:
            raise StepLimitExceeded(self.step_limit)
        # The virtual clock advances a hair per step so timing APIs
        # return strictly increasing values.
        self.clock_ms += 0.0001
        if self.meter is not None:
            self.meter.tick()

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _declare(self, env: Environment, name: str, value: Any) -> None:
        """Declare in the nearest function scope.

        Top-level declarations live on the global object itself (as in
        real JavaScript, where global `var x` and `window.x` are the
        same binding); only function-local scopes use environment
        records.
        """
        scope = env
        while not scope.is_function_scope and scope.parent is not None:
            scope = scope.parent
        if scope is self.global_env:
            self.global_object.set(name, value, self)
        else:
            scope.bindings[name] = value

    def _hoist(self, body: List[ast.Statement], env: Environment) -> None:
        for statement in body:
            if isinstance(statement, ast.FunctionDecl):
                self._declare(
                    env,
                    statement.name,
                    self._make_function(
                        statement.name, statement.params, statement.body, env
                    ),
                )

    def _exec(self, node: ast.Statement, env: Environment) -> Any:
        self._tick()
        kind = type(node)
        if kind is ast.ExpressionStmt:
            return self._eval(node.expression, env)
        if kind is ast.VarDecl:
            for name, init in node.declarations:
                value = self._eval(init, env) if init is not None else UNDEFINED
                self._declare(env, name, value)
            return UNDEFINED
        if kind is ast.FunctionDecl:
            return UNDEFINED  # hoisted
        if kind is ast.If:
            if to_boolean(self._eval(node.test, env)):
                return self._exec(node.consequent, env)
            if node.alternate is not None:
                return self._exec(node.alternate, env)
            return UNDEFINED
        if kind is ast.Block:
            result: Any = UNDEFINED
            self._hoist(node.body, env)
            for statement in node.body:
                result = self._exec(statement, env)
            return result
        if kind is ast.While:
            while to_boolean(self._eval(node.test, env)):
                try:
                    self._exec(node.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return UNDEFINED
        if kind is ast.DoWhile:
            while True:
                try:
                    self._exec(node.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if not to_boolean(self._eval(node.test, env)):
                    break
            return UNDEFINED
        if kind is ast.For:
            if node.init is not None:
                self._exec(node.init, env)
            while node.test is None or to_boolean(self._eval(node.test, env)):
                try:
                    self._exec(node.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if node.update is not None:
                    self._eval(node.update, env)
            return UNDEFINED
        if kind is ast.ForIn:
            obj = self._eval(node.obj, env)
            # Keys are snapshotted up front; the per-key liveness check
            # makes properties deleted (or array tails truncated) by
            # the loop body skip instead of enumerating stale keys.
            for key in forin_keys(obj):
                if not forin_key_live(obj, key):
                    continue
                if node.declares:
                    self._declare(env, node.var_name, key)
                else:
                    if not env.assign(node.var_name, key):
                        self.global_object.set(node.var_name, key, self)
                try:
                    self._exec(node.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return UNDEFINED
        if kind is ast.Return:
            value = (
                self._eval(node.value, env)
                if node.value is not None
                else UNDEFINED
            )
            raise _ReturnSignal(value)
        if kind is ast.Break:
            raise _BreakSignal()
        if kind is ast.Continue:
            raise _ContinueSignal()
        if kind is ast.Throw:
            raise JSThrownValue(self._eval(node.value, env))
        if kind is ast.Try:
            return self._exec_try(node, env)
        if kind is ast.Empty:
            return UNDEFINED
        if kind is ast.Program:
            self._hoist(node.body, env)
            result = UNDEFINED
            for statement in node.body:
                result = self._exec(statement, env)
            return result
        raise JSRuntimeError(
            "unsupported statement %s" % kind.__name__, node.line
        )

    def _exec_try(self, node: ast.Try, env: Environment) -> Any:
        try:
            try:
                return self._exec(node.block, env)
            except JSThrownValue as thrown:
                if node.catch_block is None:
                    raise
                catch_env = Environment(parent=env)
                catch_env.bindings[node.catch_name or "e"] = thrown.value
                return self._exec(node.catch_block, catch_env)
            except JSRuntimeError as error:
                if node.catch_block is None:
                    raise
                catch_env = Environment(parent=env)
                error_obj = self.new_object("Error")
                error_obj.set("message", str(error))
                error_obj.set("name", "TypeError")
                catch_env.bindings[node.catch_name or "e"] = error_obj
                return self._exec(node.catch_block, catch_env)
        finally:
            if node.finally_block is not None:
                self._exec(node.finally_block, env)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, node: ast.Expression, env: Environment) -> Any:
        self._tick()
        kind = type(node)
        if kind is ast.Literal:
            if node.value is None:
                return NULL
            return node.value
        if kind is ast.Identifier:
            try:
                return env.lookup(node.name)
            except KeyError:
                pass
            if self.global_object.has(node.name):
                return self.global_object.get(node.name)
            raise JSRuntimeError(
                "%s is not defined" % node.name, node.line
            )
        if kind is ast.ThisExpr:
            try:
                return env.lookup("this")
            except KeyError:
                return self.global_object
        if kind is ast.Member:
            obj = self._eval(node.obj, env)
            return self.get_member(obj, node.name, node.line)
        if kind is ast.Index:
            obj = self._eval(node.obj, env)
            key = self._eval(node.index, env)
            return self.get_member(obj, self._key_string(key), node.line)
        if kind is ast.Call:
            return self._eval_call(node, env)
        if kind is ast.New:
            callee = self._eval(node.callee, env)
            args = [self._eval(a, env) for a in node.args]
            return self.construct(callee, args)
        if kind is ast.Assign:
            return self._eval_assign(node, env)
        if kind is ast.Postfix:
            old = to_number(self._eval(node.target, env))
            delta = 1.0 if node.op == "++" else -1.0
            self._assign_target(node.target, old + delta, env)
            return old
        if kind is ast.Unary:
            return self._eval_unary(node, env)
        if kind is ast.Binary:
            return self._eval_binary(node, env)
        if kind is ast.Logical:
            left = self._eval(node.left, env)
            if node.op == "&&":
                return self._eval(node.right, env) if to_boolean(left) else left
            return left if to_boolean(left) else self._eval(node.right, env)
        if kind is ast.Conditional:
            test = to_boolean(self._eval(node.test, env))
            branch = node.consequent if test else node.alternate
            return self._eval(branch, env)
        if kind is ast.FunctionExpr:
            return self._make_function(
                node.name or "", node.params, node.body, env
            )
        if kind is ast.ArrayLiteral:
            return self.new_array(
                [self._eval(e, env) for e in node.elements]
            )
        if kind is ast.ObjectLiteral:
            obj = self.new_object()
            for key, value_expr in node.entries:
                obj.set(key, self._eval(value_expr, env), self)
            return obj
        raise JSRuntimeError(
            "unsupported expression %s" % kind.__name__, node.line
        )

    def _make_function(
        self,
        name: str,
        params: List[str],
        body: List[ast.Statement],
        env: Environment,
    ) -> JSFunction:
        if self.meter is not None:
            # A closure plus its prototype object: two allocations.
            self.meter.charge_allocation(2)
        fn = JSFunction(
            name=name,
            params=params,
            body=body,
            closure=env,
            function_prototype=self.function_prototype,
        )
        proto = fn.properties["prototype"]
        if isinstance(proto, JSObject) and proto.prototype is None:
            proto.prototype = self.object_prototype
        proto.set("constructor", fn, self)
        return fn

    def _eval_call(self, node: ast.Call, env: Environment) -> Any:
        callee = node.callee
        if isinstance(callee, ast.Member):
            this = self._eval(callee.obj, env)
            fn = self.get_member(this, callee.name, callee.line)
        elif isinstance(callee, ast.Index):
            this = self._eval(callee.obj, env)
            key = self._eval(callee.index, env)
            fn = self.get_member(this, self._key_string(key), callee.line)
        else:
            this = self.global_object
            fn = self._eval(callee, env)
        args = [self._eval(a, env) for a in node.args]
        if not isinstance(fn, JSFunction):
            name = getattr(callee, "name", None) or "<expression>"
            raise JSRuntimeError(
                "%s is not a function" % name, node.line
            )
        return self.call_function(fn, this, args)

    def _eval_assign(self, node: ast.Assign, env: Environment) -> Any:
        if node.op == "=":
            value = self._eval(node.value, env)
        else:
            current = self._eval(node.target, env)
            operand = self._eval(node.value, env)
            binary_op = node.op[:-1]
            value = self._apply_binary(binary_op, current, operand, node.line)
        self._assign_target(node.target, value, env)
        return value

    def _assign_target(
        self, target: ast.Expression, value: Any, env: Environment
    ) -> None:
        if isinstance(target, ast.Identifier):
            if not env.assign(target.name, value):
                # Implicit global, as in sloppy-mode JavaScript; global
                # scope is the global object.
                self.global_object.set(target.name, value, self)
            return
        if isinstance(target, ast.Member):
            obj = self._eval(target.obj, env)
            self.set_member(obj, target.name, value, target.line)
            return
        if isinstance(target, ast.Index):
            obj = self._eval(target.obj, env)
            key = self._eval(target.index, env)
            self.set_member(obj, self._key_string(key), value, target.line)
            return
        raise JSRuntimeError("invalid assignment target", target.line)

    def _eval_unary(self, node: ast.Unary, env: Environment) -> Any:
        if node.op == "typeof":
            if isinstance(node.operand, ast.Identifier):
                try:
                    value = env.lookup(node.operand.name)
                except KeyError:
                    if self.global_object.has(node.operand.name):
                        value = self.global_object.get(node.operand.name)
                    else:
                        return "undefined"
                return type_of(value)
            return type_of(self._eval(node.operand, env))
        if node.op == "delete":
            operand = node.operand
            if isinstance(operand, ast.Member):
                obj = self._eval(operand.obj, env)
                if isinstance(obj, JSObject):
                    return obj.delete(operand.name)
                return True
            if isinstance(operand, ast.Index):
                obj = self._eval(operand.obj, env)
                key = self._key_string(self._eval(operand.index, env))
                if isinstance(obj, JSObject):
                    return obj.delete(key)
                return True
            return True
        value = self._eval(node.operand, env)
        if node.op == "!":
            return not to_boolean(value)
        if node.op == "-":
            return -to_number(value)
        if node.op == "+":
            return to_number(value)
        if node.op == "~":
            return float(~self._to_int32(value))
        raise JSRuntimeError("unsupported unary %s" % node.op, node.line)

    def _eval_binary(self, node: ast.Binary, env: Environment) -> Any:
        if node.op == ",":
            self._eval(node.left, env)
            return self._eval(node.right, env)
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        return self._apply_binary(node.op, left, right, node.line)

    def _apply_binary(
        self, op: str, left: Any, right: Any, line: int
    ) -> Any:
        if op == "+":
            if isinstance(left, str) or isinstance(right, str) or (
                isinstance(left, JSObject) or isinstance(right, JSObject)
            ):
                result = to_string(left) + to_string(right)
                if self.meter is not None:
                    # Concatenation is where string memory bombs grow
                    # (`s = s + s` doubles per iteration); charging the
                    # result length bounds them geometrically.
                    self.meter.charge_string_bytes(len(result))
                return result
            return to_number(left) + to_number(right)
        if op == "-":
            return to_number(left) - to_number(right)
        if op == "*":
            return to_number(left) * to_number(right)
        if op == "/":
            denominator = to_number(right)
            numerator = to_number(left)
            if denominator == 0.0:
                if numerator == 0.0 or numerator != numerator:
                    return float("nan")
                return math.copysign(float("inf"), numerator) * (
                    math.copysign(1.0, denominator)
                )
            return numerator / denominator
        if op == "%":
            denominator = to_number(right)
            numerator = to_number(left)
            if denominator == 0.0 or numerator != numerator or (
                denominator != denominator
            ):
                return float("nan")
            return math.fmod(numerator, denominator)
        if op == "==":
            return js_equals_loose(left, right)
        if op == "!=":
            return not js_equals_loose(left, right)
        if op == "===":
            return js_equals_strict(left, right)
        if op == "!==":
            return not js_equals_strict(left, right)
        if op in ("<", ">", "<=", ">="):
            if isinstance(left, str) and isinstance(right, str):
                pair = (left, right)
            else:
                pair = (to_number(left), to_number(right))
                if pair[0] != pair[0] or pair[1] != pair[1]:
                    return False
            if op == "<":
                return pair[0] < pair[1]
            if op == ">":
                return pair[0] > pair[1]
            if op == "<=":
                return pair[0] <= pair[1]
            return pair[0] >= pair[1]
        if op == "&":
            return float(self._to_int32(left) & self._to_int32(right))
        if op == "|":
            return float(self._to_int32(left) | self._to_int32(right))
        if op == "^":
            return float(self._to_int32(left) ^ self._to_int32(right))
        if op == "<<":
            return float(
                self._int32_wrap(
                    self._to_int32(left) << (self._to_uint32(right) & 31)
                )
            )
        if op == ">>":
            return float(self._to_int32(left) >> (self._to_uint32(right) & 31))
        if op == ">>>":
            return float(
                (self._to_int32(left) & 0xFFFFFFFF)
                >> (self._to_uint32(right) & 31)
            )
        if op == "instanceof":
            if not isinstance(right, JSFunction):
                raise JSRuntimeError(
                    "right-hand side of instanceof is not callable", line
                )
            prototype = right.properties.get("prototype")
            obj = left.prototype if isinstance(left, JSObject) else None
            while obj is not None:
                if obj is prototype:
                    return True
                obj = obj.prototype
            return False
        if op == "in":
            if not isinstance(right, JSObject):
                raise JSRuntimeError(
                    "right-hand side of 'in' is not an object", line
                )
            return right.has(self._key_string(left))
        raise JSRuntimeError("unsupported operator %s" % op, line)

    # ------------------------------------------------------------------
    # Member protocol (primitives included)
    # ------------------------------------------------------------------

    def get_member(self, obj: Any, name: str, line: int = 0) -> Any:
        if isinstance(obj, JSObject):
            value = obj.get(name)
            if (
                value is UNDEFINED
                and isinstance(obj, JSFunction)
                and not obj.has(name)
            ):
                # Functions created outside this realm (shared host stubs)
                # still resolve call/apply/bind against this realm's
                # Function.prototype.
                return self.function_prototype.get(name)
            return value
        if isinstance(obj, str):
            return self._string_member(obj, name, line)
        if isinstance(obj, float):
            return self._number_member(obj, name, line)
        if isinstance(obj, bool):
            return UNDEFINED
        if obj is UNDEFINED or obj is NULL:
            raise JSRuntimeError(
                "cannot read property %r of %s" % (name, to_string(obj)),
                line,
            )
        return UNDEFINED

    def set_member(self, obj: Any, name: str, value: Any, line: int = 0) -> None:
        if isinstance(obj, JSObject):
            obj.set(name, value, self)
            return
        if obj is UNDEFINED or obj is NULL:
            raise JSRuntimeError(
                "cannot set property %r of %s" % (name, to_string(obj)), line
            )
        # Property writes on primitives silently no-op, as in JS.

    def _key_string(self, key: Any) -> str:
        if isinstance(key, float):
            return format_number(key)
        return to_string(key)

    @staticmethod
    def _to_int32(value: Any) -> int:
        number = to_number(value)
        if number != number or number in (float("inf"), float("-inf")):
            return 0
        integer = int(number) & 0xFFFFFFFF
        return integer - 0x100000000 if integer >= 0x80000000 else integer

    @staticmethod
    def _int32_wrap(value: int) -> int:
        value &= 0xFFFFFFFF
        return value - 0x100000000 if value >= 0x80000000 else value

    @staticmethod
    def _to_uint32(value: Any) -> int:
        number = to_number(value)
        if number != number or number in (float("inf"), float("-inf")):
            return 0
        return int(number) & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # String / number methods
    # ------------------------------------------------------------------

    def _string_member(self, value: str, name: str, line: int) -> Any:
        if name == "length":
            return float(len(value))
        if name.isdigit():
            index = int(name)
            return value[index] if index < len(value) else UNDEFINED
        methods = self._string_methods
        if name in methods:
            return methods[name]
        return UNDEFINED

    def _number_member(self, value: float, name: str, line: int) -> Any:
        if name in self._number_methods:
            return self._number_methods[name]
        return UNDEFINED

    # ------------------------------------------------------------------
    # Built-in library
    # ------------------------------------------------------------------

    def _install_builtins(self) -> None:
        self._install_object_builtins()
        self._install_function_builtins()
        self._install_array_builtins()
        self._install_string_and_number_methods()
        self._install_math()
        self._install_json()
        self._install_global_functions()
        self.global_env.bindings["this"] = self.global_object

    def _install_object_builtins(self) -> None:
        object_ctor = self.host_function(
            "Object", lambda i, t, a: i.new_object()
        )
        object_ctor.properties["prototype"] = self.object_prototype

        def keys(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            target = args[0] if args else UNDEFINED
            if isinstance(target, JSArray):
                return interp.new_array(
                    [str(i) for i in range(len(target.elements))]
                )
            if isinstance(target, JSObject):
                return interp.new_array(target.own_keys())
            return interp.new_array([])

        object_ctor.properties["keys"] = self.host_function("keys", keys)

        def watch(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            if not isinstance(this, JSObject) or len(args) < 2:
                raise JSRuntimeError("watch requires an object and handler")
            prop = to_string(args[0])
            handler_fn = args[1]
            if not isinstance(handler_fn, JSFunction):
                raise JSRuntimeError("watch handler must be a function")

            def handler(
                interp2: Optional["Interpreter"], name: str, old: Any, new: Any
            ) -> Any:
                runner = interp2 or interp
                return runner.call_function(
                    handler_fn, this, [name, old, new]
                )

            this.watch(prop, handler)
            return UNDEFINED

        def unwatch(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            if isinstance(this, JSObject) and args:
                this.unwatch(to_string(args[0]))
            return UNDEFINED

        def has_own(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            if isinstance(this, JSObject) and args:
                return this.has_own(to_string(args[0]))
            return False

        def to_string_m(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            return to_string(this)

        proto = self.object_prototype
        proto.properties["watch"] = self.host_function("watch", watch)
        proto.properties["unwatch"] = self.host_function("unwatch", unwatch)
        proto.properties["hasOwnProperty"] = self.host_function(
            "hasOwnProperty", has_own
        )
        proto.properties["toString"] = self.host_function(
            "toString", to_string_m
        )
        self.global_object.set("Object", object_ctor, self)

    def _install_function_builtins(self) -> None:
        def call(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            this_arg = args[0] if args else UNDEFINED
            return interp.call_function(this, this_arg, list(args[1:]))

        def apply(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            this_arg = args[0] if args else UNDEFINED
            rest: List[Any] = []
            if len(args) > 1 and isinstance(args[1], JSArray):
                rest = list(args[1].elements)
            return interp.call_function(this, this_arg, rest)

        def bind(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            bound_this = args[0] if args else UNDEFINED
            bound_args = list(args[1:])
            target = this

            def bound(i2: "Interpreter", t2: Any, a2: List[Any]) -> Any:
                return i2.call_function(target, bound_this, bound_args + a2)

            return interp.host_function("bound", bound)

        proto = self.function_prototype
        proto.properties["call"] = self.host_function("call", call)
        proto.properties["apply"] = self.host_function("apply", apply)
        proto.properties["bind"] = self.host_function("bind", bind)

    def _install_array_builtins(self) -> None:
        def need_array(this: Any) -> JSArray:
            if not isinstance(this, JSArray):
                raise JSRuntimeError("Array method called on non-array")
            return this

        def push(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            arr = need_array(this)
            arr.elements.extend(args)
            return float(len(arr.elements))

        def pop(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            arr = need_array(this)
            return arr.elements.pop() if arr.elements else UNDEFINED

        def shift(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            arr = need_array(this)
            return arr.elements.pop(0) if arr.elements else UNDEFINED

        def join(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            arr = need_array(this)
            separator = to_string(args[0]) if args else ","
            return separator.join(
                "" if e is UNDEFINED or e is NULL else to_string(e)
                for e in arr.elements
            )

        def index_of(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            arr = need_array(this)
            target = args[0] if args else UNDEFINED
            for i, element in enumerate(arr.elements):
                if js_equals_strict(element, target):
                    return float(i)
            return -1.0

        def slice_m(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            arr = need_array(this)
            start = to_int(args[0]) if args else 0
            end = (
                to_int(args[1], len(arr.elements))
                if len(args) > 1 and args[1] is not UNDEFINED
                else len(arr.elements)
            )
            return interp.new_array(arr.elements[start:end])

        def concat(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            arr = need_array(this)
            out = list(arr.elements)
            for arg in args:
                if isinstance(arg, JSArray):
                    out.extend(arg.elements)
                else:
                    out.append(arg)
            return interp.new_array(out)

        def for_each(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            arr = need_array(this)
            fn = args[0] if args else UNDEFINED
            for i, element in enumerate(list(arr.elements)):
                interp.call_function(fn, UNDEFINED, [element, float(i), arr])
            return UNDEFINED

        proto = self.array_prototype
        for name, fn in [
            ("push", push), ("pop", pop), ("shift", shift), ("join", join),
            ("indexOf", index_of), ("slice", slice_m), ("concat", concat),
            ("forEach", for_each),
        ]:
            proto.properties[name] = self.host_function(name, fn)

        def array_ctor(interp: "Interpreter", this: Any, args: List[Any]) -> Any:
            if len(args) == 1 and isinstance(args[0], float):
                length = max(0, to_int(args[0]))
                if interp.meter is not None:
                    # Charge *before* materializing: `new Array(1e9)`
                    # must hit the allocation budget, not the OOM
                    # killer.
                    interp.meter.charge_allocation(1 + length)
                    return JSArray([UNDEFINED] * length,
                                   prototype=interp.array_prototype)
                return interp.new_array([UNDEFINED] * length)
            return interp.new_array(list(args))

        ctor = self.host_function("Array", array_ctor)
        ctor.properties["prototype"] = self.array_prototype
        self.global_object.set("Array", ctor, self)

    def _install_string_and_number_methods(self) -> None:
        def string_method(fn: Callable[[str, List[Any]], Any], name: str):
            def wrapper(interp: "Interpreter", this: Any, args: List[Any]):
                return fn(to_string(this), args)

            return self.host_function(name, wrapper)

        self._string_methods: Dict[str, JSFunction] = {
            "charAt": string_method(
                lambda s, a: (
                    s[to_int(a[0], -1)]
                    if a and 0 <= to_int(a[0], -1) < len(s)
                    else ""
                ),
                "charAt",
            ),
            "charCodeAt": string_method(
                lambda s, a: (
                    float(ord(s[to_int(a[0]) if a else 0]))
                    if 0 <= (to_int(a[0]) if a else 0) < len(s)
                    else float("nan")
                ),
                "charCodeAt",
            ),
            "indexOf": string_method(
                lambda s, a: float(s.find(to_string(a[0]) if a else "")),
                "indexOf",
            ),
            "substring": string_method(
                lambda s, a: s[
                    max(0, to_int(a[0]) if a else 0):
                    (to_int(a[1], len(s)) if len(a) > 1 else len(s))
                ],
                "substring",
            ),
            "slice": string_method(
                lambda s, a: s[
                    (to_int(a[0]) if a else 0):
                    (to_int(a[1], len(s)) if len(a) > 1 else len(s))
                ],
                "slice",
            ),
            "toLowerCase": string_method(lambda s, a: s.lower(), "toLowerCase"),
            "toUpperCase": string_method(lambda s, a: s.upper(), "toUpperCase"),
            "split": string_method(
                lambda s, a: self.new_array(
                    list(s) if not a or to_string(a[0]) == ""
                    else s.split(to_string(a[0]))
                ),
                "split",
            ),
            "replace": string_method(
                lambda s, a: s.replace(
                    to_string(a[0]) if a else "",
                    to_string(a[1]) if len(a) > 1 else "undefined",
                    1,
                ),
                "replace",
            ),
            "trim": string_method(lambda s, a: s.strip(), "trim"),
            "toString": string_method(lambda s, a: s, "toString"),
        }

        def number_method(fn: Callable[[float, List[Any]], Any], name: str):
            def wrapper(interp: "Interpreter", this: Any, args: List[Any]):
                return fn(to_number(this), args)

            return self.host_function(name, wrapper)

        self._number_methods: Dict[str, JSFunction] = {
            "toFixed": number_method(
                lambda n, a: (
                    "%.*f" % (max(0, min(20, to_int(a[0]) if a else 0)),
                              n if n == n else 0.0)
                ),
                "toFixed",
            ),
            "toString": number_method(
                lambda n, a: format_number(n), "toString"
            ),
        }

    def _install_math(self) -> None:
        math_obj = self.new_object("Math")

        def unary(fn: Callable[[float], float], name: str) -> JSFunction:
            def wrapper(interp: "Interpreter", this: Any, args: List[Any]):
                return float(fn(to_number(args[0] if args else UNDEFINED)))

            return self.host_function(name, wrapper)

        math_obj.properties.update(
            {
                "floor": unary(math.floor, "floor"),
                "ceil": unary(math.ceil, "ceil"),
                "abs": unary(abs, "abs"),
                "round": unary(lambda x: math.floor(x + 0.5), "round"),
                "sqrt": unary(
                    lambda x: math.sqrt(x) if x >= 0 else float("nan"), "sqrt"
                ),
                "random": self.host_function(
                    "random", lambda i, t, a: i.rng.random()
                ),
                "max": self.host_function(
                    "max",
                    lambda i, t, a: max(
                        (to_number(x) for x in a), default=float("-inf")
                    ),
                ),
                "min": self.host_function(
                    "min",
                    lambda i, t, a: min(
                        (to_number(x) for x in a), default=float("inf")
                    ),
                ),
                "pow": self.host_function(
                    "pow",
                    lambda i, t, a: float(
                        to_number(a[0] if a else UNDEFINED)
                        ** to_number(a[1] if len(a) > 1 else UNDEFINED)
                    ),
                ),
                "PI": math.pi,
                "E": math.e,
            }
        )
        self.global_object.set("Math", math_obj, self)

        date_ctor = self.host_function(
            "Date", lambda i, t, a: i.new_object("Date")
        )
        date_ctor.properties["now"] = self.host_function(
            "now", lambda i, t, a: float(int(i.clock_ms))
        )
        self.global_object.set("Date", date_ctor, self)

    def _install_json(self) -> None:
        json_obj = self.new_object("JSON")

        def stringify(interp: "Interpreter", this: Any, args: List[Any]):
            if not args:
                return UNDEFINED
            return _json_stringify(args[0], seen=set())

        def parse_json(interp: "Interpreter", this: Any, args: List[Any]):
            import json as _json

            text = to_string(args[0]) if args else ""
            try:
                data = _json.loads(text)
            except ValueError:
                raise JSRuntimeError("JSON.parse: unexpected input")
            return _json_to_js(interp, data)

        json_obj.properties["stringify"] = self.host_function(
            "stringify", stringify
        )
        json_obj.properties["parse"] = self.host_function(
            "parse", parse_json
        )
        self.global_object.set("JSON", json_obj, self)

    def _install_global_functions(self) -> None:
        def parse_int(interp: "Interpreter", this: Any, args: List[Any]):
            text = to_string(args[0] if args else UNDEFINED).strip()
            base = to_int(args[1], 10) if len(args) > 1 and args[1] is not UNDEFINED else 10
            if not 2 <= base <= 36:
                return float("nan")
            match = ""
            digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:base]
            sign = 1
            if text[:1] in "+-":
                sign = -1 if text[0] == "-" else 1
                text = text[1:]
            if base == 16 and text.lower().startswith("0x"):
                text = text[2:]
            for ch in text:
                if ch.lower() in digits:
                    match += ch
                else:
                    break
            if not match:
                return float("nan")
            return float(sign * int(match, base))

        def parse_float(interp: "Interpreter", this: Any, args: List[Any]):
            text = to_string(args[0] if args else UNDEFINED).strip()
            import re as _re

            match = _re.match(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", text)
            return float(match.group()) if match else float("nan")

        def is_nan(interp: "Interpreter", this: Any, args: List[Any]):
            number = to_number(args[0] if args else UNDEFINED)
            return number != number

        def string_ctor(interp: "Interpreter", this: Any, args: List[Any]):
            return to_string(args[0]) if args else ""

        def number_ctor(interp: "Interpreter", this: Any, args: List[Any]):
            return to_number(args[0]) if args else 0.0

        def boolean_ctor(interp: "Interpreter", this: Any, args: List[Any]):
            return to_boolean(args[0]) if args else False

        def error_ctor(interp: "Interpreter", this: Any, args: List[Any]):
            err = interp.new_object("Error")
            err.set("message", to_string(args[0]) if args else "", interp)
            err.set("name", "Error", interp)
            return err

        for name, fn in [
            ("parseInt", parse_int),
            ("parseFloat", parse_float),
            ("isNaN", is_nan),
        ]:
            self.global_object.set(name, self.host_function(name, fn), self)
        for name, fn in [
            ("String", string_ctor),
            ("Number", number_ctor),
            ("Boolean", boolean_ctor),
            ("Error", error_ctor),
            ("TypeError", error_ctor),
        ]:
            self.global_object.set(name, self.host_function(name, fn), self)
        self.global_object.set("NaN", float("nan"), self)
        self.global_object.set("Infinity", float("inf"), self)
        self.global_object.set("undefined", UNDEFINED, self)


# ---------------------------------------------------------------------------
# JSON support helpers
# ---------------------------------------------------------------------------

def _json_stringify(value: Any, seen: set) -> Any:
    """JSON.stringify semantics for MiniJS values.

    Functions and undefined serialize to undefined at the top level,
    vanish from objects and become null in arrays; circular structures
    raise the familiar TypeError.
    """
    if value is UNDEFINED or isinstance(value, JSFunction):
        return UNDEFINED
    if value is NULL:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return "null"
        return format_number(value)
    if isinstance(value, str):
        import json as _json

        return _json.dumps(value)
    if isinstance(value, JSArray):
        if id(value) in seen:
            raise JSRuntimeError("Converting circular structure to JSON")
        seen = seen | {id(value)}
        parts = []
        for element in value.elements:
            rendered = _json_stringify(element, seen)
            parts.append("null" if rendered is UNDEFINED else rendered)
        return "[%s]" % ",".join(parts)
    if isinstance(value, JSObject):
        if id(value) in seen:
            raise JSRuntimeError("Converting circular structure to JSON")
        seen = seen | {id(value)}
        import json as _json

        parts = []
        for key in value.own_keys():
            rendered = _json_stringify(value.properties[key], seen)
            if rendered is UNDEFINED:
                continue
            parts.append("%s:%s" % (_json.dumps(key), rendered))
        return "{%s}" % ",".join(parts)
    return UNDEFINED


def _json_to_js(interp: "Interpreter", data: Any) -> Any:
    """Convert a python json.loads result into MiniJS values."""
    if data is None:
        return NULL
    if isinstance(data, bool):
        return data
    if isinstance(data, (int, float)):
        return float(data)
    if isinstance(data, str):
        return data
    if isinstance(data, list):
        return interp.new_array([_json_to_js(interp, e) for e in data])
    if isinstance(data, dict):
        obj = interp.new_object()
        for key, value in data.items():
            obj.properties[str(key)] = _json_to_js(interp, value)
        return obj
    return UNDEFINED
