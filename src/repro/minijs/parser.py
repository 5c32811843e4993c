"""Recursive-descent parser for MiniJS.

Grammar: the ES3-ish subset the synthetic web and the instrumentation
need — statements (var/function/if/while/do/for/for-in/try/throw/
break/continue/return/blocks), and expressions: comma, assignment,
conditional, the binary operators, unary, postfix and call/member/new.

Statements dispatch on their keyword through one class-level table.
The binary operators share one precedence-climbing loop,
:meth:`_Parser._binary`, over :data:`_BINARY_OPERATORS`, so reaching
an operand costs no call per precedence level.  The token list always
ends in ``eof`` and the parser never steps past it, so looking at the
current token is one list index.

The parser counts its own nesting, so a program nested past
:data:`MAX_NESTING_DEPTH` is a syntax error at a fixed depth, never a
``RecursionError`` at whatever depth the caller's stack allows.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.minijs import ast
from repro.minijs.errors import JSParseError
from repro.minijs.lexer import Token, tokenize

#: Token kinds whose value ``_at``/``_accept``/``_expect`` match; a
#: string token whose text is ";" is not the punctuator.
_OPERATOR_KINDS = ("punct", "keyword")

#: binary operator -> (precedence, node type); higher binds tighter,
#: and every level is left-associative.
_BINARY_OPERATORS = {
    "||": (1, ast.Logical),
    "&&": (2, ast.Logical),
    "|": (3, ast.Binary),
    "^": (4, ast.Binary),
    "&": (5, ast.Binary),
    "==": (6, ast.Binary), "!=": (6, ast.Binary),
    "===": (6, ast.Binary), "!==": (6, ast.Binary),
    "<": (7, ast.Binary), ">": (7, ast.Binary),
    "<=": (7, ast.Binary), ">=": (7, ast.Binary),
    "instanceof": (7, ast.Binary), "in": (7, ast.Binary),
    "<<": (8, ast.Binary), ">>": (8, ast.Binary), ">>>": (8, ast.Binary),
    "+": (9, ast.Binary), "-": (9, ast.Binary),
    "*": (10, ast.Binary), "/": (10, ast.Binary), "%": (10, ast.Binary),
}

#: Nesting levels a program may open before it is a syntax error.  A
#: parenthesized operand costs two levels (its expression and its
#: operand) and seven Python frames, so 136 levels admit 66 nested
#: parentheses, and no program needs more than half of Python's
#: default recursion limit: the other half is the caller's, enough for
#: a string timer compiled from the compiled engine's deepest call.
MAX_NESTING_DEPTH = 136

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")
_TARGETS = (ast.Identifier, ast.Member, ast.Index)


def parse(source: str) -> ast.Program:
    """Parse MiniJS source text into a Program node."""
    return _Parser(tokenize(source)).parse_program()


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _at(self, value: str) -> bool:
        token = self._tokens[self._pos]
        return token.value == value and token.kind in _OPERATOR_KINDS

    def _accept(self, value: str) -> bool:
        if self._at(value):
            self._pos += 1
            return True
        return False

    def _expect(self, value: str) -> Token:
        token = self._tokens[self._pos]
        if not self._at(value):
            raise JSParseError(
                "expected %r, found %r" % (value, token.value or "<eof>"),
                token.line,
            )
        self._pos += 1
        return token

    def _too_deep(self) -> JSParseError:
        return JSParseError(
            "nesting deeper than %d levels" % MAX_NESTING_DEPTH,
            self._tokens[self._pos].line,
        )

    def _expect_ident(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "ident":
            raise JSParseError(
                "expected identifier, found %r" % (token.value or "<eof>"),
                token.line,
            )
        self._pos += 1
        return token

    # -- statements --------------------------------------------------------

    def parse_program(self) -> ast.Program:
        body: List[ast.Statement] = []
        start = self._peek().line
        while self._peek().kind != "eof":
            body.append(self._statement())
        return ast.Program(line=start, body=body)

    def _statement(self) -> ast.Statement:
        self._depth += 1
        if self._depth > MAX_NESTING_DEPTH:
            raise self._too_deep()
        try:
            token = self._tokens[self._pos]
            if token.kind == "punct":
                if token.value == "{":
                    return self._block()
                if token.value == ";":
                    self._pos += 1
                    return ast.Empty(line=token.line)
            elif token.kind == "keyword":
                handler = self._STATEMENTS.get(token.value)
                if handler is not None:
                    return handler(self)
            expression = self._expression()
            self._accept(";")
            return ast.ExpressionStmt(
                line=token.line, expression=expression
            )
        finally:
            self._depth -= 1

    def _block(self) -> ast.Block:
        start = self._expect("{")
        body: List[ast.Statement] = []
        while not self._at("}"):
            if self._peek().kind == "eof":
                raise JSParseError("unterminated block", start.line)
            body.append(self._statement())
        self._expect("}")
        return ast.Block(line=start.line, body=body)

    def _var_statement(self) -> ast.VarDecl:
        start = self._expect("var")
        declarations = self._var_declarations()
        self._accept(";")
        return ast.VarDecl(line=start.line, declarations=declarations)

    def _var_declarations(
        self,
    ) -> List[Tuple[str, Optional[ast.Expression]]]:
        declarations: List[Tuple[str, Optional[ast.Expression]]] = []
        while True:
            name = self._expect_ident()
            init: Optional[ast.Expression] = None
            if self._accept("="):
                init = self._assignment()
            declarations.append((name.value, init))
            if not self._accept(","):
                return declarations

    def _function_declaration(self) -> ast.FunctionDecl:
        start = self._expect("function")
        name = self._expect_ident()
        params = self._param_list()
        body = self._block().body
        return ast.FunctionDecl(
            line=start.line, name=name.value, params=params, body=body
        )

    def _param_list(self) -> List[str]:
        self._expect("(")
        params: List[str] = []
        if self._accept(")"):
            return params
        while True:
            params.append(self._expect_ident().value)
            if self._accept(")"):
                return params
            self._expect(",")

    def _return_statement(self) -> ast.Return:
        start = self._expect("return")
        value: Optional[ast.Expression] = None
        token = self._peek()
        if not (
            token.kind == "eof"
            or (token.kind == "punct" and token.value in (";", "}"))
        ):
            value = self._expression()
        self._accept(";")
        return ast.Return(line=start.line, value=value)

    def _if_statement(self) -> ast.If:
        start = self._expect("if")
        self._expect("(")
        test = self._expression()
        self._expect(")")
        consequent = self._statement()
        alternate: Optional[ast.Statement] = None
        if self._accept("else"):
            alternate = self._statement()
        return ast.If(
            line=start.line,
            test=test,
            consequent=consequent,
            alternate=alternate,
        )

    def _while_statement(self) -> ast.While:
        start = self._expect("while")
        self._expect("(")
        test = self._expression()
        self._expect(")")
        body = self._statement()
        return ast.While(line=start.line, test=test, body=body)

    def _do_while_statement(self) -> ast.DoWhile:
        start = self._expect("do")
        body = self._statement()
        self._expect("while")
        self._expect("(")
        test = self._expression()
        self._expect(")")
        self._accept(";")
        return ast.DoWhile(line=start.line, test=test, body=body)

    def _for_statement(self) -> ast.Statement:
        start = self._expect("for")
        self._expect("(")
        init: Optional[ast.Statement] = None
        if self._at("var"):
            var_token = self._next()
            declarations = self._var_declarations()
            if (
                len(declarations) == 1
                and declarations[0][1] is None
                and self._at("in")
            ):
                self._next()
                obj = self._expression()
                self._expect(")")
                body = self._statement()
                return ast.ForIn(
                    line=start.line,
                    var_name=declarations[0][0],
                    declares=True,
                    obj=obj,
                    body=body,
                )
            init = ast.VarDecl(line=var_token.line, declarations=declarations)
        elif not self._at(";"):
            first = self._expression()
            # `for (k in obj)` parses as a relational `in` expression;
            # reinterpret it as the for-in head.
            if (
                isinstance(first, ast.Binary)
                and first.op == "in"
                and isinstance(first.left, ast.Identifier)
                and self._at(")")
            ):
                self._next()
                body = self._statement()
                return ast.ForIn(
                    line=start.line,
                    var_name=first.left.name,
                    declares=False,
                    obj=first.right,
                    body=body,
                )
            init = ast.ExpressionStmt(line=first.line, expression=first)
        self._expect(";")
        test: Optional[ast.Expression] = None
        if not self._at(";"):
            test = self._expression()
        self._expect(";")
        update: Optional[ast.Expression] = None
        if not self._at(")"):
            update = self._expression()
        self._expect(")")
        body = self._statement()
        return ast.For(
            line=start.line, init=init, test=test, update=update, body=body
        )

    def _break_statement(self) -> ast.Break:
        start = self._expect("break")
        self._accept(";")
        return ast.Break(line=start.line)

    def _continue_statement(self) -> ast.Continue:
        start = self._expect("continue")
        self._accept(";")
        return ast.Continue(line=start.line)

    def _throw_statement(self) -> ast.Throw:
        start = self._expect("throw")
        value = self._expression()
        self._accept(";")
        return ast.Throw(line=start.line, value=value)

    def _try_statement(self) -> ast.Try:
        start = self._expect("try")
        block = self._block()
        catch_name: Optional[str] = None
        catch_block: Optional[ast.Block] = None
        finally_block: Optional[ast.Block] = None
        if self._accept("catch"):
            self._expect("(")
            catch_name = self._expect_ident().value
            self._expect(")")
            catch_block = self._block()
        if self._accept("finally"):
            finally_block = self._block()
        if catch_block is None and finally_block is None:
            raise JSParseError(
                "try requires catch or finally", start.line
            )
        return ast.Try(
            line=start.line,
            block=block,
            catch_name=catch_name,
            catch_block=catch_block,
            finally_block=finally_block,
        )

    _STATEMENTS = {
        "var": _var_statement,
        "function": _function_declaration,
        "return": _return_statement,
        "if": _if_statement,
        "while": _while_statement,
        "do": _do_while_statement,
        "for": _for_statement,
        "break": _break_statement,
        "continue": _continue_statement,
        "throw": _throw_statement,
        "try": _try_statement,
    }

    # -- expressions (precedence climbing) ----------------------------------

    def _expression(self) -> ast.Expression:
        expr = self._assignment()
        while self._at(","):
            line = self._next().line
            right = self._assignment()
            expr = ast.Binary(line=line, op=",", left=expr, right=right)
        return expr

    def _assignment(self) -> ast.Expression:
        self._depth += 1
        if self._depth > MAX_NESTING_DEPTH:
            raise self._too_deep()
        left = self._conditional()
        token = self._tokens[self._pos]
        if token.kind == "punct" and token.value in _ASSIGN_OPS:
            if not isinstance(left, _TARGETS):
                raise JSParseError("invalid assignment target", token.line)
            self._pos += 1
            value = self._assignment()
            left = ast.Assign(
                line=token.line, op=token.value, target=left, value=value
            )
        self._depth -= 1
        return left

    def _conditional(self) -> ast.Expression:
        test = self._binary(1)
        if self._at("?"):
            line = self._next().line
            consequent = self._assignment()
            self._expect(":")
            alternate = self._assignment()
            return ast.Conditional(
                line=line,
                test=test,
                consequent=consequent,
                alternate=alternate,
            )
        return test

    def _binary(self, min_precedence: int) -> ast.Expression:
        """A unary operand, then every binary operator whose precedence
        is at least ``min_precedence``, grouped to the left."""
        left = self._unary()
        tokens = self._tokens
        while True:
            token = tokens[self._pos]
            operator = _BINARY_OPERATORS.get(token.value)
            if (
                operator is None
                or operator[0] < min_precedence
                or token.kind not in _OPERATOR_KINDS
            ):
                return left
            self._pos += 1
            # Counted, not checked: the operand's unary checks.
            self._depth += 1
            right = self._binary(operator[0] + 1)
            self._depth -= 1
            left = operator[1](
                line=token.line, op=token.value, left=left, right=right
            )

    def _unary(self) -> ast.Expression:
        self._depth += 1
        if self._depth > MAX_NESTING_DEPTH:
            raise self._too_deep()
        try:
            token = self._tokens[self._pos]
            if token.kind == "punct":
                if token.value in ("!", "-", "+", "~"):
                    self._pos += 1
                    operand = self._unary()
                    return ast.Unary(
                        line=token.line, op=token.value, operand=operand
                    )
                if token.value in ("++", "--"):
                    self._pos += 1
                    operand = self._unary()
                    if not isinstance(operand, _TARGETS):
                        raise JSParseError(
                            "invalid increment/decrement target", token.line
                        )
                    # Prefix ++x desugars to the compound assignment x += 1.
                    op = "+=" if token.value == "++" else "-="
                    return ast.Assign(
                        line=token.line,
                        op=op,
                        target=operand,
                        value=ast.Literal(line=token.line, value=1.0),
                    )
            elif token.kind == "keyword":
                if token.value == "new":
                    return self._new_expression()
                if token.value in ("typeof", "delete"):
                    self._pos += 1
                    operand = self._unary()
                    return ast.Unary(
                        line=token.line, op=token.value, operand=operand
                    )
            return self._postfix()
        finally:
            self._depth -= 1

    def _new_expression(self) -> ast.Expression:
        self._depth += 1
        if self._depth > MAX_NESTING_DEPTH:
            raise self._too_deep()
        token = self._expect("new")
        callee = self._call_tail(self._primary(), calls=False)
        args: List[ast.Expression] = []
        if self._at("("):
            args = self._call_args()
        expr: ast.Expression = ast.New(
            line=token.line, callee=callee, args=args
        )
        self._depth -= 1
        return self._call_tail(expr)

    def _member_name(self) -> str:
        token = self._tokens[self._pos]
        if token.kind in ("ident", "keyword"):
            self._pos += 1
            return token.value
        raise JSParseError(
            "expected property name, found %r" % (token.value or "<eof>"),
            token.line,
        )

    def _postfix(self) -> ast.Expression:
        expr = self._call_tail(self._primary())
        token = self._tokens[self._pos]
        if token.kind == "punct" and token.value in ("++", "--"):
            if not isinstance(expr, _TARGETS):
                raise JSParseError(
                    "invalid increment/decrement target", token.line
                )
            self._pos += 1
            return ast.Postfix(line=token.line, op=token.value, target=expr)
        return expr

    def _call_tail(
        self, expr: ast.Expression, calls: bool = True
    ) -> ast.Expression:
        """Member, index and call suffixes; a `new` callee takes no
        calls (``calls=False``), since its argument list is the `new`'s."""
        while True:
            token = self._tokens[self._pos]
            if token.kind != "punct":
                return expr
            if token.value == ".":
                self._pos += 1
                name = self._member_name()
                expr = ast.Member(line=token.line, obj=expr, name=name)
            elif token.value == "[":
                self._pos += 1
                index = self._expression()
                self._expect("]")
                expr = ast.Index(line=token.line, obj=expr, index=index)
            elif token.value == "(" and calls:
                args = self._call_args()
                expr = ast.Call(line=token.line, callee=expr, args=args)
            else:
                return expr

    def _call_args(self) -> List[ast.Expression]:
        self._expect("(")
        args: List[ast.Expression] = []
        if self._accept(")"):
            return args
        while True:
            args.append(self._assignment())
            if self._accept(")"):
                return args
            self._expect(",")

    def _primary(self) -> ast.Expression:
        token = self._peek()
        if token.kind == "number":
            self._next()
            if token.value.lower().startswith("0x"):
                return ast.Literal(line=token.line, value=float(int(token.value, 16)))
            return ast.Literal(line=token.line, value=float(token.value))
        if token.kind == "string":
            self._next()
            return ast.Literal(line=token.line, value=token.value)
        if token.kind == "keyword":
            if token.value == "true":
                self._next()
                return ast.Literal(line=token.line, value=True)
            if token.value == "false":
                self._next()
                return ast.Literal(line=token.line, value=False)
            if token.value == "null":
                self._next()
                return ast.Literal(line=token.line, value=None)
            if token.value == "undefined":
                self._next()
                from repro.minijs.objects import UNDEFINED

                return ast.Literal(line=token.line, value=UNDEFINED)
            if token.value == "this":
                self._next()
                return ast.ThisExpr(line=token.line)
            if token.value == "function":
                return self._function_expression()
            if token.value == "new":
                return self._new_expression()
        if token.kind == "ident":
            self._next()
            return ast.Identifier(line=token.line, name=token.value)
        if token.kind == "punct":
            if token.value == "(":
                self._next()
                expr = self._expression()
                self._expect(")")
                return expr
            if token.value == "[":
                return self._array_literal()
            if token.value == "{":
                return self._object_literal()
        raise JSParseError(
            "unexpected token %r" % (token.value or "<eof>"), token.line
        )

    def _function_expression(self) -> ast.FunctionExpr:
        start = self._expect("function")
        name: Optional[str] = None
        if self._peek().kind == "ident":
            name = self._next().value
        params = self._param_list()
        body = self._block().body
        return ast.FunctionExpr(
            line=start.line, name=name, params=params, body=body
        )

    def _array_literal(self) -> ast.ArrayLiteral:
        start = self._expect("[")
        elements: List[ast.Expression] = []
        if self._accept("]"):
            return ast.ArrayLiteral(line=start.line, elements=elements)
        while True:
            elements.append(self._assignment())
            if self._accept("]"):
                return ast.ArrayLiteral(line=start.line, elements=elements)
            self._expect(",")

    def _object_literal(self) -> ast.ObjectLiteral:
        start = self._expect("{")
        entries: List[Tuple[str, ast.Expression]] = []
        if self._accept("}"):
            return ast.ObjectLiteral(line=start.line, entries=entries)
        while True:
            token = self._peek()
            if token.kind in ("ident", "string", "keyword"):
                key = token.value
                self._next()
            elif token.kind == "number":
                key = token.value
                self._next()
            else:
                raise JSParseError(
                    "expected property key, found %r"
                    % (token.value or "<eof>"),
                    token.line,
                )
            self._expect(":")
            entries.append((key, self._assignment()))
            if self._accept("}"):
                return ast.ObjectLiteral(line=start.line, entries=entries)
            self._expect(",")
