"""Recursive-descent parser for MiniJS.

Grammar: the ES3-ish subset the synthetic web and the instrumentation
need — statements (var/function/if/while/do/for/for-in/try/throw/
break/continue/return/blocks), and expressions with the full operator
ladder (assignment, conditional, logical, equality, relational,
additive, multiplicative, unary, postfix, call/member/new).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.minijs import ast
from repro.minijs.errors import JSParseError
from tests.minijs_reference.lexer import Token, tokenize


def parse(source: str) -> ast.Program:
    """Parse MiniJS source text into a Program node."""
    return _Parser(tokenize(source)).parse_program()


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind != "eof":
            self._pos += 1
        return token

    def _at(self, value: str) -> bool:
        token = self._peek()
        return token.value == value and token.kind in ("punct", "keyword")

    def _accept(self, value: str) -> bool:
        if self._at(value):
            self._next()
            return True
        return False

    def _expect(self, value: str) -> Token:
        token = self._peek()
        if not self._at(value):
            raise JSParseError(
                "expected %r, found %r" % (value, token.value or "<eof>"),
                token.line,
            )
        return self._next()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind != "ident":
            raise JSParseError(
                "expected identifier, found %r" % (token.value or "<eof>"),
                token.line,
            )
        return self._next()

    # -- statements --------------------------------------------------------

    def parse_program(self) -> ast.Program:
        body: List[ast.Statement] = []
        start = self._peek().line
        while self._peek().kind != "eof":
            body.append(self._statement())
        return ast.Program(line=start, body=body)

    def _statement(self) -> ast.Statement:
        token = self._peek()
        if token.kind == "punct" and token.value == "{":
            return self._block()
        if token.kind == "punct" and token.value == ";":
            self._next()
            return ast.Empty(line=token.line)
        if token.kind == "keyword":
            handler = {
                "var": self._var_statement,
                "function": self._function_declaration,
                "return": self._return_statement,
                "if": self._if_statement,
                "while": self._while_statement,
                "do": self._do_while_statement,
                "for": self._for_statement,
                "break": self._break_statement,
                "continue": self._continue_statement,
                "throw": self._throw_statement,
                "try": self._try_statement,
            }.get(token.value)
            if handler is not None:
                return handler()
        expression = self._expression()
        self._accept(";")
        return ast.ExpressionStmt(line=token.line, expression=expression)

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

    # -- expressions (precedence climbing) ----------------------------------

    def _expression(self) -> ast.Expression:
        expr = self._assignment()
        while self._at(","):
            line = self._next().line
            right = self._assignment()
            expr = ast.Binary(line=line, op=",", left=expr, right=right)
        return expr

    _ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")

    def _assignment(self) -> ast.Expression:
        left = self._conditional()
        token = self._peek()
        if token.kind == "punct" and token.value in self._ASSIGN_OPS:
            if not isinstance(left, (ast.Identifier, ast.Member, ast.Index)):
                raise JSParseError("invalid assignment target", token.line)
            self._next()
            value = self._assignment()
            return ast.Assign(
                line=token.line, op=token.value, target=left, value=value
            )
        return left

    def _conditional(self) -> ast.Expression:
        test = self._logical_or()
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

    def _logical_or(self) -> ast.Expression:
        left = self._logical_and()
        while self._at("||"):
            line = self._next().line
            right = self._logical_and()
            left = ast.Logical(line=line, op="||", left=left, right=right)
        return left

    def _logical_and(self) -> ast.Expression:
        left = self._bitwise_or()
        while self._at("&&"):
            line = self._next().line
            right = self._bitwise_or()
            left = ast.Logical(line=line, op="&&", left=left, right=right)
        return left

    def _bitwise_or(self) -> ast.Expression:
        left = self._bitwise_xor()
        while self._at("|"):
            line = self._next().line
            right = self._bitwise_xor()
            left = ast.Binary(line=line, op="|", left=left, right=right)
        return left

    def _bitwise_xor(self) -> ast.Expression:
        left = self._bitwise_and()
        while self._at("^"):
            line = self._next().line
            right = self._bitwise_and()
            left = ast.Binary(line=line, op="^", left=left, right=right)
        return left

    def _bitwise_and(self) -> ast.Expression:
        left = self._equality()
        while self._at("&"):
            line = self._next().line
            right = self._equality()
            left = ast.Binary(line=line, op="&", left=left, right=right)
        return left

    def _equality(self) -> ast.Expression:
        left = self._relational()
        while True:
            token = self._peek()
            if token.kind == "punct" and token.value in (
                "==", "!=", "===", "!==",
            ):
                self._next()
                right = self._relational()
                left = ast.Binary(
                    line=token.line, op=token.value, left=left, right=right
                )
            else:
                return left

    def _relational(self) -> ast.Expression:
        left = self._shift()
        while True:
            token = self._peek()
            is_rel_punct = token.kind == "punct" and token.value in (
                "<", ">", "<=", ">=",
            )
            is_rel_kw = token.kind == "keyword" and token.value in (
                "instanceof", "in",
            )
            if is_rel_punct or is_rel_kw:
                self._next()
                right = self._shift()
                left = ast.Binary(
                    line=token.line, op=token.value, left=left, right=right
                )
            else:
                return left

    def _shift(self) -> ast.Expression:
        left = self._additive()
        while True:
            token = self._peek()
            if token.kind == "punct" and token.value in ("<<", ">>", ">>>"):
                self._next()
                right = self._additive()
                left = ast.Binary(
                    line=token.line, op=token.value, left=left, right=right
                )
            else:
                return left

    def _additive(self) -> ast.Expression:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.kind == "punct" and token.value in ("+", "-"):
                self._next()
                right = self._multiplicative()
                left = ast.Binary(
                    line=token.line, op=token.value, left=left, right=right
                )
            else:
                return left

    def _multiplicative(self) -> ast.Expression:
        left = self._unary()
        while True:
            token = self._peek()
            if token.kind == "punct" and token.value in ("*", "/", "%"):
                self._next()
                right = self._unary()
                left = ast.Binary(
                    line=token.line, op=token.value, left=left, right=right
                )
            else:
                return left

    def _unary(self) -> ast.Expression:
        token = self._peek()
        if token.kind == "punct" and token.value in ("!", "-", "+", "~"):
            self._next()
            operand = self._unary()
            return ast.Unary(line=token.line, op=token.value, operand=operand)
        if token.kind == "punct" and token.value in ("++", "--"):
            self._next()
            operand = self._unary()
            if not isinstance(
                operand, (ast.Identifier, ast.Member, ast.Index)
            ):
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
        if token.kind == "keyword" and token.value in (
            "typeof", "delete", "new",
        ):
            if token.value == "new":
                return self._new_expression()
            self._next()
            operand = self._unary()
            return ast.Unary(line=token.line, op=token.value, operand=operand)
        return self._postfix()

    def _new_expression(self) -> ast.Expression:
        token = self._expect("new")
        callee = self._member_only(self._primary())
        args: List[ast.Expression] = []
        if self._at("("):
            args = self._call_args()
        expr: ast.Expression = ast.New(
            line=token.line, callee=callee, args=args
        )
        return self._call_tail(expr)

    def _member_only(self, expr: ast.Expression) -> ast.Expression:
        """Member/index accesses only (no calls) — for `new` callees."""
        while True:
            if self._at("."):
                line = self._next().line
                name = self._member_name()
                expr = ast.Member(line=line, obj=expr, name=name)
            elif self._at("["):
                line = self._next().line
                index = self._expression()
                self._expect("]")
                expr = ast.Index(line=line, obj=expr, index=index)
            else:
                return expr

    def _member_name(self) -> str:
        token = self._peek()
        if token.kind in ("ident", "keyword"):
            self._next()
            return token.value
        raise JSParseError(
            "expected property name, found %r" % (token.value or "<eof>"),
            token.line,
        )

    def _postfix(self) -> ast.Expression:
        expr = self._call_tail(self._primary())
        token = self._peek()
        if token.kind == "punct" and token.value in ("++", "--"):
            if not isinstance(expr, (ast.Identifier, ast.Member, ast.Index)):
                raise JSParseError(
                    "invalid increment/decrement target", token.line
                )
            self._next()
            return ast.Postfix(line=token.line, op=token.value, target=expr)
        return expr

    def _call_tail(self, expr: ast.Expression) -> ast.Expression:
        while True:
            if self._at("."):
                line = self._next().line
                name = self._member_name()
                expr = ast.Member(line=line, obj=expr, name=name)
            elif self._at("["):
                line = self._next().line
                index = self._expression()
                self._expect("]")
                expr = ast.Index(line=line, obj=expr, index=index)
            elif self._at("("):
                line = self._peek().line
                args = self._call_args()
                expr = ast.Call(line=line, callee=expr, args=args)
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
