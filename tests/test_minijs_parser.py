"""Tests for the MiniJS parser."""

import inspect
import sys

import pytest

from repro.minijs import ast
from repro.minijs.errors import JSParseError
from repro.minijs.parser import MAX_NESTING_DEPTH, parse


def stmt(source):
    program = parse(source)
    assert len(program.body) == 1
    return program.body[0]


def expr(source):
    statement = stmt(source)
    assert isinstance(statement, ast.ExpressionStmt)
    return statement.expression


class TestStatements:
    def test_var_single(self):
        node = stmt("var x = 1;")
        assert isinstance(node, ast.VarDecl)
        assert node.declarations[0][0] == "x"

    def test_var_multiple(self):
        node = stmt("var a = 1, b, c = 3;")
        assert [d[0] for d in node.declarations] == ["a", "b", "c"]
        assert node.declarations[1][1] is None

    def test_function_declaration(self):
        node = stmt("function f(a, b) { return a; }")
        assert isinstance(node, ast.FunctionDecl)
        assert node.name == "f"
        assert node.params == ["a", "b"]

    def test_if_else(self):
        node = stmt("if (x) { a(); } else b();")
        assert isinstance(node, ast.If)
        assert isinstance(node.consequent, ast.Block)
        assert node.alternate is not None

    def test_dangling_else_binds_inner(self):
        node = stmt("if (a) if (b) c(); else d();")
        assert node.alternate is None
        assert node.consequent.alternate is not None

    def test_while(self):
        node = stmt("while (x) y();")
        assert isinstance(node, ast.While)

    def test_do_while(self):
        node = stmt("do { x(); } while (y);")
        assert isinstance(node, ast.DoWhile)

    def test_classic_for(self):
        node = stmt("for (var i = 0; i < 10; i++) body();")
        assert isinstance(node, ast.For)
        assert isinstance(node.init, ast.VarDecl)
        assert node.test is not None
        assert node.update is not None

    def test_for_empty_clauses(self):
        node = stmt("for (;;) body();")
        assert node.init is None and node.test is None and node.update is None

    def test_for_in_with_var(self):
        node = stmt("for (var k in obj) use(k);")
        assert isinstance(node, ast.ForIn)
        assert node.var_name == "k"
        assert node.declares

    def test_for_in_without_var(self):
        node = stmt("for (k in obj) use(k);")
        assert isinstance(node, ast.ForIn)
        assert not node.declares

    def test_return_value_and_bare(self):
        assert stmt("function f(){ return 1; }").body[0].value is not None
        assert stmt("function f(){ return; }").body[0].value is None

    def test_break_continue(self):
        program = parse("while (x) { break; continue; }")
        body = program.body[0].body.body
        assert isinstance(body[0], ast.Break)
        assert isinstance(body[1], ast.Continue)

    def test_throw(self):
        assert isinstance(stmt("throw 'x';"), ast.Throw)

    def test_try_catch(self):
        node = stmt("try { a(); } catch (e) { b(); }")
        assert isinstance(node, ast.Try)
        assert node.catch_name == "e"
        assert node.finally_block is None

    def test_try_finally(self):
        node = stmt("try { a(); } finally { c(); }")
        assert node.catch_block is None
        assert node.finally_block is not None

    def test_try_catch_finally(self):
        node = stmt("try { a(); } catch (e) {} finally {}")
        assert node.catch_block is not None
        assert node.finally_block is not None

    def test_bare_try_rejected(self):
        with pytest.raises(JSParseError):
            parse("try { a(); }")

    def test_empty_statement(self):
        assert isinstance(stmt(";"), ast.Empty)

    def test_block_statement(self):
        node = stmt("{ a(); b(); }")
        assert isinstance(node, ast.Block)
        assert len(node.body) == 2


class TestExpressions:
    def test_literals(self):
        assert expr("42;").value == 42.0
        assert expr("'s';").value == "s"
        assert expr("true;").value is True
        assert expr("false;").value is False
        assert expr("null;").value is None

    def test_hex_literal(self):
        assert expr("0xFF;").value == 255.0

    def test_precedence_mul_over_add(self):
        node = expr("1 + 2 * 3;")
        assert node.op == "+"
        assert node.right.op == "*"

    def test_parentheses_override(self):
        node = expr("(1 + 2) * 3;")
        assert node.op == "*"
        assert node.left.op == "+"

    def test_comparison_chain(self):
        node = expr("a < b == c;")
        assert node.op == "=="
        assert node.left.op == "<"

    def test_logical_precedence(self):
        node = expr("a || b && c;")
        assert node.op == "||"
        assert node.right.op == "&&"

    def test_conditional(self):
        node = expr("a ? b : c;")
        assert isinstance(node, ast.Conditional)

    def test_assignment_right_associative(self):
        node = expr("a = b = 1;")
        assert isinstance(node, ast.Assign)
        assert isinstance(node.value, ast.Assign)

    def test_compound_assignment(self):
        assert expr("a += 1;").op == "+="

    def test_invalid_assignment_target(self):
        with pytest.raises(JSParseError):
            parse("1 = 2;")

    def test_member_chain(self):
        node = expr("a.b.c;")
        assert isinstance(node, ast.Member)
        assert node.name == "c"
        assert node.obj.name == "b"

    def test_keyword_member_names_allowed(self):
        node = expr("a.delete;")
        assert node.name == "delete"

    def test_index(self):
        node = expr("a[0];")
        assert isinstance(node, ast.Index)

    def test_call_with_args(self):
        node = expr("f(1, 'x', g());")
        assert isinstance(node, ast.Call)
        assert len(node.args) == 3

    def test_method_call(self):
        node = expr("obj.m(1);")
        assert isinstance(node.callee, ast.Member)

    def test_new_with_args(self):
        node = expr("new Foo(1, 2);")
        assert isinstance(node, ast.New)
        assert len(node.args) == 2

    def test_new_without_args(self):
        assert isinstance(expr("new Foo;"), ast.New)

    def test_new_then_method_call(self):
        node = expr("new Foo().bar();")
        assert isinstance(node, ast.Call)
        assert isinstance(node.callee.obj, ast.New)

    def test_unary_operators(self):
        assert expr("!x;").op == "!"
        assert expr("-x;").op == "-"
        assert expr("typeof x;").op == "typeof"
        assert expr("delete a.b;").op == "delete"

    def test_prefix_increment_desugars(self):
        node = expr("++x;")
        assert isinstance(node, ast.Assign)
        assert node.op == "+="

    def test_postfix_increment(self):
        node = expr("x++;")
        assert isinstance(node, ast.Postfix)

    def test_postfix_on_literal_rejected(self):
        with pytest.raises(JSParseError):
            parse("1++;")

    def test_function_expression(self):
        node = expr("(function (a) { return a; });")
        assert isinstance(node, ast.FunctionExpr)
        assert node.name is None

    def test_named_function_expression(self):
        node = expr("(function fact(n) { return n; });")
        assert node.name == "fact"

    def test_array_literal(self):
        node = expr("[1, 'a', []];")
        assert isinstance(node, ast.ArrayLiteral)
        assert len(node.elements) == 3

    def test_object_literal(self):
        node = expr("({ a: 1, 'b': 2, 3: 'x' });")
        assert isinstance(node, ast.ObjectLiteral)
        assert [k for k, _ in node.entries] == ["a", "b", "3"]

    def test_this(self):
        assert isinstance(expr("this;"), ast.ThisExpr)

    def test_instanceof_and_in(self):
        assert expr("a instanceof B;").op == "instanceof"
        assert expr("'k' in obj;").op == "in"

    def test_comma_operator(self):
        node = expr("(a, b);")
        assert node.op == ","

    def test_bitwise_and_shift(self):
        assert expr("a | b;").op == "|"
        assert expr("a ^ b;").op == "^"
        assert expr("a & b;").op == "&"
        assert expr("a << 2;").op == "<<"
        assert expr("a >>> 2;").op == ">>>"


class TestParseErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "var;",
            "function () {}",       # declarations need names
            "if (x;",
            "while () x;",
            "a.;",
            "f(1,;",
            "[1, 2",
            "{ a: }",
            "do x(); while",
        ],
    )
    def test_malformed(self, source):
        with pytest.raises(JSParseError):
            parse(source)

    def test_error_has_line(self):
        with pytest.raises(JSParseError) as exc:
            parse("ok();\nvar;")
        assert exc.value.line == 2


def _nested(depth):
    """One program per recursive construct, nested ``depth`` deep."""
    return {
        "parens": "x = " + "(" * depth + "1" + ")" * depth,
        "index": "a" + "[a" * depth + "]" * depth,
        "calls": "f(" * depth + ")" * depth,
        "array": "[" * depth + "]" * depth,
        "object": "x = " + "{a:" * depth + "1" + "}" * depth,
        "functions": "(function(){return " * depth + "1" + ";})" * depth,
        "operators": "x = " + "a||b&&c|d^e&f==g<h<<i+j*(" * depth
        + "1" + ")" * depth,
        "blocks": "{" * depth + "}" * depth,
        "try": "try {" * depth + "} finally {}" * depth,
        "prefix": "x = " + "!" * depth + "y",
        "assignments": "a = " * depth + "1",
        "conditionals": "a ? b : " * depth + "c",
        "new": "x = " + "new " * depth + "X" + "()" * depth,
    }


class TestNestingCap:
    """The parser counts its own nesting, so a deep program is a syntax
    error at a fixed depth instead of a RecursionError at whatever
    depth the caller's stack allows."""

    def test_sixty_six_parentheses_parse_and_sixty_seven_do_not(self):
        # The front end before the one-regex lexer ran out of stack at
        # about 65.
        assert parse("x = " + "(" * 66 + "1" + ")" * 66).body
        with pytest.raises(JSParseError, match="nesting deeper than"):
            parse("x = " + "(" * 67 + "1" + ")" * 67)

    @pytest.mark.parametrize("construct", sorted(_nested(1)))
    def test_every_construct_is_capped(self, construct):
        with pytest.raises(JSParseError, match="nesting deeper than"):
            parse(_nested(1000)[construct])

    @pytest.mark.parametrize("construct", sorted(_nested(1)))
    def test_half_the_stack_is_left_to_the_caller(self, construct):
        # Nested as deep as the cap allows, from a caller already half
        # the recursion limit deep: a syntax error or a program, never
        # a RecursionError.
        source = next(
            _nested(depth)[construct]
            for depth in range(MAX_NESTING_DEPTH, 0, -1)
            if _parses(_nested(depth)[construct])
        )

        def descend(frames):
            if frames > 0:
                return descend(frames - 1)
            return parse(source)

        here = len(inspect.stack(0))
        assert descend(sys.getrecursionlimit() // 2 - here).body


def _parses(source):
    try:
        parse(source)
    except JSParseError:
        return False
    return True
