"""The MiniJS front end against its verbatim predecessor.

``repro.minijs.lexer`` is one master regex and ``repro.minijs.parser``
climbs one operator table; ``tests/minijs_reference`` holds the
``str.startswith`` lexer and the one-method-per-level parser they
replaced.  For every input the two must return equal tokens and ASTs,
or raise the same exception class with the same message and line.
Both engines execute the same ASTs, so the engine differential suite
cannot see a front-end change; this suite and perfbench's stored
digests can.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.blocking.extension import BrowsingCondition
from repro.core.survey import SurveyConfig, run_survey
from repro.minijs.compile import shared_cache
from repro.minijs.errors import JSLexError, MiniJSError
from repro.minijs.lexer import tokenize
from repro.minijs.parser import parse
from repro.webgen.hostile import hostile_web
from repro.webgen.sitegen import build_web
from tests import minijs_reference
from tests.minijs_reference.lexer import KEYWORDS, _PUNCTUATION


def lexed(lexer, source):
    try:
        return [(t.kind, t.value, t.line) for t in lexer(source)]
    except MiniJSError as error:
        return type(error), str(error), error.line


def parsed(parser, source):
    try:
        return parser(source)
    except MiniJSError as error:
        return type(error), str(error), error.line


def assert_same_front_end(source):
    assert lexed(tokenize, source) == lexed(
        minijs_reference.tokenize, source
    )
    try:
        reference = parsed(minijs_reference.parse, source)
    except RecursionError:
        # The old parser spent one Python frame per precedence level,
        # so it ran out of stack at a third of today's nesting depth.
        assume(False)
    assert parsed(parse, source) == reference


@pytest.fixture(scope="module")
def crawled_bodies(registry):
    """Every body a 40-site web prewarms, plus every body a one-visit
    crawl of it compiles (per-page tags, inline scripts, handlers, the
    injected payload), for two web seeds; then the hostile web's."""
    bodies = set()
    cache = shared_cache()
    compile_through = cache.compile

    def recording(source):
        bodies.add(source)
        return compile_through(source)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache, "compile", recording)
        for seed in (3, 8):
            web = build_web(registry, 40, seed)
            bodies.update(web.script_bodies())
            run_survey(web, registry, SurveyConfig(
                conditions=(BrowsingCondition.DEFAULT,),
                visits_per_site=1,
                seed=seed,
            ))
    bodies.update(hostile_web(include_net=True).script_bodies())
    return sorted(bodies)


class TestCrawledBodies:
    def test_every_body_lexes_and_parses_the_same(self, crawled_bodies):
        assert len(crawled_bodies) > 200
        for source in crawled_bodies:
            assert_same_front_end(source)


#: whole tokens of the MiniJS alphabet, and fragments that are not
_SOUP = sorted(KEYWORDS) + _PUNCTUATION + [
    "a", "b", "x1", "$", "_k", "0", "7", "1.5", ".5", "1.", "0x1F",
    "0X", "'s'", '"t"', "'a\\nb'", "'\\'", "'", '"', "\\", "\n",
    "// note\n", "/* a\nb */", "/*", "\t", "\r", "@", "²", "٣",
]


class TestGenerated:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_arbitrary_text(self, source):
        assert_same_front_end(source)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(_SOUP), max_size=40),
        st.sampled_from(["", " ", "\n"]),
    )
    def test_token_soup(self, pieces, separator):
        assert_same_front_end(separator.join(pieces))


class TestNamedInputs:
    """Inputs where a regex and ``str.isdigit`` could disagree."""

    @pytest.mark.parametrize("source, message", [
        ("²", "malformed number"),
        (".²", "malformed number"),
        ("x = 1²", "malformed number"),
        ("\f", "unexpected character '\\x0c'"),
        ("\v", "unexpected character '\\x0b'"),
        ("\xa0", "unexpected character '\\xa0'"),
        ("é", "unexpected character 'é'"),
        ("π = 3", "unexpected character 'π'"),
        ("0x", "malformed hex literal"),
        ("0x;", "malformed hex literal"),
        ("0Xg", "malformed hex literal"),
        ("/* open", "unterminated block comment"),
        ("'open", "unterminated string literal"),
        ("'a\\", "dangling escape at end of input"),
    ])
    def test_lex_error(self, source, message):
        with pytest.raises(JSLexError) as caught:
            tokenize(source)
        assert str(caught.value) == "SyntaxError (line 1): %s" % message
        assert_same_front_end(source)

    def test_non_ascii_decimal_digits_are_a_number(self):
        (token,) = tokenize("٣٤")[:-1]
        assert (token.kind, token.value) == ("number", "٣٤")
        assert_same_front_end("x = ٣٤ + ٣.٤;")

    @pytest.mark.parametrize("source", [
        "", " \t\r", "a\r\nb", "1.5.5", "a.b.c", "x /= 2", "x //= 2",
        "1 /*/ 2 */ 3", "0x1F.a", "'a\\\nb'\nc", "/* \n\n */ d",
        "a ? b : c ? d : e",
        "a || b && c | d ^ e & f == g < h << i + j * k % l",
        "a - b - c", "a in b instanceof c", "for (k in o) {}",
        "new a.b[c](d)(e)", "x = y += 1", "!typeof -x++", "1 = 2",
        "a + ", "(a", "'+' + '+'",
    ])
    def test_same_front_end(self, source):
        assert_same_front_end(source)
