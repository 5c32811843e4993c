"""Tokenizer for the MiniJS language.

One compiled master regex finds each token; ``m.lastgroup`` names its
kind.  Spaces, tabs and carriage returns before a token ride along in
the same match, so only newlines (which advance the line counter) and
comments cost a loop turn of their own.  Strings without escapes take
the regex's fast path; any other quote goes through
:func:`_read_string`, which decodes escapes or raises.
"""

from __future__ import annotations

import re
from typing import List

from repro.minijs.errors import JSLexError

KEYWORDS = frozenset(
    [
        "var", "function", "return", "if", "else", "while", "for", "do",
        "break", "continue", "new", "delete", "typeof", "instanceof",
        "in", "this", "null", "undefined", "true", "false", "try",
        "catch", "finally", "throw",
    ]
)


class Token:
    """One token: ``kind`` is "ident", "keyword", "number", "string",
    "punct" or "eof"."""

    __slots__ = ("kind", "value", "line")

    def __init__(self, kind: str, value: str, line: int) -> None:
        self.kind = kind
        self.value = value
        self.line = line

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return (self.kind, self.value, self.line) == (
            other.kind, other.value, other.line
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.value, self.line))

    def __repr__(self) -> str:
        return "Token(kind=%r, value=%r, line=%r)" % (
            self.kind, self.value, self.line
        )


# Alternatives are tried in order, so each multi-character punctuator
# precedes its prefixes (longest match first).  A number is a decimal
# digit run (``\d`` is any Unicode decimal digit) or a dot and digits.
# ``0x`` without a hex digit, an unterminated ``/*`` and any character
# no other group takes are errors; a digit that is not decimal ("²")
# is a malformed number, also right after a dot.
_TOKEN_RE = re.compile(
    r"""[ \t\r]*(?:
      (?P<punct>===|!==|>>>|&&|\|\||==|!=|<=|>=|\+\+|--|\+=|-=|\*=|/=|%=
        |<<|>>|[(){}\[\];,<>+\-*%=!?:&|^~]|/(?![/*])|\.(?!\d))
    | (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<newline>\n)
    | (?P<hex>0[xX][0-9a-fA-F]+)
    | (?P<badhex>0[xX])
    | (?P<number>\d+\.\d+|\.\d+|\d+)
    | (?P<string>"[^"\\\n]*"|'[^'\\\n]*')
    | (?P<quote>["'])
    | (?P<comment>//[^\n]*|/\*[\s\S]*?\*/)
    | (?P<open_comment>/\*)
    | (?P<bad>[^ \t\r])
    )""",
    re.VERBOSE,
)


def tokenize(source: str) -> List[Token]:
    """Turn MiniJS source into tokens; raises JSLexError on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    keywords = KEYWORDS
    line = 1
    pos = 0
    while True:
        m = match(source, pos)
        if m is None:  # only spaces, tabs or carriage returns remain
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "punct":
            append(Token("punct", m["punct"], line))
        elif kind == "word":
            word = m["word"]
            append(Token(
                "keyword" if word in keywords else "ident", word, line
            ))
        elif kind == "newline":
            line += 1
        elif kind == "number" or kind == "hex":
            append(Token("number", m[kind], line))
        elif kind == "string":
            append(Token("string", m["string"][1:-1], line))
        elif kind == "quote":
            value, pos = _read_string(source, m.start("quote"), line)
            append(Token("string", value, line))
        elif kind == "comment":
            line += m["comment"].count("\n")
        elif kind == "badhex":
            raise JSLexError("malformed hex literal", line)
        elif kind == "open_comment":
            raise JSLexError("unterminated block comment", line)
        else:
            ch = m["bad"]
            if ch.isdigit():
                raise JSLexError("malformed number", line)
            raise JSLexError("unexpected character %r" % ch, line)
    tokens.append(Token("eof", "", line))
    return tokens


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'",
    '"': '"', "0": "\0", "b": "\b", "f": "\f", "v": "\v",
}


def _read_string(source: str, pos: int, line: int) -> tuple:
    quote = source[pos]
    pos += 1
    parts: List[str] = []
    while pos < len(source):
        ch = source[pos]
        if ch == quote:
            return "".join(parts), pos + 1
        if ch == "\n":
            raise JSLexError("unterminated string literal", line)
        if ch == "\\":
            if pos + 1 >= len(source):
                raise JSLexError("dangling escape at end of input", line)
            escape = source[pos + 1]
            parts.append(_ESCAPES.get(escape, escape))
            pos += 2
            continue
        parts.append(ch)
        pos += 1
    raise JSLexError("unterminated string literal", line)
