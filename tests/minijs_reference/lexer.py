"""Tokenizer for the MiniJS language."""

from __future__ import annotations

import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "keyword" | "number" | "string" | "punct" | "eof"
    value: str
    line: int


# Longest-match-first punctuation table.
_PUNCTUATION = [
    "===", "!==", ">>>", "&&", "||", "==", "!=", "<=", ">=", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "<<", ">>", "(", ")", "{", "}", "[",
    "]", ";", ",", ".", "<", ">", "+", "-", "*", "/", "%", "=", "!",
    "?", ":", "&", "|", "^", "~",
]

_NUMBER_RE = re.compile(r"\d+\.\d+|\.\d+|\d+|0[xX][0-9a-fA-F]+")
_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_WS_RE = re.compile(r"[ \t\r]+")


def tokenize(source: str) -> List[Token]:
    """Turn MiniJS source into tokens; raises JSLexError on bad input."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    length = len(source)
    while pos < length:
        ch = source[pos]
        if ch == "\n":
            line += 1
            pos += 1
            continue
        ws = _WS_RE.match(source, pos)
        if ws:
            pos = ws.end()
            continue
        if source.startswith("//", pos):
            end = source.find("\n", pos)
            pos = length if end == -1 else end
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end == -1:
                raise JSLexError("unterminated block comment", line)
            line += source.count("\n", pos, end)
            pos = end + 2
            continue
        if ch in "\"'":
            value, pos = _read_string(source, pos, line)
            tokens.append(Token("string", value, line))
            continue
        if ch.isdigit() or (
            ch == "." and pos + 1 < length and source[pos + 1].isdigit()
        ):
            if source.startswith(("0x", "0X"), pos):
                match = re.compile(r"0[xX][0-9a-fA-F]+").match(source, pos)
                if match is None:
                    raise JSLexError("malformed hex literal", line)
                tokens.append(Token("number", match.group(), line))
                pos = match.end()
                continue
            match = _NUMBER_RE.match(source, pos)
            if match is None:
                raise JSLexError("malformed number", line)
            tokens.append(Token("number", match.group(), line))
            pos = match.end()
            continue
        ident = _IDENT_RE.match(source, pos)
        if ident:
            word = ident.group()
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line))
            pos = ident.end()
            continue
        for punct in _PUNCTUATION:
            if source.startswith(punct, pos):
                tokens.append(Token("punct", punct, line))
                pos += len(punct)
                break
        else:
            raise JSLexError("unexpected character %r" % ch, line)
    tokens.append(Token("eof", "", line))
    return tokens


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
            mapping = {
                "n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'",
                '"': '"', "0": "\0", "b": "\b", "f": "\f", "v": "\v",
            }
            parts.append(mapping.get(escape, escape))
            pos += 2
            continue
        parts.append(ch)
        pos += 1
    raise JSLexError("unterminated string literal", line)
