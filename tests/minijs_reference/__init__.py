"""The MiniJS front end as it was before the single-pass rewrite.

``lexer.py`` and ``parser.py`` are verbatim copies of the old
``repro.minijs.lexer`` (a frozen-dataclass token per ``str.startswith``
scan over the punctuators) and ``repro.minijs.parser`` (one method per
precedence level), except that the parser imports this package's
lexer.  ``tests/test_minijs_frontend_equivalence.py`` holds the current
front end to them: equal tokens and ASTs, or the same exception class,
message and line.  Nothing under ``src/`` imports this package.
"""

from tests.minijs_reference.lexer import tokenize
from tests.minijs_reference.parser import parse

__all__ = ["parse", "tokenize"]
