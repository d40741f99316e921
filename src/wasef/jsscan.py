"""Lexical JavaScript scanning: top-level declarations and identifier use.

This is deliberately not a real parser. It blanks string literals and
comments, tracks brace depth, and matches declarations by name. That misses
aliasing and dynamic dispatch, which is acceptable for the callers: the
dead-code transform only ever under-deletes, and the similarity scorer only
needs to know whether a handler name still has a plain definition.

Every scan of a script body goes through one ScriptIndex: its top-level
function spans, its top-level defined names and a count of its ``[\\w$]+``
tokens, built in a single pass over the text. The pipeline evaluates a page
under every solution in turn, and most solutions leave most script bodies
unchanged, so the same texts are asked about again and again (by js-dce,
by functional similarity, for every solution). index() therefore caches the
last few indexes by text. The cache is kept small on purpose: each entry
pins its text, and pages are evaluated one after another, so a page's bodies
only need to stay cached while that page is being evaluated.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

# "\bfunction", spelled as a look-behind after the literal so that the search
# can jump from one "function" to the next.
_FUNC_DECL = re.compile(r"function(?<!\wfunction)\s+([A-Za-z_$][\w$]*)\s*\(")
_TOP_ASSIGN = re.compile(r"(?:^|[;{}\s])(?:var\s+|let\s+|const\s+)?([A-Za-z_$][\w$]*)\s*=[^=]")
_TOKEN = re.compile(r"[\w$]+")
_WHITESPACE_RUN = re.compile(r"\s{3,}")
_LITERAL = re.compile(
    r"//[^\n]*"
    r"|/\*.*?\*/"
    r"|'(?:\\.|[^'\\\n])*'"
    r'|"(?:\\.|[^"\\\n])*"'
    r"|`(?:\\.|[^`\\])*`",
    re.S,
)


def _blank(match: re.Match) -> str:
    return "\n".join(" " * len(line) for line in match.group(0).split("\n"))


def strip_literals(text: str) -> str:
    """Replace string literals and comments with spaces, preserving length
    so that offsets into the result index the original text."""
    return _LITERAL.sub(_blank, text)


def _match_brace(code: str, open_index: int) -> int:
    """Index of the brace closing code[open_index]; end of text if unbalanced."""
    depth = 0
    for i in range(open_index, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


class _DepthCursor:
    """Brace depth at monotonically increasing positions of blanked code."""

    def __init__(self, code: str):
        self.code = code
        self.pos = 0
        self.depth = 0

    def at(self, index: int) -> int:
        if index > self.pos:
            self.depth += self.code.count("{", self.pos, index) - self.code.count(
                "}", self.pos, index
            )
            self.pos = index
        return self.depth


def token_counts(text: str) -> Counter:
    """Occurrences of each maximal ``[\\w$]+`` run in raw text.

    For an identifier ``name``, ``token_counts(text)[name]`` equals
    ``count_references(name, text)``.
    """
    return Counter(_TOKEN.findall(text))


@dataclass(frozen=True)
class ScriptIndex:
    """Everything the callers ask of one script text.

    function_spans: (name, start, end) for each depth-0 ``function name(...)
    {...}``; offsets index the original text and end is one past the
    closing brace. defined_names: names defined at depth 0 by a function
    declaration or an assignment. tokens: token_counts() of the raw text,
    read-only because the index is shared.
    """

    function_spans: tuple[tuple[str, int, int], ...]
    defined_names: frozenset[str]
    tokens: Mapping[str, int]


@functools.lru_cache(maxsize=16)  # every body of a page, across its solutions
def index(text: str) -> ScriptIndex:
    """The ScriptIndex of a script text, blanking it once."""
    code = strip_literals(text)
    cursor = _DepthCursor(code)
    spans = []
    for match in _FUNC_DECL.finditer(code):
        if cursor.at(match.start()) != 0:
            continue
        open_brace = code.find("{", match.end() - 1)
        if open_brace == -1:
            continue
        end = _match_brace(code, open_brace)
        spans.append((match.group(1), match.start(), end + 1))
    names = {name for name, _, _ in spans}
    # A _TOP_ASSIGN match either spans a whitespace run whole or uses only its
    # first character (as its final [^=]) or its last (as its delimiter), so
    # cutting runs to two characters finds the same names, without stepping
    # through every character of the blanked comments.
    compact = _WHITESPACE_RUN.sub("  ", code)
    cursor = _DepthCursor(compact)
    for match in _TOP_ASSIGN.finditer(compact):
        if cursor.at(match.start(1)) == 0:
            names.add(match.group(1))
    return ScriptIndex(tuple(spans), frozenset(names), MappingProxyType(token_counts(text)))


def top_level_function_spans(text: str) -> list[tuple[str, int, int]]:
    """(name, start, end) for each depth-0 ``function name(...) {...}``.

    Offsets index the original text; end is one past the closing brace.
    """
    return list(index(text).function_spans)


def top_level_defined_names(text: str) -> set[str]:
    """Names defined at depth 0 via function declarations or assignment."""
    return set(index(text).defined_names)


def count_references(name: str, text: str) -> int:
    """Word-boundary occurrences of a name in raw text (strings included,
    so a function named inside a string literal still counts as used)."""
    return len(re.findall(rf"(?<![\w$]){re.escape(name)}(?![\w$])", text))
