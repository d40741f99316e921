"""Lexical JavaScript scanning: top-level declarations and identifier use.

This is deliberately not a real parser. It blanks string literals and
comments, tracks brace depth, and matches declarations by name. That misses
aliasing and dynamic dispatch, which is acceptable for the callers: the
dead-code transform only ever under-deletes, and the similarity scorer only
needs to know whether a handler name still has a plain definition.

Every scan of a script body goes through one ScriptIndex: its top-level
function spans, its top-level defined names and a count of its ``[\\w$]+``
tokens. index() builds it from two views of the text, both made by one pass
of the literal pattern: the blanked code, in which every string literal and
comment becomes spaces of the same length (newlines kept), so offsets and
brace depth read as in the text; and a compact copy in which each literal's
blank is cut to two characters, on which the assignment pattern runs. Tokens
of ASCII text are counted by mapping every other ASCII character to a space
and splitting; other text is matched with the token pattern.

Two callers ask: js-dce, for spans and tokens, and
pagemodel.ResourceGraph.defined_names, for the names each script of a
variant defines. Most solutions leave most script bodies unchanged, so the
same texts are asked about again and again. index() therefore caches every
index by text, one cache per worker process, and every caller that walks a
corpus empties it before each page (experiment._evaluate_page and
cli.cmd_transform), so it holds one page's texts at a time: each distinct
text of a page, however many scripts the page has, is scanned once across
its solutions. Other long-lived callers empty it the same way, with
index.cache_clear().
"""

from __future__ import annotations

import functools
import re
import string
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

# "\bfunction", spelled as a look-behind after the literal so that the search
# can jump from one "function" to the next.
_FUNC_DECL = re.compile(r"function(?<!\wfunction)\s+([A-Za-z_$][\w$]*)\s*\(")
_TOP_ASSIGN = re.compile(r"(?:^|[;{}\s])(?:var\s+|let\s+|const\s+)?([A-Za-z_$][\w$]*)\s*=[^=]")
_TOKEN = re.compile(r"[\w$]+")
# Every ASCII character outside [A-Za-z0-9_$] to a space: on ASCII text,
# str.split() then yields exactly the _TOKEN runs.
_ASCII_NON_TOKEN = str.maketrans(
    {chr(i): " " for i in range(128) if chr(i) not in string.ascii_letters + string.digits + "_$"}
)
_LITERAL = re.compile(
    r"//[^\n]*"
    r"|/\*.*?\*/"
    r"|'(?:\\.|[^'\\\n])*'"
    r'|"(?:\\.|[^"\\\n])*"'
    r"|`(?:\\.|[^`\\])*`",
    re.S,
)


def _blanked_views(text: str) -> tuple[str, str]:
    """strip_literals(text), and the same with every literal's blank cut to
    two characters, a newline and a space when the literal held a newline.
    A literal is at least two characters long, so no blank grows."""
    code, compact = [], []
    pos = 0
    for match in _LITERAL.finditer(text):
        source, literal = text[pos:match.start()], match.group()
        if "\n" in literal:
            code += (source, "\n".join(" " * len(line) for line in literal.split("\n")))
            compact += (source, "\n ")
        else:
            code += (source, " " * len(literal))
            compact += (source, "  ")
        pos = match.end()
    code.append(text[pos:])
    compact.append(text[pos:])
    return "".join(code), "".join(compact)


def strip_literals(text: str) -> str:
    """Replace string literals and comments with spaces, preserving length
    so that offsets into the result index the original text."""
    return _blanked_views(text)[0]


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
    if text.isascii():
        return Counter(text.translate(_ASCII_NON_TOKEN).split())
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


@functools.cache  # per worker, emptied before each page by experiment._evaluate_page
def index(text: str) -> ScriptIndex:
    """The ScriptIndex of a script text, blanking it once."""
    code, compact = _blanked_views(text)
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
    # every run of two or more characters matches alike. A blank joins a run
    # of at least two whatever its length, so the compact copy finds the same
    # names as the code, without stepping through every blanked character.
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
