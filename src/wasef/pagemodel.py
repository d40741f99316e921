"""Parses an archived HTML document into the resource graph consumed by the
load simulator and the similarity scorer.

The parser is static and tolerant: it never executes scripts, never aborts on
unclosed tags, and sees exactly what is in the markup. Resources injected at
runtime by JavaScript are invisible; pages whose scripts contain the usual
injection idioms are flagged as potentially undercounted instead.

Parsing is split in two steps. html_index() tokenizes a root document once
into a frozen HtmlIndex: the referenced resources with their kind, resolved
URL and byte offset, the text blocks, the interactive elements, the tag
histogram, the script spans and handler-attribute edits that the
transforms rewrite, by character offset into the text, and the handler
values that js-dce counts as references. Which attributes are inline
handlers is decided once, per start tag, by one rule (a lowercased name
that starts with "on" and is longer than 2): the interactive elements,
js-strip's edits and js-dce's references all read that one record.

The index depends only on the root body's bytes and the root URL. A run
evaluates one page under every solution in turn, and most solutions leave
the root HTML unchanged, so the last few indexes are cached by (body, root
URL), one cache per worker process. A changed root is tokenized again, but
the URLs it shares with the page's root are resolved once per worker: every
raw URL is resolved against its base through one memo (_resolve_url). A
freshly forked worker starts with that memo empty, so resolving must be
cheap when cold too: archive.normalize_url answers a canonical URL, or a
root-relative reference against a canonical root, without urllib, and those
two shapes are every reference of the fixture and benchmark pages.

Two tokenizers feed the one index builder (_IndexBuilder), which takes
start tags, end tags and text with their character offsets. The strict
scanner (_scan) walks the text once with str.find and a few compiled
patterns. It accepts a document only if all of it lies in the subset of
HTML that every html.parser from Python 3.10 to 3.14 tokenizes alike, and
reports the tokens those would: start tags with ASCII names and ASCII
whitespace between attributes, each value quoted without "<" or ">" or bare;
end tags written "</name>"; "<!doctype ...>"; plain comments; script and
style content closed by the plain closing tag with no "<!--" inside; and
text, whose charrefs html.unescape replaces as html.parser does. Newer
html.parser releases follow the HTML5 tokenizer more closely (comment and
script-data states, raw text in title, textarea, iframe and the like, and
only ASCII whitespace between attributes), so anything outside the subset
may tokenize differently by version. The scanner rejects such a document as a
whole, and html.parser (_ParserDriver) tokenizes it instead. So on every
input the index is the one html.parser's tokens build. Every root and
variant root of the fixtures and of the benchmark's wide pages takes the
scanner.

parse_page() then binds an index to one page: it builds a fresh Resource
per referenced resource, taking only its size and missing flag from that
page's own exchanges, and shares the index's immutable text blocks and
interactive elements. Paint weights and render-blocking are derived from
kind, size and character count, never stored. Whatever is read from
script text is derived by the graph on first use, from the page's archived
JS bodies (kept undecoded) and its inline scripts, never by parse_page.
"""

from __future__ import annotations

import functools
import hashlib
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser, attrfind_tolerant, tagfind_tolerant
from types import MappingProxyType
from typing import NamedTuple

from . import jsscan
from .archive import ArchivedPage, is_js_content_type, normalize_url
from .errors import EmptyDocument, MalformedUrl

KIND_HTML = "html"
KIND_SCRIPT_SYNC = "script_sync"
KIND_SCRIPT_ASYNC = "script_async"
KIND_SCRIPT_DEFER = "script_defer"
KIND_SCRIPT_INLINE = "script_inline"
KIND_STYLESHEET = "stylesheet"
KIND_IMAGE = "image"
KIND_IFRAME = "iframe"

RENDER_BLOCKING_KINDS = {KIND_STYLESHEET, KIND_SCRIPT_SYNC}

# Weight of one collapsed text character relative to one image byte; chosen so
# a 2000-character article weighs like a 100 KB image.
TEXT_WEIGHT_PER_CHAR = 50.0

_INTERACTIVE_TAGS = {"a": "link", "button": "button", "input": "input", "form": "form"}
_JS_KEYWORDS = {
    "if", "else", "for", "while", "switch", "catch", "function", "return",
    "new", "typeof", "this", "true", "false", "null", "undefined", "var",
    "let", "const", "do", "in", "of", "try",
}
_INJECTION_MARKERS = ("document.createElement('script'", 'document.createElement("script"', "new Image(")


@dataclass
class Resource:
    """One referenced resource in document order."""

    url: str
    kind: str
    bytes: int
    discovery_index: int
    doc_offset: float = 0.0  # byte offset of the tag within the root document
    missing: bool = False  # referenced but absent from the archive
    inline_text: str = ""  # script_inline only

    @property
    def visual_weight(self) -> float:
        """Paint weight: an image's byte size, 0.0 for every other kind."""
        return float(self.bytes) if self.kind == KIND_IMAGE else 0.0

    @property
    def render_blocking(self) -> bool:
        return self.kind in RENDER_BLOCKING_KINDS


class TextBlock(NamedTuple):
    """A maximal run of visible text, whitespace-collapsed."""

    char_count: int
    discovery_index: int
    doc_offset: float = 0.0  # byte offset within the root document
    text: str = ""

    @property
    def weight(self) -> float:
        """Paint weight: char_count * TEXT_WEIGHT_PER_CHAR."""
        return self.char_count * TEXT_WEIGHT_PER_CHAR


@dataclass(frozen=True)
class InteractiveElement:
    """An element a user can act on; identity is stable for equal markup."""

    kind: str  # link, button, input, form, handler_element
    identity_key: str
    handler_fn_names: frozenset[str] = frozenset()


@dataclass
class ResourceGraph:
    """A page as parse_page binds it. The script-derived values are cached
    properties, so a graph that is only simulated decodes no script."""

    root: Resource
    resources: list[Resource]  # document order; resources[0] is the root
    text_blocks: list[TextBlock]
    interactive_elements: list[InteractiveElement]
    tag_histogram: dict[str, int] = field(default_factory=dict)
    # the page's own archived JS body objects, referenced or not, undecoded
    script_bodies: tuple[bytes, ...] = field(default=(), compare=False, repr=False)

    def sub_resources(self) -> list[Resource]:
        return self.resources[1:]

    @property
    def total_visual_weight(self) -> float:
        """Resource weights, then text-block weights, each in document
        order; that order fixes the float sum."""
        total = 0.0
        for res in self.resources:
            total += res.visual_weight
        for block in self.text_blocks:
            total += block.weight
        return total

    @property
    def zero_visual(self) -> bool:
        return self.total_visual_weight <= 0.0

    @functools.cached_property
    def script_texts(self) -> tuple[str, ...]:
        """Every archived JS body of the page, decoded as decode_body does."""
        return tuple(decode_body(body)[0] for body in self.script_bodies)

    @functools.cached_property
    def _script_sources(self) -> tuple[str, ...]:
        """script_texts, then the text of every non-empty inline script."""
        inline = (res.inline_text for res in self.resources if res.kind == KIND_SCRIPT_INLINE and res.inline_text)
        return (*self.script_texts, *inline)

    @functools.cached_property
    def defined_names(self) -> frozenset[str]:
        """Names defined at top level by the page's script sources. Scanned
        on first use: functional similarity asks only of a variant whose
        original has interactive elements."""
        return frozenset().union(*(jsscan.index(text).defined_names for text in self._script_sources))

    @functools.cached_property
    def maybe_undercounted(self) -> bool:
        """Whether a script source carries an injection idiom, so resources
        may be missing from the graph."""
        return any(marker in text for text in self._script_sources for marker in _INJECTION_MARKERS)

    @functools.cached_property
    def text_tokens(self) -> Counter:
        """Occurrences of each whitespace-separated word of the text blocks,
        which text similarity compares. Counted on first use, so a page's
        original is counted once for all its solutions."""
        tokens: Counter = Counter()
        for block in self.text_blocks:
            tokens.update(block.text.split())
        return tokens


def _collapse_ws(text: str) -> str:
    return " ".join(text.split())


def _without_handlers(raw: str, on_attrs: Mapping[str, str]) -> str:
    """A start tag's source text without the attributes named in
    ``on_attrs``, the tag's handlers, every occurrence of each.

    The tag is walked with html.parser's own patterns, so it splits as the
    running html.parser splits it: the name and the separator after it,
    then each attribute (name, optional value) and the separator after it.
    A run of handlers goes with the separators inside it, and with the one
    before it when ASCII whitespace or ">" follows it, whitespace that no
    version reads as part of a name or value; otherwise the separator
    before the run stays to keep what precedes it apart from what follows.
    Between an attribute without a value and a next name that starts with
    "=", which would become its value, a "/" is put."""
    name = tagfind_tolerant.match(raw, 1)
    parts, copied = [], 0
    kept_end, valueless, pos = name.end(1), False, name.end()  # the name or the last attribute kept
    run = None  # (start, end) of the handlers after it
    while True:
        match = attrfind_tolerant.match(raw, pos)
        if match is not None and match.group(1).lower() in on_attrs:
            run = (run[0] if run else match.start(), max(match.end(1), match.end(2)))
        else:
            if run is not None:
                start, end = run
                parts.append(raw[copied:kept_end if raw[end] in " \t\n\r\f>" else start])
                if valueless and match is not None and match.group(1).startswith("="):
                    parts.append("/")
                copied, run = end, None
            if match is None:
                break
            kept_end, valueless = max(match.end(1), match.end(2)), match.end(2) < 0
        pos = match.end()
    parts.append(raw[copied:])
    return "".join(parts)


def _handler_names(on_attrs: dict[str, str]) -> frozenset[str]:
    """Identifiers in call position inside inline handler attributes."""
    names = set()
    for value in on_attrs.values():
        for match in re.finditer(r"([A-Za-z_$][\w$]*)\s*\(", value):
            name = match.group(1)
            if name not in _JS_KEYWORDS:
                names.add(name)
    return frozenset(names)


@functools.lru_cache(maxsize=4096)
def _resolve_url(raw: str, base: str) -> str | None:
    """normalize_url(raw, base), or None when raw is malformed. Memoised per
    worker process: a page's variant roots resolve the same URLs as the
    page's root. The memo saves most on references that take urllib;
    canonical ones are a regular-expression match each even when it is
    cold (see normalize_url). The bound keeps a long run's distinct URLs
    from piling up; the function is pure, so the memo never needs
    emptying."""
    try:
        return normalize_url(raw, base=base)
    except MalformedUrl:
        return None


def _identity_key(kind: str, attrs: dict[str, str | None], on_attrs: dict[str, str], root_url: str) -> str:
    if kind == "link" and attrs.get("href"):
        href = attrs["href"]
        url = _resolve_url(href, root_url)
        return f"link:{href if url is None else url}"
    for attr in ("name", "id"):
        if attrs.get(attr):
            return f"{kind}:{attrs[attr]}"
    if on_attrs:
        blob = ";".join(f"{k}={v}" for k, v in sorted(on_attrs.items()))
        return f"{kind}:handler:{hashlib.sha256(blob.encode('utf-8')).hexdigest()[:12]}"
    blob = ";".join(f"{k}={v}" for k, v in sorted((k, v or "") for k, v in attrs.items()))
    return f"{kind}:attrs:{hashlib.sha256(blob.encode('utf-8')).hexdigest()[:12]}"


class IndexedResource(NamedTuple):
    """A referenced resource as the root document states it; its size and
    missing flag come from the page it is bound to."""

    url: str  # "" for inline scripts
    kind: str
    discovery_index: int
    doc_offset: float  # byte offset of the tag within the root document
    inline_text: str = ""  # script_inline only


class ScriptSpan(NamedTuple):
    """A script element as character offsets into the document text. ``src``
    is its first non-empty src attribute, ``url`` that resolved; both are
    None for an inline script, and ``url`` is None when src does not resolve."""

    start: int
    end: int
    src: str | None
    url: str | None


@dataclass(frozen=True)
class HtmlIndex:
    """Everything the pipeline reads from one root document's markup."""

    text: str  # the decoded root body
    codec: str  # "utf-8", or "latin-1" when the body is not valid UTF-8
    resources: tuple[IndexedResource, ...]  # document order, root excluded
    text_blocks: tuple[TextBlock, ...]
    interactive_elements: tuple[InteractiveElement, ...]
    tag_histogram: Mapping[str, int]
    script_spans: tuple[ScriptSpan, ...]
    # Inline handlers: attributes whose lowercased name starts with "on" and
    # is longer than 2, the one rule every reader of handlers follows.
    # (start, end, the tag without its handlers) for each non-script start
    # tag that has one, and each tag's handler values (the first of each
    # name, as in interactive_elements), both in document order.
    handler_edits: tuple[tuple[int, int, str], ...]
    handler_text: tuple[str, ...]


def decode_body(body: bytes) -> tuple[str, str]:
    """Text of a body and the codec that decoded it: UTF-8, or a Latin-1
    byte mapping when the body is not valid UTF-8."""
    try:
        return body.decode("utf-8"), "utf-8"
    except UnicodeDecodeError:
        return body.decode("latin-1"), "latin-1"


class _IndexBuilder:
    """Builds one root document's HtmlIndex from the tokens a driver reports:
    start tags, end tags and text, each with its character offset into the
    document text. Both drivers, _scan and _ParserDriver, call these three
    methods, so one piece of code builds every index. It collects resources,
    text runs, interactive elements, the body tag histogram, script element
    spans, and the inline handlers of every start tag: their values, and the
    edit that drops them from a non-script tag. Offsets of resources and
    text blocks are scaled to byte offsets as they are created."""

    def __init__(self, text: str, root_url: str, body_bytes: int):
        self._text = text
        self._root_url = root_url
        self._html_bytes = float(body_bytes)
        self._scale = body_bytes / max(len(text), 1)
        self.resources: list[IndexedResource] = []
        self.text_blocks: list[TextBlock] = []
        self.interactive: list[InteractiveElement] = []
        self.tag_histogram: Counter = Counter()
        self.script_spans: list[ScriptSpan] = []
        self.handler_edits: list[tuple[int, int, str]] = []
        self.handler_text: list[str] = []
        self._counter = 1  # 0 is reserved for the root resource
        self._in_head = False
        self._skip_text_depth = 0  # inside script/style
        self._inline_script: tuple[float, list[str]] | None = None
        self._open_script: tuple[int, str | None] | None = None  # (start, first non-empty src)

    def _byte_offset(self, offset: int) -> float:
        """A character offset scaled by len(body) / len(text), capped at len(body)."""
        return min(offset * self._scale, self._html_bytes)

    def _next_index(self) -> int:
        index = self._counter
        self._counter += 1
        return index

    def _add_resource(self, raw_url: str, kind: str, offset: int) -> None:
        url = _resolve_url(raw_url, self._root_url)
        if url is not None:
            self.resources.append(IndexedResource(url, kind, self._next_index(), self._byte_offset(offset)))

    def start(self, tag: str, attrs: list[tuple[str, str | None]], offset: int, raw: str, closed: bool) -> None:
        """A start tag at ``offset``: its lowercased name, its attributes in
        source order, its source text, and whether it ends in "/>"."""
        attr_map: dict[str, str | None] = {}
        for name, value in attrs:
            attr_map.setdefault(name.lower(), value)

        if not self._in_head and tag == "head":
            self._in_head = True
        if tag == "body":
            self._in_head = False
        if not self._in_head and tag not in ("html", "head", "body"):
            self.tag_histogram[tag] += 1

        if tag == "script":
            # The graph takes the first src attribute, even an empty one; the
            # transforms take the first non-empty one.
            src = attr_map.get("src")
            if src:
                if "async" in attr_map:
                    kind = KIND_SCRIPT_ASYNC
                elif "defer" in attr_map:
                    kind = KIND_SCRIPT_DEFER
                else:
                    kind = KIND_SCRIPT_SYNC
                self._add_resource(src, kind, offset)
            else:
                self._inline_script = (self._byte_offset(offset), [])
            self._skip_text_depth += 1
            self._open_script = (offset, next((v for n, v in attrs if n.lower() == "src" and v), None))
        elif tag == "style":
            self._skip_text_depth += 1
        elif tag == "link":
            rel = (attr_map.get("rel") or "").lower().split()
            href = attr_map.get("href")
            if "stylesheet" in rel and href:
                self._add_resource(href, KIND_STYLESHEET, offset)
        elif tag in ("img", "iframe"):
            src = attr_map.get("src")
            if src:
                self._add_resource(src, KIND_IMAGE if tag == "img" else KIND_IFRAME, offset)

        # The one rule for what an inline handler is.
        on_attrs = {
            name: value or ""
            for name, value in attr_map.items()
            if name.startswith("on") and len(name) > 2
        }
        if on_attrs:
            self.handler_text += on_attrs.values()
            if tag != "script":
                self.handler_edits.append((offset, offset + len(raw), _without_handlers(raw, on_attrs)))
        kind = _INTERACTIVE_TAGS.get(tag)
        if kind is None and on_attrs:
            kind = "handler_element"
        if kind is not None:
            self.interactive.append(
                InteractiveElement(
                    kind=kind,
                    identity_key=_identity_key(kind, attr_map, on_attrs, self._root_url),
                    handler_fn_names=_handler_names(on_attrs),
                )
            )

        if closed:
            if tag == "script":
                self._finish_script(offset + len(raw))
            if tag in ("script", "style"):
                self._end_raw_element(tag)

    def end(self, tag: str, offset: int) -> None:
        """An end tag, lowercased, whose "</" is at ``offset``."""
        if tag == "head":
            self._in_head = False
        if tag == "script" and self._open_script is not None:
            end = self._text.find(">", offset)
            self._finish_script(len(self._text) if end == -1 else end + 1)
        if tag in ("script", "style"):
            self._end_raw_element(tag)

    def data(self, data: str, offset: int) -> None:
        """Text starting at ``offset``: charrefs already replaced, except in
        script and style content, which is passed as written."""
        if self._inline_script is not None:
            self._inline_script[1].append(data)
            return
        if self._skip_text_depth > 0 or self._in_head:
            return
        collapsed = _collapse_ws(data)
        if collapsed:
            self.text_blocks.append(
                TextBlock(len(collapsed), self._next_index(), self._byte_offset(offset), collapsed)
            )

    def _finish_script(self, end: int):
        start, src = self._open_script
        url = None if src is None else _resolve_url(src, self._root_url)
        self.script_spans.append(ScriptSpan(start, end, src, url))
        self._open_script = None

    def _end_raw_element(self, tag):
        if tag == "script" and self._inline_script is not None:
            offset, pieces = self._inline_script
            text = "".join(pieces)
            self.resources.append(
                IndexedResource("", KIND_SCRIPT_INLINE, self._next_index(), offset, text)
            )
            self._inline_script = None
        if self._skip_text_depth > 0:
            self._skip_text_depth -= 1

    def index(self, codec: str) -> HtmlIndex:
        """The finished index. What the document leaves open is closed first:
        an unclosed script runs to EOF."""
        if self._inline_script is not None:
            self._end_raw_element("script")
        if self._open_script is not None:
            self._finish_script(len(self._text))
        return HtmlIndex(
            text=self._text,
            codec=codec,
            resources=tuple(self.resources),
            text_blocks=tuple(self.text_blocks),
            interactive_elements=tuple(self.interactive),
            tag_histogram=MappingProxyType(dict(self.tag_histogram)),
            script_spans=tuple(self.script_spans),
            handler_edits=tuple(self.handler_edits),
            handler_text=tuple(self.handler_text),
        )


class _ParserDriver(HTMLParser):
    """Feeds a builder from html.parser: the tokenizer for every document the
    strict scanner rejects. Its positions are (line, column) pairs, turned
    into character offsets through the document's line starts."""

    def __init__(self, builder: _IndexBuilder, text: str):
        super().__init__(convert_charrefs=True)
        self._builder = builder
        self._line_starts = [0]
        for line in text.split("\n")[:-1]:
            self._line_starts.append(self._line_starts[-1] + len(line) + 1)

    def _offset(self) -> int:
        line, col = self.getpos()
        return self._line_starts[line - 1] + col

    def handle_starttag(self, tag, attrs):
        self._builder.start(tag, attrs, self._offset(), self.get_starttag_text() or "", False)

    def handle_startendtag(self, tag, attrs):
        self._builder.start(tag, attrs, self._offset(), self.get_starttag_text() or "", True)

    def handle_endtag(self, tag):
        self._builder.end(tag, self._offset())

    def handle_data(self, data):
        self._builder.data(data, self._offset())


# --- the strict scanner -------------------------------------------------------
# Separators and names below are ASCII only. Older html.parser releases
# match them with \s, which also takes non-ASCII spaces such as U+00A0, and
# newer ones with ASCII whitespace. What these patterns do not accept, the
# scanner rejects.

_WS = r"[ \t\n\r\f]"
_ATTR_NAME = "[A-Za-z_:][-A-Za-z0-9_:.]*"
# A quoted value holds no "<" or ">". A bare value takes every character up
# to whitespace or ">", "/" included, as every version's tokenizer does, so a
# bare value is followed by whitespace or ">".
_ATTR_RE = re.compile(
    rf"{_WS}+({_ATTR_NAME})(?:{_WS}*(=){_WS}*(?:\"([^\"<>]*)\"|'([^'<>]*)'|([^\s\"'<>=`]+)))?"
)
# A whole start tag (name, attributes, and "/" when it closes with "/>"), or
# an end tag written "</name>".
_TAG_RE = re.compile(
    rf"<(?:([A-Za-z][A-Za-z0-9-]*)((?:{_WS}+{_ATTR_NAME}"
    rf"(?:{_WS}*={_WS}*(?:\"[^\"<>]*\"|'[^'<>]*'|[^\s\"'<>=`]+))?)*){_WS}*(/?)>"
    r"|/([A-Za-z][A-Za-z0-9-]*)>)"
)
# What may end script or style content: older html.parser releases end it
# at the first "</\s*script\s*>", newer ones at "</script" followed by
# whitespace, "/" or ">". The scanner accepts content only when the first
# match of these patterns is the plain closing tag.
_RAW_TEXT_END = {
    "script": re.compile(r"</\s*script", re.IGNORECASE),
    "style": re.compile(r"</\s*style", re.IGNORECASE),
}
# Elements whose content some versions tokenize as text and others as markup
# (escapable raw text, raw text), and "plaintext", which swallows the rest of
# the document in some versions. Their content must be text with no "<" or
# "&", closed by the plain end tag; "plaintext" is never accepted.
_TEXT_ONLY = frozenset(("title", "textarea", "xmp", "iframe", "noembed", "noframes", "noscript"))
_CONTENT_ELEMENTS = frozenset(("script", "style", "plaintext", *_TEXT_ONLY))


def _scan(text: str, builder: _IndexBuilder) -> bool:
    """Tokenize ``text`` into ``builder`` if the whole document is markup that
    every html.parser from Python 3.10 to 3.14 tokenizes alike, and report
    the same tokens those would; return False, with the builder partly fed,
    at the first construct outside that subset.

    Accepted: start tags with ASCII names and ASCII-whitespace-separated
    attributes, each value quoted with no "<" or ">" inside or bare; end
    tags written "</name>"; "<!doctype ...>"; comments whose body holds no
    "--", does not start with ">" or "->" and does not end with "-";
    script and style content holding no "<!--" whose first possible end is
    the plain closing tag; and text, with charrefs replaced through
    html.unescape. Rejected: "<?", "<![", any other "<!", a "<" that starts
    none of these, end tags with spaces or attributes, "/>" on an element
    with text-like content, "<" or "&" in the content of title, textarea,
    xmp, iframe, noembed, noframes or noscript, "<plaintext>", NUL, and any
    construct the document does not close."""
    if "\x00" in text:
        return False
    find = text.find
    match_tag = _TAG_RE.match
    attr_fields = _ATTR_RE.findall
    start, end, data = builder.start, builder.end, builder.data
    pos = 0
    while True:
        lt = find("<", pos)
        chunk = text[pos:] if lt < 0 else text[pos:lt]
        # Text that is only whitespace makes no text block; script content,
        # the one place it would count, is passed below as it is.
        if chunk and not chunk.isspace():
            data(unescape(chunk), pos)
        if lt < 0:
            return True
        tag_match = match_tag(text, lt)
        if tag_match is None:
            if text.startswith("<!--", lt):
                close = find("-->", lt + 4)
                if close < 0:
                    return False
                comment = text[lt + 4:close]
                if "--" in comment or comment.startswith((">", "->")) or comment.endswith("-"):
                    return False
                pos = close + 3
            elif text.startswith("<!", lt) and text[lt + 2:lt + 9].lower() == "doctype":
                close = find(">", lt + 9)
                if close < 0 or find("<", lt + 1, close) >= 0:
                    return False
                pos = close + 1
            else:
                return False
            continue
        name, attr_text, slash, end_name = tag_match.groups()
        pos = tag_match.end()
        if end_name is not None:
            end(end_name.lower(), lt)
            continue
        tag = name.lower()
        attrs = [
            (attr.lower(), unescape(double + single + bare) if equals else None)
            for attr, equals, double, single, bare in attr_fields(attr_text)
        ] if attr_text else []
        if tag not in _CONTENT_ELEMENTS:
            start(tag, attrs, lt, tag_match.group(), slash == "/")
            continue
        if slash or tag == "plaintext":
            return False
        start(tag, attrs, lt, tag_match.group(), False)
        if tag in _TEXT_ONLY:
            close = find("<", pos)
            if close < 0 or "&" in text[pos:close]:
                return False
        else:
            close_match = _RAW_TEXT_END[tag].search(text, pos)
            if close_match is None or find("<!--", pos, close_match.start()) >= 0:
                return False
            close = close_match.start()
        closing = f"</{tag}>"
        if text[close:close + len(closing)].lower() != closing:
            return False
        if close > pos:
            data(text[pos:close], pos)
        end(tag, close)
        pos = close + len(closing)


def _tokenize(text: str, root_url: str, body_bytes: int) -> _IndexBuilder:
    """The one tokenizing entry: a builder fed by the strict scanner when it
    accepts the whole text, else by html.parser from a fresh builder."""
    builder = _IndexBuilder(text, root_url, body_bytes)
    if _scan(text, builder):
        return builder
    builder = _IndexBuilder(text, root_url, body_bytes)
    parser = _ParserDriver(builder, text)
    parser.feed(text)
    parser.close()
    return builder


@functools.lru_cache(maxsize=16)
def html_index(body: bytes, root_url: str) -> HtmlIndex:
    """The HtmlIndex of a root body, tokenized once per distinct (body,
    root URL) among the last few this worker process asked for.

    Two tokenizers feed one builder. The strict scanner (_scan) walks the
    text once and accepts a document only when all of it lies in the subset
    of HTML that every html.parser from Python 3.10 to 3.14 tokenizes alike;
    it reports exactly the tokens html.parser would. Any other document,
    rejected as a whole, goes through html.parser. So on every input the
    index is html.parser's.

    Offsets in ``resources`` and ``text_blocks`` are byte offsets: character
    offsets scaled by len(body) / len(text), capped at len(body). Every
    caller gets the same index, so it is immutable throughout.
    """
    text, codec = decode_body(body)
    return _tokenize(text, root_url, len(body)).index(codec)


def parse_page(page: ArchivedPage) -> ResourceGraph:
    """Extract the ResourceGraph of a page's root document.

    Raises EmptyDocument when the root body is zero bytes. Text that is not
    valid UTF-8 falls back to a Latin-1 byte mapping rather than erroring.
    """
    body = page.root_exchange().body
    if len(body) == 0:
        raise EmptyDocument(f"page {page.page_id}: root document is empty")
    index = html_index(body, page.root_url)

    root = Resource(url=page.root_url, kind=KIND_HTML, bytes=len(body), discovery_index=0)
    resources = [root]
    for res in index.resources:
        inline = res.kind == KIND_SCRIPT_INLINE
        exchange = None if inline else page.lookup(res.url)
        resources.append(
            Resource(
                url=res.url,
                kind=res.kind,
                bytes=len(res.inline_text) if exchange is None else len(exchange.body),  # 0 when missing
                discovery_index=res.discovery_index,
                doc_offset=res.doc_offset,
                missing=exchange is None and not inline,
                inline_text=res.inline_text,
            )
        )
    return ResourceGraph(
        root=root,
        resources=resources,
        text_blocks=list(index.text_blocks),
        interactive_elements=list(index.interactive_elements),
        tag_histogram=dict(index.tag_histogram),
        script_bodies=tuple(ex.body for ex in page.exchanges.values() if is_js_content_type(ex.content_type)),
    )


def graph_to_dict(graph: ResourceGraph) -> dict:
    """JSON-friendly rendering of a graph (debug CLI output)."""
    return {
        "root_url": graph.root.url,
        "html_bytes": graph.root.bytes,
        "zero_visual": graph.zero_visual,
        "maybe_undercounted": graph.maybe_undercounted,
        "total_visual_weight": graph.total_visual_weight,
        "resources": [
            {
                "url": res.url,
                "kind": res.kind,
                "bytes": res.bytes,
                "discovery_index": res.discovery_index,
                "render_blocking": res.render_blocking,
                "missing": res.missing,
            }
            for res in graph.resources
        ],
        "text_blocks": [
            {"char_count": b.char_count, "discovery_index": b.discovery_index}
            for b in graph.text_blocks
        ],
        "interactive_elements": [
            {
                "kind": el.kind,
                "identity_key": el.identity_key,
                "handler_fn_names": sorted(el.handler_fn_names),
            }
            for el in graph.interactive_elements
        ],
        "tag_histogram": dict(sorted(graph.tag_histogram.items())),
    }
