"""Parses an archived HTML document into the resource graph consumed by the
load simulator and the similarity scorer.

The parser is static and tolerant: it never executes scripts, never aborts on
unclosed tags, and sees exactly what is in the markup. Resources injected at
runtime by JavaScript are invisible; pages whose scripts contain the usual
injection idioms are flagged as potentially undercounted instead.

Parsing is split in two steps. html_index() tokenizes a root document once
into a frozen HtmlIndex: the referenced resources with their kind, resolved
URL and byte offset, the text blocks, the interactive elements, the tag
histogram, and the script spans and handler-attribute edits that the
transforms rewrite. The index depends only on the root body's bytes and the
root URL. A run evaluates one page under every solution in turn, and most
solutions leave the root HTML unchanged, so the last few indexes are cached
by (body, root URL). parse_page() then binds an index to one page. It builds
fresh Resource and TextBlock objects, takes each resource's size and missing
flag from that page's own exchanges, and sets the visual weights and the
undercount flag, which also read the page's script bodies.
"""

from __future__ import annotations

import functools
import hashlib
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from html.parser import HTMLParser
from types import MappingProxyType
from typing import NamedTuple

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
KIND_OTHER = "other"

SCRIPT_KINDS = {KIND_SCRIPT_SYNC, KIND_SCRIPT_ASYNC, KIND_SCRIPT_DEFER, KIND_SCRIPT_INLINE}
RENDER_BLOCKING_KINDS = {KIND_STYLESHEET, KIND_SCRIPT_SYNC}

# Weight of one collapsed text character relative to one image byte; chosen so
# a 2000-character article weighs like a 100 KB image. Configurable through
# visual_weights().
TEXT_WEIGHT_PER_CHAR = 50.0

_INTERACTIVE_TAGS = {"a": "link", "button": "button", "input": "input", "form": "form"}
_JS_KEYWORDS = {
    "if", "else", "for", "while", "switch", "catch", "function", "return",
    "new", "typeof", "this", "true", "false", "null", "undefined", "var",
    "let", "const", "do", "in", "of", "try",
}
_INJECTION_MARKERS = ("document.createElement('script'", 'document.createElement("script"', "new Image(")
# An inline handler attribute with its value, as js-strip removes it.
ON_ATTR_RE = re.compile(r"""\s+on[a-zA-Z]+\s*=\s*("[^"]*"|'[^']*'|[^\s>]+)""")


@dataclass
class Resource:
    """One referenced resource in document order."""

    url: str
    kind: str
    bytes: int
    discovery_index: int
    visual_weight: float = 0.0
    render_blocking: bool = False
    doc_offset: float = 0.0  # byte offset of the tag within the root document
    missing: bool = False  # referenced but absent from the archive
    inline_text: str = ""  # script_inline only


@dataclass
class TextBlock:
    """A maximal run of visible text, whitespace-collapsed."""

    char_count: int
    discovery_index: int
    doc_offset: float = 0.0
    text: str = ""
    weight: float = 0.0


@dataclass(frozen=True)
class InteractiveElement:
    """An element a user can act on; identity is stable for equal markup."""

    kind: str  # link, button, input, form, handler_element
    identity_key: str
    handler_fn_names: frozenset[str] = frozenset()


@dataclass
class ResourceGraph:
    root: Resource
    resources: list[Resource]  # document order; resources[0] is the root
    text_blocks: list[TextBlock]
    interactive_elements: list[InteractiveElement]
    tag_histogram: dict[str, int] = field(default_factory=dict)
    total_visual_weight: float = 0.0
    zero_visual: bool = False
    maybe_undercounted: bool = False

    def sub_resources(self) -> list[Resource]:
        return self.resources[1:]


def _collapse_ws(text: str) -> str:
    return " ".join(text.split())


def _handler_names(on_attrs: dict[str, str]) -> frozenset[str]:
    """Identifiers in call position inside inline handler attributes."""
    names = set()
    for value in on_attrs.values():
        for match in re.finditer(r"([A-Za-z_$][\w$]*)\s*\(", value):
            name = match.group(1)
            if name not in _JS_KEYWORDS:
                names.add(name)
    return frozenset(names)


def _identity_key(kind: str, attrs: dict[str, str | None], on_attrs: dict[str, str], root_url: str) -> str:
    if kind == "link" and attrs.get("href"):
        href = attrs["href"]
        try:
            href = normalize_url(href, base=root_url)
        except MalformedUrl:
            pass
        return f"link:{href}"
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


class IndexedText(NamedTuple):
    """A text block; the fields of TextBlock, in its order, without weight."""

    char_count: int
    discovery_index: int
    doc_offset: float
    text: str


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
    text_blocks: tuple[IndexedText, ...]
    interactive_elements: tuple[InteractiveElement, ...]
    tag_histogram: Mapping[str, int]
    script_spans: tuple[ScriptSpan, ...]
    handler_edits: tuple[tuple[int, int, str], ...]  # (start, end, start tag without on* attributes)
    inline_injects: bool  # an inline script carries an injection marker


def decode_body(body: bytes) -> tuple[str, str]:
    """Text of a body and the codec that decoded it: UTF-8, or a Latin-1
    byte mapping when the body is not valid UTF-8."""
    try:
        return body.decode("utf-8"), "utf-8"
    except UnicodeDecodeError:
        return body.decode("latin-1"), "latin-1"


class _IndexBuilder(HTMLParser):
    """Single pass over the root document collecting resources, text runs,
    interactive elements, the body tag histogram, script element spans and
    start tags carrying on* attributes. Offsets are character offsets into
    the document text."""

    def __init__(self, text: str, root_url: str):
        super().__init__(convert_charrefs=True)
        self._text = text
        self._root_url = root_url
        self._line_starts = [0]
        for line in text.split("\n")[:-1]:
            self._line_starts.append(self._line_starts[-1] + len(line) + 1)
        self.resources: list[IndexedResource] = []
        self.text_blocks: list[IndexedText] = []
        self.interactive: list[InteractiveElement] = []
        self.tag_histogram: Counter = Counter()
        self.script_spans: list[ScriptSpan] = []
        self.handler_edits: list[tuple[int, int, str]] = []
        self._counter = 1  # 0 is reserved for the root resource
        self._in_head = False
        self._skip_text_depth = 0  # inside script/style
        self._inline_script: tuple[float, list[str]] | None = None
        self._open_script: tuple[int, str | None] | None = None  # (start, first non-empty src)

    def _offset(self) -> int:
        line, col = self.getpos()
        return self._line_starts[line - 1] + col

    def _next_index(self) -> int:
        index = self._counter
        self._counter += 1
        return index

    def _resolve(self, raw: str) -> str | None:
        try:
            return normalize_url(raw, base=self._root_url)
        except MalformedUrl:
            return None

    def _add_resource(self, raw_url: str, kind: str, offset: int) -> None:
        url = self._resolve(raw_url)
        if url is not None:
            self.resources.append(IndexedResource(url, kind, self._next_index(), float(offset)))

    def handle_starttag(self, tag, attrs):
        offset = self._offset()
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
                self._inline_script = (float(offset), [])
            self._skip_text_depth += 1
            self._open_script = (offset, next((v for n, v in attrs if n.lower() == "src" and v), None))
        else:
            raw = self.get_starttag_text() or ""
            cleaned = ON_ATTR_RE.sub("", raw)
            if cleaned != raw:
                self.handler_edits.append((offset, offset + len(raw), cleaned))
            if tag == "style":
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

        on_attrs = {
            name: value or ""
            for name, value in attr_map.items()
            if name.startswith("on") and len(name) > 2
        }
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

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        if tag == "script":
            self._finish_script(self._offset() + len(self.get_starttag_text() or ""))
        if tag in ("script", "style"):
            self._end_raw_element(tag)

    def handle_endtag(self, tag):
        if tag == "head":
            self._in_head = False
        if tag == "script" and self._open_script is not None:
            end = self._text.find(">", self._offset())
            self._finish_script(len(self._text) if end == -1 else end + 1)
        if tag in ("script", "style"):
            self._end_raw_element(tag)

    def _finish_script(self, end: int):
        start, src = self._open_script
        self.script_spans.append(ScriptSpan(start, end, src, None if src is None else self._resolve(src)))
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

    def handle_data(self, data):
        if self._inline_script is not None:
            self._inline_script[1].append(data)
            return
        if self._skip_text_depth > 0 or self._in_head:
            return
        collapsed = _collapse_ws(data)
        if collapsed:
            self.text_blocks.append(
                IndexedText(len(collapsed), self._next_index(), float(self._offset()), collapsed)
            )

    def finish(self):
        """Close what the document leaves open: an unclosed script runs to EOF."""
        if self._inline_script is not None:
            self._end_raw_element("script")
        if self._open_script is not None:
            self._finish_script(len(self._text))


@functools.lru_cache(maxsize=16)
def html_index(body: bytes, root_url: str) -> HtmlIndex:
    """The HtmlIndex of a root body, tokenized once per distinct (body,
    root URL) among the last few asked for.

    Offsets in ``resources`` and ``text_blocks`` are byte offsets: character
    offsets scaled by len(body) / len(text), capped at len(body). Every
    caller gets the same index, so it is immutable throughout.
    """
    text, codec = decode_body(body)
    builder = _IndexBuilder(text, root_url)
    builder.feed(text)
    builder.close()
    builder.finish()

    html_bytes = float(len(body))
    scale = len(body) / max(len(text), 1)
    resources = tuple(
        res._replace(doc_offset=min(res.doc_offset * scale, html_bytes)) for res in builder.resources
    )
    return HtmlIndex(
        text=text,
        codec=codec,
        resources=resources,
        text_blocks=tuple(
            block._replace(doc_offset=min(block.doc_offset * scale, html_bytes))
            for block in builder.text_blocks
        ),
        interactive_elements=tuple(builder.interactive),
        tag_histogram=MappingProxyType(dict(builder.tag_histogram)),
        script_spans=tuple(builder.script_spans),
        handler_edits=tuple(builder.handler_edits),
        inline_injects=any(
            marker in res.inline_text for res in resources for marker in _INJECTION_MARKERS
        ),
    )


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
        if res.kind == KIND_SCRIPT_INLINE:
            resources.append(
                Resource(
                    url="",
                    kind=KIND_SCRIPT_INLINE,
                    bytes=len(res.inline_text),
                    discovery_index=res.discovery_index,
                    doc_offset=res.doc_offset,
                    inline_text=res.inline_text,
                )
            )
            continue
        exchange = page.lookup(res.url)
        resources.append(
            Resource(
                url=res.url,
                kind=res.kind,
                bytes=0 if exchange is None else len(exchange.body),
                discovery_index=res.discovery_index,
                render_blocking=res.kind in RENDER_BLOCKING_KINDS,
                doc_offset=res.doc_offset,
                missing=exchange is None,
            )
        )

    graph = ResourceGraph(
        root=root,
        resources=resources,
        text_blocks=[TextBlock(*block) for block in index.text_blocks],
        interactive_elements=list(index.interactive_elements),
        tag_histogram=dict(index.tag_histogram),
    )
    graph.maybe_undercounted = index.inline_injects or _scripts_look_injecting(page)
    visual_weights(graph)
    return graph


def _scripts_look_injecting(page: ArchivedPage) -> bool:
    """Whether an archived script body carries an injection marker."""
    for ex in page.exchanges.values():
        if is_js_content_type(ex.content_type):
            source = ex.body.decode("utf-8", errors="replace")
            if any(marker in source for marker in _INJECTION_MARKERS):
                return True
    return False


def visual_weights(graph: ResourceGraph, text_weight_per_char: float = TEXT_WEIGHT_PER_CHAR) -> dict[int, float]:
    """Assign paint weights: image weight is its byte size, text weight is
    char_count * text_weight_per_char. Returns a map keyed by discovery index
    and flags the graph zero-visual when the total weight is zero."""
    weights: dict[int, float] = {}
    total = 0.0
    for res in graph.resources:
        res.visual_weight = float(res.bytes) if res.kind == KIND_IMAGE else 0.0
        if res.visual_weight > 0:
            weights[res.discovery_index] = res.visual_weight
            total += res.visual_weight
    for block in graph.text_blocks:
        block.weight = block.char_count * text_weight_per_char
        if block.weight > 0:
            weights[block.discovery_index] = block.weight
            total += block.weight
    graph.total_visual_weight = total
    graph.zero_visual = total <= 0.0
    return weights


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
