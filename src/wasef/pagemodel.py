"""Parses an archived HTML document into the resource graph consumed by the
load simulator and the similarity scorer.

The parser is static and tolerant: it never executes scripts, never aborts on
unclosed tags, and sees exactly what is in the markup. Resources injected at
runtime by JavaScript are invisible; pages whose scripts contain the usual
injection idioms are flagged as potentially undercounted instead.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from html.parser import HTMLParser

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


@dataclass
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


class _Extractor(HTMLParser):
    """Single pass over the root document collecting resources, text runs,
    interactive elements, and the body tag histogram."""

    def __init__(self, text: str, root_url: str, page: ArchivedPage):
        super().__init__(convert_charrefs=True)
        self._text = text
        self._root_url = root_url
        self._page = page
        self._line_starts = [0]
        for line in text.split("\n")[:-1]:
            self._line_starts.append(self._line_starts[-1] + len(line) + 1)
        self.resources: list[Resource] = []
        self.text_blocks: list[TextBlock] = []
        self.interactive: list[InteractiveElement] = []
        self.tag_histogram: Counter = Counter()
        self._counter = 1  # 0 is reserved for the root resource
        self._in_head = False
        self._skip_text_depth = 0  # inside script/style
        self._inline_script: tuple[float, list[str]] | None = None

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

    def _archived_bytes(self, url: str) -> tuple[int, bool]:
        ex = self._page.lookup(url)
        if ex is None:
            return 0, True
        return len(ex.body), False

    def _add_resource(self, url: str, kind: str, offset: int) -> None:
        size, missing = self._archived_bytes(url)
        self.resources.append(
            Resource(
                url=url,
                kind=kind,
                bytes=size,
                discovery_index=self._next_index(),
                render_blocking=kind in RENDER_BLOCKING_KINDS,
                doc_offset=float(offset),
                missing=missing,
            )
        )

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
            src = attr_map.get("src")
            if src:
                url = self._resolve(src)
                if url is not None:
                    if "async" in attr_map:
                        kind = KIND_SCRIPT_ASYNC
                    elif "defer" in attr_map:
                        kind = KIND_SCRIPT_DEFER
                    else:
                        kind = KIND_SCRIPT_SYNC
                    self._add_resource(url, kind, offset)
                self._skip_text_depth += 1
            else:
                self._inline_script = (float(offset), [])
                self._skip_text_depth += 1
        elif tag == "style":
            self._skip_text_depth += 1
        elif tag == "link":
            rel = (attr_map.get("rel") or "").lower().split()
            href = attr_map.get("href")
            if "stylesheet" in rel and href:
                url = self._resolve(href)
                if url is not None:
                    self._add_resource(url, KIND_STYLESHEET, offset)
        elif tag == "img":
            src = attr_map.get("src")
            if src:
                url = self._resolve(src)
                if url is not None:
                    self._add_resource(url, KIND_IMAGE, offset)
        elif tag == "iframe":
            src = attr_map.get("src")
            if src:
                url = self._resolve(src)
                if url is not None:
                    self._add_resource(url, KIND_IFRAME, offset)

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
        if tag in ("script", "style"):
            self._end_raw_element(tag)

    def handle_endtag(self, tag):
        if tag == "head":
            self._in_head = False
        if tag in ("script", "style"):
            self._end_raw_element(tag)

    def _end_raw_element(self, tag):
        if tag == "script" and self._inline_script is not None:
            offset, pieces = self._inline_script
            text = "".join(pieces)
            self.resources.append(
                Resource(
                    url="",
                    kind=KIND_SCRIPT_INLINE,
                    bytes=len(text),
                    discovery_index=self._next_index(),
                    doc_offset=offset,
                    inline_text=text,
                )
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
                TextBlock(
                    char_count=len(collapsed),
                    discovery_index=self._next_index(),
                    doc_offset=float(self._offset()),
                    text=collapsed,
                )
            )

    def finish(self):
        if self._inline_script is not None:  # unclosed script runs to EOF
            self._end_raw_element("script")


def parse_page(page: ArchivedPage) -> ResourceGraph:
    """Extract the ResourceGraph of a page's root document.

    Raises EmptyDocument when the root body is zero bytes. Text that is not
    valid UTF-8 falls back to a Latin-1 byte mapping rather than erroring.
    """
    root_ex = page.root_exchange()
    body = root_ex.body
    if len(body) == 0:
        raise EmptyDocument(f"page {page.page_id}: root document is empty")
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        text = body.decode("latin-1")

    extractor = _Extractor(text, page.root_url, page)
    extractor.feed(text)
    extractor.close()
    extractor.finish()

    html_bytes = len(body)
    total_chars = max(len(text), 1)
    scale = html_bytes / total_chars
    root = Resource(
        url=page.root_url,
        kind=KIND_HTML,
        bytes=html_bytes,
        discovery_index=0,
        doc_offset=0.0,
    )
    resources = [root] + extractor.resources
    for res in resources[1:]:
        res.doc_offset = min(res.doc_offset * scale, float(html_bytes))
    for block in extractor.text_blocks:
        block.doc_offset = min(block.doc_offset * scale, float(html_bytes))

    graph = ResourceGraph(
        root=root,
        resources=resources,
        text_blocks=extractor.text_blocks,
        interactive_elements=extractor.interactive,
        tag_histogram=dict(extractor.tag_histogram),
    )
    graph.maybe_undercounted = _scripts_look_injecting(page, graph)
    visual_weights(graph)
    return graph


def _scripts_look_injecting(page: ArchivedPage, graph: ResourceGraph) -> bool:
    sources = [res.inline_text for res in graph.resources if res.kind == KIND_SCRIPT_INLINE]
    for ex in page.exchanges.values():
        if is_js_content_type(ex.content_type):
            sources.append(ex.body.decode("utf-8", errors="replace"))
    for source in sources:
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
