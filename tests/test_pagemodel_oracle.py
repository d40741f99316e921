"""The HTML index and its per-page bind against frozen reference copies of
the two tokenizers they replace: the graph extractor that parse_page ran
over every page, and the tag scanner that js-strip, js-block-thirdparty and
js-dce ran over every original. Both are checked with ``hypothesis`` on
generated HTML and on the fixture pages."""

import re
from collections import Counter
from html.parser import HTMLParser
from urllib.parse import urlsplit

from hypothesis import assume, example, given, settings, strategies as st

from wasef import jsscan
from wasef.archive import ArchivedPage, is_js_content_type, load_page, normalize_url
from wasef.errors import EmptyDocument, MalformedUrl
from wasef.fixtures import make_fixtures
from wasef.pagemodel import (
    KIND_HTML,
    KIND_IFRAME,
    KIND_IMAGE,
    KIND_SCRIPT_ASYNC,
    KIND_SCRIPT_DEFER,
    KIND_SCRIPT_INLINE,
    KIND_SCRIPT_SYNC,
    KIND_STYLESHEET,
    RENDER_BLOCKING_KINDS,
    InteractiveElement,
    Resource,
    ResourceGraph,
    TextBlock,
    _handler_names,
    _identity_key,
    graph_to_dict,
    parse_page,
    visual_weights,
)
from wasef.transform import (
    TransformSpec,
    _apply_edits,
    _rebuild_page,
    _script_exchange_urls,
    apply_transform,
)

from conftest import page_from_parts

# --- reference graph extractor ------------------------------------------------

_REF_INTERACTIVE_TAGS = {"a": "link", "button": "button", "input": "input", "form": "form"}
_REF_INJECTION_MARKERS = ("document.createElement('script'", 'document.createElement("script"', "new Image(")


def ref_decode_html(body):
    try:
        return body.decode("utf-8"), "utf-8"
    except UnicodeDecodeError:
        return body.decode("latin-1"), "latin-1"


class RefExtractor(HTMLParser):
    """Single pass over the root document collecting resources, text runs,
    interactive elements, and the body tag histogram."""

    def __init__(self, text, root_url, page):
        super().__init__(convert_charrefs=True)
        self._text = text
        self._root_url = root_url
        self._page = page
        self._line_starts = [0]
        for line in text.split("\n")[:-1]:
            self._line_starts.append(self._line_starts[-1] + len(line) + 1)
        self.resources = []
        self.text_blocks = []
        self.interactive = []
        self.tag_histogram = Counter()
        self._counter = 1
        self._in_head = False
        self._skip_text_depth = 0
        self._inline_script = None

    def _offset(self):
        line, col = self.getpos()
        return self._line_starts[line - 1] + col

    def _next_index(self):
        index = self._counter
        self._counter += 1
        return index

    def _resolve(self, raw):
        try:
            return normalize_url(raw, base=self._root_url)
        except MalformedUrl:
            return None

    def _archived_bytes(self, url):
        ex = self._page.lookup(url)
        if ex is None:
            return 0, True
        return len(ex.body), False

    def _add_resource(self, url, kind, offset):
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
        attr_map = {}
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
        kind = _REF_INTERACTIVE_TAGS.get(tag)
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
        collapsed = " ".join(data.split())
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
        if self._inline_script is not None:
            self._end_raw_element("script")


def _ref_scripts_look_injecting(page, graph):
    sources = [res.inline_text for res in graph.resources if res.kind == KIND_SCRIPT_INLINE]
    for ex in page.exchanges.values():
        if is_js_content_type(ex.content_type):
            sources.append(ex.body.decode("utf-8", errors="replace"))
    return any(marker in source for source in sources for marker in _REF_INJECTION_MARKERS)


def ref_parse_page(page):
    body = page.root_exchange().body
    if len(body) == 0:
        raise EmptyDocument(f"page {page.page_id}: root document is empty")
    text, _ = ref_decode_html(body)
    extractor = RefExtractor(text, page.root_url, page)
    extractor.feed(text)
    extractor.close()
    extractor.finish()

    html_bytes = len(body)
    scale = html_bytes / max(len(text), 1)
    root = Resource(url=page.root_url, kind=KIND_HTML, bytes=html_bytes, discovery_index=0, doc_offset=0.0)
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
    graph.maybe_undercounted = _ref_scripts_look_injecting(page, graph)
    visual_weights(graph)
    return graph


# --- reference tag scanner and the transforms that read it ------------------------

REF_ON_ATTR_RE = re.compile(r"""\s+on[a-zA-Z]+\s*=\s*("[^"]*"|'[^']*'|[^\s>]+)""")


class RefTagScanner(HTMLParser):
    """Locates script element spans and start tags carrying on* attributes,
    as character offsets into the document text."""

    def __init__(self, text):
        super().__init__(convert_charrefs=True)
        self._text = text
        self._line_starts = [0]
        for line in text.split("\n")[:-1]:
            self._line_starts.append(self._line_starts[-1] + len(line) + 1)
        self.script_spans = []  # (start, end, src)
        self.handler_tags = []  # (start, end, replacement)
        self._open_script = None

    def _offset(self):
        line, col = self.getpos()
        return self._line_starts[line - 1] + col

    def handle_starttag(self, tag, attrs):
        start = self._offset()
        if tag == "script":
            src = None
            for name, value in attrs:
                if name.lower() == "src" and value:
                    src = value
                    break
            self._open_script = (start, src)
            return
        raw = self.get_starttag_text() or ""
        cleaned = REF_ON_ATTR_RE.sub("", raw)
        if cleaned != raw:
            self.handler_tags.append((start, start + len(raw), cleaned))

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        if tag == "script":
            self._finish_script(self._offset() + len(self.get_starttag_text() or ""))

    def handle_endtag(self, tag):
        if tag == "script" and self._open_script is not None:
            close_start = self._offset()
            end = self._text.find(">", close_start)
            end = len(self._text) if end == -1 else end + 1
            self._finish_script(end)

    def _finish_script(self, end):
        if self._open_script is None:
            return
        start, src = self._open_script
        self.script_spans.append((start, end, src))
        self._open_script = None

    def finish(self):
        if self._open_script is not None:
            self._finish_script(len(self._text))


def ref_scan_html(text):
    scanner = RefTagScanner(text)
    scanner.feed(text)
    scanner.close()
    scanner.finish()
    return scanner


def _ref_script_urls(page, spans):
    urls = set()
    for _, _, src in spans:
        if src:
            try:
                urls.add(normalize_url(src, base=page.root_url))
            except MalformedUrl:
                continue
    return urls


def ref_js_strip(page):
    text, codec = ref_decode_html(page.root_exchange().body)
    scanner = ref_scan_html(text)
    removals = [(s, e) for s, e, _ in scanner.script_spans]
    new_text = _apply_edits(text, removals, scanner.handler_tags)
    dropped = _ref_script_urls(page, scanner.script_spans) | _script_exchange_urls(page)
    return _rebuild_page(page, new_text.encode(codec), dropped)


def ref_js_block_thirdparty(page):
    root_host = urlsplit(page.root_url).hostname or ""
    text, codec = ref_decode_html(page.root_exchange().body)
    scanner = ref_scan_html(text)
    removals = []
    dropped = set()
    for start, end, src in scanner.script_spans:
        if not src:
            continue
        try:
            url = normalize_url(src, base=page.root_url)
        except MalformedUrl:
            continue
        if (urlsplit(url).hostname or "") != root_host:
            removals.append((start, end))
            dropped.add(url)
    if not removals:
        return _rebuild_page(page, None, set())
    return _rebuild_page(page, _apply_edits(text, removals, []).encode(codec), dropped)


def ref_js_dce(page):
    html_text, _ = ref_decode_html(page.root_exchange().body)
    scanner = ref_scan_html(html_text)
    inline_texts = [html_text[s:e] for s, e, src in scanner.script_spans if not src]
    handler_text = " ".join(m.group(1) for m in REF_ON_ATTR_RE.finditer(html_text))
    script_texts = {}
    for (_, url), ex in page.exchanges.items():
        if is_js_content_type(ex.content_type):
            script_texts[url] = ref_decode_html(ex.body)
    base_tokens = jsscan.token_counts("\n".join(inline_texts + [handler_text]))
    indexes = {url: jsscan.index(text) for url, (text, _) in script_texts.items()}
    changed = True
    while changed:
        changed = False
        for url, (text, codec) in script_texts.items():
            doomed = []
            for name, start, end in indexes[url].function_spans:
                outside = (
                    base_tokens[name]
                    + sum(ix.tokens[name] for ix in indexes.values())
                    - jsscan.count_references(name, text[start:end])
                )
                if outside == 0:
                    doomed.append((start, end))
            if doomed:
                for start, end in sorted(doomed, reverse=True):
                    text = text[:start] + text[end:]
                script_texts[url] = (text, codec)
                indexes[url] = jsscan.index(text)
                changed = True
    replaced = {url: text.encode(codec) for url, (text, codec) in script_texts.items()}
    return _rebuild_page(page, None, set(), replaced)


REF_TRANSFORMS = {
    "js-strip": ref_js_strip,
    "js-block-thirdparty": ref_js_block_thirdparty,
    "js-dce": ref_js_dce,
}


# --- comparison -----------------------------------------------------------------


def _exchanges(page: ArchivedPage):
    return {
        key: (ex.status, list(ex.headers), ex.body, ex.content_type)
        for key, ex in page.exchanges.items()
    }


def _graph_details(graph):
    return (
        [(r.doc_offset, r.inline_text, r.visual_weight) for r in graph.resources],
        [(b.doc_offset, b.text, b.char_count, b.weight) for b in graph.text_blocks],
    )


def assert_graph_matches_reference(page):
    graph, reference = parse_page(page), ref_parse_page(page)
    assert graph_to_dict(graph) == graph_to_dict(reference)
    assert _graph_details(graph) == _graph_details(reference)
    assert graph == reference


def assert_transforms_match_reference(page):
    for name, reference in REF_TRANSFORMS.items():
        variant = apply_transform(TransformSpec(name=name), page).page
        expected = reference(page)
        assert _exchanges(variant) == _exchanges(expected), name
        if variant.root_exchange().body:
            assert_graph_matches_reference(variant)


# --- generated HTML ---------------------------------------------------------------

HOST = "site.test"
URLS = [
    "a.js",
    "/b.js",
    "http://site.test/c.js",
    "//cdn.other.test/d.js",
    "http://cdn.other.test/e.js",
    "pic.png",
    "IMG/../pic2.png",
    "s.css",
    "f.html",
    "Sub/Page.html",
    "javascript:void(0)",
    "http://[bad",
    " ",
    "&amp;q=1&lt;",
]
url_values = st.sampled_from(URLS)
words = st.sampled_from(["alpha", "beta", "caf\xe9", "&amp;", "&lt;b&gt;", "&copy;", "&#169;", "&nbsp;", "&bogus;", "x"])
spaces = st.sampled_from(["", " ", "\n", "  \n\t "])
names = st.sampled_from(["go", "save", "pop", "f", "if"])
js_bodies = st.sampled_from([
    "",
    "var x = 1;",
    "function go(e){return 1;}",
    "function dead(){}\nfunction f(){}",
    "var s = document.createElement('script');",
    "new Image(); pop();",
    "if (a < b) { '</div>' }",
])
on_attrs = st.builds(
    '{}on{}="{}({})"'.format,
    st.sampled_from([" ", "\n"]),
    st.sampled_from(["click", "load", "mouseover", "Submit"]),
    names,
    st.sampled_from(["", "event", "1"]),
)
attr_tails = st.lists(
    st.one_of(
        on_attrs,
        st.builds(' name="{}"'.format, names),
        st.builds(" id={}".format, names),
        st.just(" onclick=go()"),
        st.just(' title="x onclick=y"'),
        st.just(" disabled"),
    ),
    max_size=3,
).map("".join)
script_attrs = st.lists(
    st.one_of(
        st.builds(' src="{}"'.format, url_values),
        st.just(' src=""'),
        st.just(" src"),
        st.just(" SRC='a.js'"),
        st.just(" async"),
        st.just(" defer"),
        on_attrs,
    ),
    max_size=3,
).map("".join)

elements = st.one_of(
    st.builds("<script{}>{}</script>".format, script_attrs, js_bodies),
    st.builds("<script{}/>".format, script_attrs),
    st.builds("<script{}>{}</script >".format, script_attrs, js_bodies),
    st.builds('<img src="{}"{}>'.format, url_values, attr_tails),
    st.builds("<img src=''{}/>".format, attr_tails),
    st.builds('<iframe src="{}"></iframe>'.format, url_values),
    st.builds('<link rel="{}" href="{}">'.format, st.sampled_from(["stylesheet", "icon", "Alternate StyleSheet"]), url_values),
    st.builds("<style>{}</style>".format, words),
    st.just("<style/>"),
    st.builds('<a href="{}"{}>{}</a>'.format, url_values, attr_tails, words),
    st.builds("<button{}>{}</button>".format, attr_tails, words),
    st.builds("<div{}>{}</div>".format, attr_tails, words),
    st.builds("<p{}>{}{}{}</p>".format, attr_tails, words, spaces, words),
    st.builds('<form name="{}"><input name="{}"{}></form>'.format, names, names, attr_tails),
    st.builds("<br{}/>".format, attr_tails),
    st.just("<head><title>t &amp; t</title><script>var h;</script></head>"),
    st.just("<head>"),
    st.just("</head>"),
    st.just("<body>"),
    st.just("</script>"),
    st.just("<!-- <script src='a.js'></script> -->"),
    words,
    spaces,
)
tails = st.sampled_from(["", "<script>unclosed(", "<script src='a.js'>", "<script src=''>x", "<div onclick='go()'"])
assets = st.lists(
    st.sampled_from([
        ("/a.js", "application/javascript", b"function go(e){return 1;}\ngo(0);"),
        ("/b.js", "text/javascript", b"function dead(){}\nvar s = document.createElement('script');"),
        ("/c.js", "application/javascript", b"function save(){}\nfunction pop(){}"),
        ("http://cdn.other.test/d.js", "application/javascript", b"function f(){}"),
        ("http://cdn.other.test/e.js", "application/javascript", b"new Image();"),
        ("/pic.png", "image/png", b"\x89PNG" * 50),
        ("/pic2.png", "image/png", b""),
        ("/s.css", "text/css", b"body{}"),
        ("/f.html", "text/html", b"<p>frame</p>"),
    ]),
    unique=True,
    max_size=9,
)


def _body(parts, tail, latin1):
    html = "".join(parts) + tail
    if latin1:
        return html.encode("latin-1") + b"\xff\xfe caf\xe9"  # not valid UTF-8
    return html.encode("utf-8")


@settings(max_examples=300, deadline=None)
@example(
    # The graph takes the first src (here empty: an inline script), the
    # transforms the first non-empty one; then an unresolvable src, a
    # self-closing script, charrefs, on* attributes and an unclosed script.
    [
        "<script src='' src='a.js'>go()</script>",
        "<script src='http://[bad'></script><script/>",
        "<p onclick=\"pop()\" title='x onclick=y'>caf\xe9 &amp; &copy;</p>",
        "<img src='javascript:void(0)'><img src='pic.png'>",
    ],
    "<script>unclosed(",
    True,
    True,
    [("/a.js", "application/javascript", b"function go(){}"), ("/pic.png", "image/png", b"1234")],
)
@given(
    st.lists(elements, max_size=25),
    tails,
    st.booleans(),
    st.booleans(),
    assets,
)
def test_index_and_bind_match_reference_extractor(parts, tail, latin1, wrap, page_assets):
    if wrap:
        parts = ["<html><head></head><body>"] + parts + ["</body></html>"]
    page = page_from_parts("x", assets=page_assets, host=HOST)
    page.exchanges[("GET", page.root_url)].body = _body(parts, tail, latin1)
    assume(page.root_exchange().body)  # an empty root has its own test
    assert_graph_matches_reference(page)
    assert_transforms_match_reference(page)


def test_empty_root_raises_like_reference():
    page = page_from_parts("x")
    page.exchanges[("GET", page.root_url)].body = b""
    for parse in (parse_page, ref_parse_page):
        try:
            parse(page)
        except EmptyDocument:
            continue
        raise AssertionError(f"{parse.__name__} accepted an empty root")
    assert_transforms_match_reference(page)


def test_fixture_pages_match_reference(tmp_path):
    corpus = make_fixtures(tmp_path, 20, seed=7)
    for page_id in corpus.pages:
        page = load_page(page_id, tmp_path)
        assert_graph_matches_reference(page)
        assert_transforms_match_reference(page)
        for name in ("identity", "img-downscale"):
            assert_graph_matches_reference(apply_transform(TransformSpec(name=name), page).page)

