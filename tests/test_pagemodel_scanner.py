"""The strict scanner against html.parser: whenever the scanner accepts a
document, the index it builds equals the one html.parser's tokens build, and
the benchmark's pages all take the scanner. tests/test_pagemodel_oracle.py
checks both paths against its frozen reference extractor. js-strip's
cleaned start tags are checked by tokenizing them again."""

import importlib.util
import sys
from html.parser import HTMLParser
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from wasef import pagemodel
from wasef.transform import TransformSpec, apply_transform

from conftest import page_from_parts
from test_pagemodel_oracle import elements

ROOT_URL = "http://site.test/index.html"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOLUTIONS = ["identity", "js-strip", "js-block-thirdparty", "js-dce", "img-downscale"]

# Markup at the edge of the scanner's subset: constructs html.parser versions
# tokenize differently, and their nearest accepted neighbours.
NEAR_MISSES = [
    "<a href=x/>",
    "<img src=a.png />",
    "<br/>",
    "<b\tid='x'\n/>",
    "<p a = 'b' c=\"\">",
    "<A HREF=X ONCLICK=go()>",
    "<a title='x&amp;y' data-q=a&lt;b>",
    "<p\xa0class=x>",
    "<a b==c>",
    "<a b=c\"d>",
    '<a b="x"c="y">',
    "<a title='<b>'>",
    "<a\vb>",
    "<a:b>",
    "<a \xfc=1>",
    "</script >",
    "</SCRIPT>",
    "</p class=x>",
    "</ x>",
    "</>",
    "<!-- a -- b -->",
    "<!-->",
    "<!--->",
    "<!-- x --->",
    "<!---x-->",
    "<!-- -- >-->",
    "<!x>",
    "<!DOCTYPE html>",
    "<!doctype <x>",
    "<?pi x?>",
    "<![CDATA[x]]>",
    "a < b",
    "a <",
    "<",
    "&",
    "&amp",
    "&#",
    "&#x41",
    "x &notin; y",
    "<script><!--<script></script>x</script>",
    "<script>a</script\n>",
    "<script>a</scriptx></script>",
    "<script></ script></script>",
    "<SCRIPT>if (a<b) x = '</div>';</SCRIPT>",
    "<style><!-- x --></style>",
    "<style>a</style >",
    "<style>p{}</STYLE>",
    "<script/>",
    "<style/>",
    "<iframe src=x/>",
    "<title>t</title>",
    "<title>t</TITLE>",
    "<title>t</title >",
    "<title>a &amp; b</title>",
    "<textarea><b>x</b></textarea>",
    "<xmp><p></xmp>",
    "<iframe>x<y</iframe>",
    "<noscript>&lt;</noscript>",
    "<noembed>a</noembed>",
    "<noframes>b</noframes>",
    "<plaintext>",
    "<div",
    "<a href='x",
    "<title>x",
    "<script>x",
    "\r\n",
    "\x00",
    "\x85",
]


@st.composite
def documents(draw):
    """The oracle's elements with up to two near-misses among them: few
    enough that the scanner still accepts many documents."""
    parts = draw(st.lists(elements, max_size=20))
    for near_miss in draw(st.lists(st.sampled_from(NEAR_MISSES), max_size=2)):
        parts.insert(draw(st.integers(0, len(parts))), near_miss)
    return parts


def parser_index(text: str, body_bytes: int) -> pagemodel.HtmlIndex:
    """The index built from html.parser's tokens."""
    builder = pagemodel._IndexBuilder(text, ROOT_URL, body_bytes)
    parser = pagemodel._ParserDriver(builder, text)
    parser.feed(text)
    parser.close()
    return builder.index("utf-8")


def scanner_index(text: str, body_bytes: int) -> pagemodel.HtmlIndex | None:
    """The index built from the strict scanner's tokens, or None when it
    rejects the document."""
    builder = pagemodel._IndexBuilder(text, ROOT_URL, body_bytes)
    return builder.index("utf-8") if pagemodel._scan(text, builder) else None


# One document per class of markup the scanner rejects, each pinned as
# falling back; then near-misses pinned with what the scanner does with them.
@example(["<?xml version='1.0'?><p>x</p>"], False, False)
@example(["<p><![CDATA[x]]></p>"], False, False)
@example(["<p>a < b</p>"], False, False)
@example(["<p>x</ p>"], False, False)
@example(["<p>x</p class=y>"], False, False)
@example(["<!x><p>x</p>"], False, False)
@example(["<plaintext><p>x</p>"], False, False)
@example(["<title>a &amp; b</title>"], False, False)
@example(["<textarea><b>x</b></textarea>"], False, False)
@example(["<xmp><p>x</p></xmp>"], False, False)
@example(["<iframe src='f.html'>a &lt; b</iframe>"], False, False)
@example(["<noembed><img src='a.png'></noembed>"], False, False)
@example(["<noframes>&copy;</noframes>"], False, False)
@example(["<noscript><img src='a.png'></noscript>"], False, False)
@example(["<script/><p>x</p>"], False, False)
@example(["<p>x</p><!--"], False, False)
@example(["<p>x</p><div"], False, False)
@example(["<p>x</p><!doctype html"], False, False)
@example(["<script>unclosed("], False, False)
@example(["<title>x"], False, False)
@example(["<p>a\x00b</p>"], False, False)
@example(["<a href=x/>"], False, True)
@example(["<p\xa0class=x>"], False, False)
@example(["<a b==c>"], False, False)
@example(["<script>x</script >"], False, False)
@example(["<script>x</ script></script>"], False, False)
@example(["<!-- a -- b -->"], False, False)
@example(["<!-->"], False, False)
@example(["<script><!--<script></script>x</script>"], False, False)
@given(documents(), st.booleans(), st.none())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scanner_index_equals_html_parser_index(parts, wrap, scanned):
    """The number of examples comes from the settings profile, so CI can rerun
    this with the html-equivalence profile of conftest.py."""
    if wrap:
        parts = ["<!doctype html><html><head></head><body>"] + parts + ["</body></html>"]
    text = "".join(parts)
    body = text.encode("utf-8")
    reference = parser_index(text, len(body))
    index = scanner_index(text, len(body))
    event("scanned" if index is not None else "fell back")
    if index is not None:
        assert index == reference
    if scanned is not None:
        assert (index is not None) == scanned
    pagemodel.html_index.cache_clear()
    assert pagemodel.html_index(body, ROOT_URL) == reference


def _roots(pages):
    """(text, root URL, body length) of every page's root and of its root
    under each built-in solution."""
    for page in pages:
        variants = [apply_transform(TransformSpec(name=name), page).page for name in SOLUTIONS]
        for each in (page, *variants):
            body = each.root_exchange().body
            if body:
                yield pagemodel.decode_body(body)[0], each.root_url, len(body)


def _rejected(pages):
    """The root URLs whose text the scanner rejects."""
    return [
        url for text, url, size in _roots(pages)
        if not pagemodel._scan(text, pagemodel._IndexBuilder(text, url, size))
    ]


def test_every_fixture_root_takes_the_scanner(fixtures200):
    assert _rejected(fixtures200.pages.values()) == []


def test_every_wide_page_root_takes_the_scanner(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing into perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_widepages", PERFBENCH / "widepages.py")
    widepages = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, widepages)  # its dataclass looks itself up there
    spec.loader.exec_module(widepages)
    pages = [widepages.build_wide_page(index, seed, tags).page
             for seed in (1, 2) for index, tags in enumerate(widepages.TAG_COUNTS)]
    assert _rejected(pages) == []


# --- js-strip's cleaned start tags, tokenized again ------------------------------


class _StartTags:
    """The start tags the strict scanner reports: (name, attributes, "/>")."""

    def __init__(self):
        self.tags = []

    def start(self, tag, attrs, offset, raw, closed):
        self.tags.append((tag, attrs, closed))

    def end(self, tag, offset):
        pass

    def data(self, data, offset):
        pass


class _ParserStartTags(HTMLParser):
    """The start tags html.parser reports, as _StartTags records them."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.tags = []

    def handle_starttag(self, tag, attrs):
        self.tags.append((tag, attrs, False))

    def handle_startendtag(self, tag, attrs):
        self.tags.append((tag, attrs, True))


def start_tags(text):
    """A document's start tags: the scanner's where it accepts the whole
    text, else html.parser's."""
    scanned = _StartTags()
    if pagemodel._scan(text, scanned):
        return scanned.tags
    parser = _ParserStartTags()
    parser.feed(text)
    parser.close()
    return parser.tags


_SEPARATORS = st.sampled_from([" ", "  ", "\n", "\t", "\f", "/", " / ", "", "\v", "\xa0"])
_ATTR_NAMES = st.sampled_from([
    "onclick", "ONLOAD", "OnClick", "on-click", "onx", "one",  # handlers
    "on", "ON", "o", "title", "id", "data-on", "x:y", "\xfcber",
])
_VALUE_TEXTS = st.sampled_from(["", "go()", "a onclick=go()", " onclick=go() ", "x>y", "a/b", "&amp;", "<b>"])
_VALUES = st.one_of(
    st.just(""),
    st.builds("{}{}".format, st.sampled_from(["=", " = ", "\n=", "=="]), st.sampled_from(["go()", "x/", "a", "&lt;", "y=1"])),
    st.builds('{}"{}"'.format, st.sampled_from(["=", " = "]), _VALUE_TEXTS),
    st.builds("{}'{}'".format, st.sampled_from(["=", " = "]), _VALUE_TEXTS),
)
_START_TAGS = st.builds(
    "<{}{}{}".format,
    st.sampled_from(["div", "p", "a", "button", "img", "br", "input", "span", "DIV", "Body"]),
    st.lists(st.builds("{}{}{}".format, _SEPARATORS, _ATTR_NAMES, _VALUES), max_size=5).map("".join),
    st.sampled_from([">", "/>", " />", " >", "/ >"]),
)


@example(['<body ONLOAD="init()">'])
@example(['<div OnClick="go()">x</div>'])
@example(['<div on-click="go()">'])
@example(["<div onclick>"])
@example(['<div title="a onclick=go()">x</div>'])
@example(["<img src=a.png onclick=\"go()\"/>", "<img alt=x onclick=go()/>"])
@example(['<p id="x"onclick="go()"title="y">'])
@given(st.lists(_START_TAGS, min_size=1, max_size=4))
@settings(deadline=None)
def test_js_strip_drops_exactly_the_handler_attributes(tags):
    """Tokenized again, js-strip's root has every start tag of the original
    with the same attributes in the same order, handlers left out. The
    number of examples comes from the settings profile, as above."""
    text = "x".join(tags)
    page = page_from_parts(text)
    stripped = apply_transform(TransformSpec(name="js-strip"), page).page.root_exchange().body
    expected = [
        (tag, [(name, value) for name, value in attrs if not (len(name) > 2 and name[:2] == "on")], closed)
        for tag, attrs, closed in start_tags(text)
    ]
    assert start_tags(stripped.decode("utf-8")) == expected
