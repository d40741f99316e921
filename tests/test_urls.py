"""normalize_url's and loadsim._host_of's urllib-free fast paths give what
urllib gives, and every fixture and benchmark page takes them."""

import importlib.util
import sys
from pathlib import Path
from urllib.parse import urlsplit

from hypothesis import HealthCheck, example, given, settings, strategies as st

from wasef import archive, loadsim, pagemodel
from wasef.archive import CANONICAL_URL_RE, _normalize_url, load_page, normalize_url
from wasef.errors import MalformedUrl
from wasef.fixtures import make_fixtures
from wasef.loadsim import DEVICE_PROFILES, NETWORK_PROFILES, _host_of, simulate_load
from wasef.pagemodel import KIND_SCRIPT_INLINE, parse_page
from wasef.transform import TransformSpec, apply_transform

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIVE_SOLUTIONS = ["identity", "js-strip", "js-block-thirdparty", "js-dce", "img-downscale"]

# Pieces of each part of a URL: canonical ones first, then near misses.
# Hostile pieces that move urlsplit's or urljoin's boundaries, or that
# strip() and urlsplit remove, are spliced in anywhere.
_SCHEMES = (["http://", "https://"], ["HTTP://", "Https://", "ftp://", "//", "http:/", "http:", ""])
_HOSTS = (["h", "a.test", "site-001.fixture.test", "0", "x.", "a..b"], ["-a", "H", "", "h:80", "h:443", "u@h", "[::1]"])
_SEGMENTS = (["a", "css", "s1.css", "A~_-b", ".a", "..a", "a.", "..."], [".", "..", "", "%2e", "a;p", "a:b"])
_QUERIES = (["x=1", "a&b", "q/r", "!$'()*+,"], ["", "?", "x#y", "a b"])
_HOSTILE = list("#%;:@\\[]?/. \t\n\r\x00\x0b\x1f\x7f\u3000\xa0é") + ["%2e", "%2e%2e", "%2F", "80", "::1", "//"]


def _one_in(draw, n):
    """True about once in n draws; False shrinks toward the canonical."""
    return draw(st.integers(1, n)) == n


def _piece(draw, pieces):
    canonical, near_misses = pieces
    return draw(st.sampled_from(near_misses if _one_in(draw, 4) else canonical))


@st.composite
def urls(draw, relative: bool):
    """Mostly canonical URLs, or root-relative or relative references when
    ``relative``, some with one or two hostile pieces spliced in; one in
    eight is any text at all."""
    if _one_in(draw, 8):
        return draw(st.text(max_size=12))
    segments = [_piece(draw, _SEGMENTS) for _ in range(draw(st.integers(0, 3)))]
    path = "" if _one_in(draw, 8) else "/" + "/".join(segments)
    query = _piece(draw, _QUERIES) if _one_in(draw, 3) else None
    tail = path + ("" if query is None else "?" + query)
    if relative and draw(st.booleans()):
        text = tail.lstrip("/") if _one_in(draw, 4) else tail
    else:
        text = _piece(draw, _SCHEMES) + _piece(draw, _HOSTS) + tail
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_HOSTILE)) + text[at:]
    return text


def outcome(fn, *args):
    """What a call returns, or the type and arguments of what it raises."""
    try:
        return fn(*args)
    except (MalformedUrl, TypeError, ValueError) as exc:
        return type(exc), exc.args


# One pinned case at each edge of the canonical set, on both sides of it.
@example("/css/s1.css", "http://site-001.fixture.test/index.html")
@example("http://cdn.widepages.test/t/wide-0.bench.test/3.js", "https://h/index.html")
@example("/", "http://h/a")
@example("/a/", "http://h")
@example("/.", "http://h/a")
@example("/..", "http://h/a")
@example("/a/..", "http://h/a")
@example("/a/./b", "http://h/a")
@example("/..?x", "http://h/a")
@example("/.a/..b/c.", "http://h/a")
@example("//x/y", "http://h/a")
@example("/a?", "http://h/a")
@example("http://h/a?", None)
@example("/a//b", "http://h/a")
@example("HTTP://h/a", None)
@example("http://H/a", None)
@example("http://h:80/a", None)
@example("http://u@h/a", None)
@example("/a#f", "http://h/a")
@example("http://h/a#f", None)
@example("/a ", "http://h/a")
@example(" /a", "http://h/a")
@example("/%2e%2e", "http://h/a")
@example("/a;p", "http://h/a")
@example("/a\t", "http://h/a")
@example("/a\tb", "http://h/a")
@example("/\x01a", "http://h/a")
@example("/é", "http://h/a")
@example("/a\\b", "http://h/a")
@example("/a[b]", "http://h/a")
@example("/a", "HTTP://H/a")
@example("/a", "http://h:80/a")
@example("/a", "http://h/a#f")
@example("/a", "")
@example("http://h/a", "http://[::1/a")
@example("http://h/a", b"http://h/a")
@example(b"http://h/a", None)
@example("a/b", "http://h/c/d")
@given(urls(relative=True), st.none() | urls(relative=False))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_normalize_url_equals_the_urllib_path(raw, base):
    """The number of examples comes from the settings profile, so CI can rerun
    this with the url-equivalence profile of conftest.py."""
    assert outcome(normalize_url, raw, base) == outcome(_normalize_url, raw, base)


@example("http://h/a")
@example("https://site-001.fixture.test/css/s1.css?v=1")
@example("http://h:8080/a")
@example("http://u@h/a")
@example("HTTP://H/a")
@example("http://[::1]/a")
@example("http://[::1/a")
@example("/a")
@example("")
@given(urls(relative=True))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_host_of_equals_the_urlsplit_netloc(url):
    assert outcome(_host_of, url) == outcome(lambda u: urlsplit(u).netloc or "local", url)


def _wide_pages(monkeypatch):
    """The benchmark's four wide pages, from perfbench/widepages.py, which is
    imported without writing anything into perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_widepages", PERFBENCH / "widepages.py")
    widepages = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, widepages)  # its dataclass looks itself up there
    spec.loader.exec_module(widepages)
    return [widepages.build_wide_page(k, 1, tags).page for k, tags in enumerate(widepages.TAG_COUNTS)]


def test_fixture_and_benchmark_pages_take_both_fast_paths(fixtures200, tmp_path, monkeypatch):
    """Seed 11's 200 fixture pages come from the session fixture, seed 1's
    are made here, while fallbacks are counted."""
    calls = {"normalize_url": 0, "_normalize_url": 0, "urlsplit": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pagemodel, "normalize_url", counted("normalize_url", normalize_url))
    monkeypatch.setattr(archive, "_normalize_url", counted("_normalize_url", _normalize_url))
    monkeypatch.setattr(loadsim, "urlsplit", counted("urlsplit", urlsplit))
    pagemodel.html_index.cache_clear()
    pagemodel._resolve_url.cache_clear()
    _host_of.cache_clear()
    net, dev = NETWORK_PROFILES["3g"], DEVICE_PROFILES["lowend"]

    corpus = make_fixtures(tmp_path, 200, seed=1)
    pages = [load_page(page_id, tmp_path) for page_id in corpus.pages]
    pages += list(fixtures200.pages.values()) + _wide_pages(monkeypatch)
    fetched = set()
    for page in pages:
        for name in FIVE_SOLUTIONS:
            graph = parse_page(apply_transform(TransformSpec(name=name), page).page)
            simulate_load(graph, net, dev)
            fetched.update(res.url for res in graph.resources if res.kind != KIND_SCRIPT_INLINE)

    assert calls["normalize_url"] > 2_000  # each distinct (URL, root) resolved afresh
    assert calls["_normalize_url"] == 0
    assert calls["urlsplit"] == 0
    assert _host_of.cache_info().misses >= len(fetched) > 2_000
    assert all(CANONICAL_URL_RE.fullmatch(url) for url in fetched)
