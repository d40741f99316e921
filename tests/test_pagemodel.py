import copy
import multiprocessing
import os
import re

import pytest

from wasef import pagemodel
from wasef.archive import load_page
from wasef.errors import EmptyDocument
from wasef.experiment import config_from_dict, run_experiment
from wasef.fixtures import make_fixtures
from wasef.loadsim import DEVICE_PROFILES, NETWORK_PROFILES, simulate_load
from wasef.pagemodel import (
    KIND_IFRAME,
    KIND_IMAGE,
    KIND_SCRIPT_ASYNC,
    KIND_SCRIPT_DEFER,
    KIND_SCRIPT_INLINE,
    KIND_SCRIPT_SYNC,
    KIND_STYLESHEET,
    _resolve_url,
    html_index,
    parse_page,
)
from wasef.transform import TransformSpec, apply_transform

from conftest import page_from_parts


def test_image_and_text_extraction():
    page = page_from_parts(
        '<html><head></head><body><img src="a.png">hello world</body></html>',
        assets=[("/a.png", "image/png", b"\x00" * 80000)],
    )
    graph = parse_page(page)
    images = [r for r in graph.resources if r.kind == KIND_IMAGE]
    assert len(images) == 1
    assert images[0].bytes == 80000
    assert images[0].url == "http://site.test/a.png"
    assert len(graph.text_blocks) == 1
    assert graph.text_blocks[0].char_count == 11


def test_script_attribute_kinds():
    page = page_from_parts(
        '<html><body>'
        '<script src="x.js" defer></script>'
        '<script src="y.js" async></script>'
        '<script src="z.js"></script>'
        '<script>var inline = 1;</script>'
        "</body></html>",
        assets=[
            ("/x.js", "application/javascript", b"x"),
            ("/y.js", "application/javascript", b"y"),
            ("/z.js", "application/javascript", b"z"),
        ],
    )
    graph = parse_page(page)
    kinds = {r.url.rsplit("/", 1)[-1]: r for r in graph.sub_resources() if r.kind != KIND_SCRIPT_INLINE}
    assert kinds["x.js"].kind == KIND_SCRIPT_DEFER
    assert kinds["x.js"].render_blocking is False
    assert kinds["y.js"].kind == KIND_SCRIPT_ASYNC
    assert kinds["z.js"].kind == KIND_SCRIPT_SYNC
    assert kinds["z.js"].render_blocking is True
    inline = [r for r in graph.sub_resources() if r.kind == KIND_SCRIPT_INLINE]
    assert len(inline) == 1
    assert inline[0].bytes == len("var inline = 1;")


def test_missing_resource_flagged():
    html = (
        '<html><body><img src="a.png"><link rel="stylesheet" href="s.css">'
        '<img src="gone.png"></body></html>'
    )
    page = page_from_parts(
        html,
        assets=[("/a.png", "image/png", b"123"), ("/s.css", "text/css", b"b{}")],
    )
    graph = parse_page(page)
    # Independent oracle: count src/href references in the raw fixture text.
    referenced = len(re.findall(r'(?:src|href)="[^"]+"', html))
    subs = graph.sub_resources()
    assert len(subs) == referenced == 3
    missing = [r for r in subs if r.missing]
    assert len(missing) == 1
    assert missing[0].bytes == 0
    assert missing[0].url.endswith("gone.png")


def test_visual_weights_arithmetic():
    page = page_from_parts(
        f'<html><body><img src="a.png">{"t" * 100}</body></html>',
        assets=[("/a.png", "image/png", b"\x00" * 80000)],
    )
    graph = parse_page(page)
    weights = [res.visual_weight for res in graph.resources] + [block.weight for block in graph.text_blocks]
    assert sorted(weights) == [0.0, 5000.0, 80000.0]
    assert graph.total_visual_weight == 85000.0
    assert graph.zero_visual is False


def test_zero_visual_flag():
    page = page_from_parts("<html><head><title>t</title></head><body><script>var x=1;</script></body></html>")
    graph = parse_page(page)
    assert graph.zero_visual is True
    assert graph.total_visual_weight == 0.0


def test_two_equal_images_equal_weights():
    page = page_from_parts(
        '<html><body><img src="a.png"><img src="b.png"></body></html>',
        assets=[("/a.png", "image/png", b"\x01" * 500), ("/b.png", "image/png", b"\x02" * 500)],
    )
    graph = parse_page(page)
    images = [r for r in graph.resources if r.kind == KIND_IMAGE]
    assert images[0].visual_weight == images[1].visual_weight == 500.0


def test_deterministic_parse():
    page = page_from_parts(
        '<html><body><img src="a.png">words here<script>f()</script></body></html>',
        assets=[("/a.png", "image/png", b"\x00" * 10)],
    )
    assert parse_page(page) == parse_page(page)


def test_discovery_indices_strictly_increase():
    page = page_from_parts(
        '<html><body>alpha<img src="a.png">beta<script src="s.js"></script>gamma</body></html>',
        assets=[("/a.png", "image/png", b"1"), ("/s.js", "application/javascript", b"2")],
    )
    graph = parse_page(page)
    indices = [r.discovery_index for r in graph.resources]
    assert indices == sorted(indices) and len(set(indices)) == len(indices)
    all_indices = indices + [b.discovery_index for b in graph.text_blocks]
    assert len(set(all_indices)) == len(all_indices)


def test_urls_absolute_and_normalized():
    page = page_from_parts(
        '<html><body><img src="IMG/../pic.png"><iframe src="//Other.TEST/f.html"></iframe></body></html>'
    )
    graph = parse_page(page)
    urls = [r.url for r in graph.sub_resources()]
    assert "http://site.test/pic.png" in urls
    assert "http://other.test/f.html" in urls
    iframe = [r for r in graph.sub_resources() if r.kind == KIND_IFRAME]
    assert len(iframe) == 1


def test_latin1_fallback_never_errors():
    body = b"<html><body>caf\xe9 society</body></html>"  # invalid UTF-8
    page = page_from_parts("placeholder")
    root_key = ("GET", page.root_url)
    page.exchanges[root_key].body = body
    graph = parse_page(page)
    assert graph.text_blocks[0].text == "caf\xe9 society"


def test_empty_document_raises():
    page = page_from_parts("x")
    page.exchanges[("GET", page.root_url)].body = b""
    with pytest.raises(EmptyDocument):
        parse_page(page)


def test_unclosed_tags_tolerated():
    page = page_from_parts("<html><body><p>open paragraph<div>and a div<img src='a.png'>")
    graph = parse_page(page)
    assert len([r for r in graph.sub_resources() if r.kind == KIND_IMAGE]) == 1


def test_injection_flag():
    page = page_from_parts(
        "<html><body><script>var s = document.createElement('script');</script>text</body></html>"
    )
    assert parse_page(page).maybe_undercounted is True
    plain = page_from_parts("<html><body><script>var x = 1;</script>text</body></html>")
    assert parse_page(plain).maybe_undercounted is False
    injecting = ("/a.js", "application/javascript", b"var i = new Image(); i.src = 'b.png';")
    external = page_from_parts('<html><body><script src="a.js"></script>text</body></html>', [injecting])
    assert parse_page(external).maybe_undercounted is True
    unreferenced = page_from_parts("<html><body><script>var x = 1;</script>text</body></html>", [injecting])
    assert parse_page(unreferenced).maybe_undercounted is True


def test_parse_and_simulate_leave_script_values_uncomputed():
    page = page_from_parts(
        '<html><body><script src="a.js"></script><script>var s = new Image();</script>text</body></html>',
        assets=[("/a.js", "application/javascript", b"function f() {}")],
    )
    graph = parse_page(page)
    simulate_load(graph, NETWORK_PROFILES["3g"], DEVICE_PROFILES["lowend"])
    assert "script_texts" not in vars(graph) and "maybe_undercounted" not in vars(graph)
    assert graph.script_texts == ("function f() {}",) and graph.maybe_undercounted is True


def test_request_count_dedupes_urls():
    page = page_from_parts(
        '<html><body><img src="a.png"><img src="a.png"><script>x()</script>'
        '<link rel="stylesheet" href="s.css"></body></html>',
        assets=[("/a.png", "image/png", b"1"), ("/s.css", "text/css", b"2")],
    )
    graph = parse_page(page)
    # 1 root + a.png + s.css; the duplicate image and the inline script do not count.
    metrics = simulate_load(graph, NETWORK_PROFILES["3g"], DEVICE_PROFILES["lowend"])
    assert metrics.request_count == 3


def test_stylesheet_requires_rel():
    page = page_from_parts(
        '<html><head><link rel="icon" href="i.ico"><link rel="stylesheet" href="s.css"></head>'
        "<body>x</body></html>"
    )
    graph = parse_page(page)
    sheets = [r for r in graph.sub_resources() if r.kind == KIND_STYLESHEET]
    assert len(sheets) == 1 and sheets[0].url.endswith("s.css")


def test_head_text_is_not_visible():
    page = page_from_parts("<html><head><title>secret title</title></head><body>shown</body></html>")
    graph = parse_page(page)
    assert [b.text for b in graph.text_blocks] == ["shown"]


class TestInteractiveElements:
    def test_link_identity_is_normalized_href(self):
        page = page_from_parts('<html><body><a href="Sub/Page.html">go</a></body></html>')
        graph = parse_page(page)
        links = [e for e in graph.interactive_elements if e.kind == "link"]
        assert links[0].identity_key == "link:http://site.test/Sub/Page.html"

    def test_button_with_handler(self):
        page = page_from_parts(
            '<html><body><button name="save" onclick="doSave(event)">s</button></body></html>'
        )
        el = parse_page(page).interactive_elements[0]
        assert el.kind == "button"
        assert el.identity_key == "button:save"
        assert el.handler_fn_names == frozenset({"doSave"})

    def test_handler_element_kind(self):
        page = page_from_parts('<html><body><div onclick="pop()">x</div></body></html>')
        el = parse_page(page).interactive_elements[0]
        assert el.kind == "handler_element"
        assert el.handler_fn_names == frozenset({"pop"})

    def test_form_and_input(self):
        page = page_from_parts(
            '<html><body><form name="f"><input name="q" type="text"></form></body></html>'
        )
        kinds = {e.kind for e in parse_page(page).interactive_elements}
        assert kinds == {"form", "input"}

    def test_identity_deterministic_for_equal_markup(self):
        page = page_from_parts('<html><body><button onclick="go()">x</button></body></html>')
        a = parse_page(page).interactive_elements[0].identity_key
        b = parse_page(page).interactive_elements[0].identity_key
        assert a == b and a.startswith("button:handler:")


class SharedCount:
    """A list-like count of appends that forked processes share: len() is
    the number of append() calls made in this process or in any child it
    forked after the count was made."""

    def __init__(self):
        self._value = multiprocessing.get_context("fork").Value("q", 0)

    def append(self, _item):
        with self._value.get_lock():
            self._value.value += 1

    def clear(self):
        with self._value.get_lock():
            self._value.value = 0

    def __len__(self):
        return self._value.value


class TestIndexCache:
    """parse_page binds a cached HtmlIndex; graphs share only its immutable
    text blocks and interactive elements, and each binds its own page's
    sizes."""

    def test_mutating_one_graph_leaves_the_next_untouched(self):
        page = page_from_parts(
            '<html><body><img src="a.png">some text<a href="b.html">more</a><script>go()</script></body></html>',
            assets=[("/a.png", "image/png", b"\x00" * 300)],
        )
        first = parse_page(page)
        expected = copy.deepcopy(first)
        for res in first.resources:
            res.bytes, res.doc_offset, res.missing, res.inline_text = 1, 9.0, True, "x"
        for block in first.text_blocks:
            with pytest.raises(AttributeError):
                block.char_count = 1
        for element in first.interactive_elements:
            with pytest.raises(AttributeError):
                element.identity_key = "changed"
        first.resources.append(first.resources[1])
        first.text_blocks.clear()
        first.interactive_elements.clear()
        first.tag_histogram["img"] = 99
        assert parse_page(page) == expected

    def test_same_root_binds_each_pages_own_bodies(self):
        html = '<html><body><img src="a.png"><img src="b.png">text</body></html>'
        page = page_from_parts(
            html,
            assets=[("/a.png", "image/png", b"\x00" * 800), ("/b.png", "image/png", b"\x01" * 400)],
        )
        thinner = page_from_parts(html, assets=[("/a.png", "image/png", b"\x00" * 100)])

        def sizes(graph):
            return [(r.bytes, r.missing, r.visual_weight) for r in graph.sub_resources()]

        assert sizes(parse_page(page)) == [(800, False, 800.0), (400, False, 400.0)]
        assert sizes(parse_page(thinner)) == [(100, False, 100.0), (0, True, 0.0)]
        assert sizes(parse_page(page)) == [(800, False, 800.0), (400, False, 400.0)]

    def test_a_second_root_resolves_shared_urls_through_the_memo_alike(self):
        markup = (
            '<img src="http://[bad/x.png"><img src="ok.png">'
            '<a href="http://[bad/y">y</a><a href="Sub/Page.html">p</a>'
        )
        first = page_from_parts(f"<html><body>{markup}first</body></html>")
        second = page_from_parts(f"<html><body>{markup}second root</body></html>")
        html_index.cache_clear()
        _resolve_url.cache_clear()
        graphs = [parse_page(first), parse_page(second)]
        info = _resolve_url.cache_info()
        assert (info.misses, info.hits) == (4, 4)  # the second root resolves nothing anew
        for graph in graphs:
            assert [(r.url, r.kind) for r in graph.sub_resources()] == [("http://site.test/ok.png", KIND_IMAGE)]
            assert [e.identity_key for e in graph.interactive_elements] == [
                "link:http://[bad/y",
                "link:http://site.test/Sub/Page.html",
            ]
        assert graphs[0].resources[1:] == graphs[1].resources[1:]
        assert graphs[0].interactive_elements == graphs[1].interactive_elements

    def test_one_tokenizer_feed_per_distinct_root_per_run(self, tmp_path, monkeypatch):
        archive = tmp_path / "archive"
        corpus = make_fixtures(archive, 20, seed=5)
        solutions = ["identity", "js-strip", "js-block-thirdparty", "js-dce", "img-downscale"]
        roots = set()
        for page_id in corpus.pages:
            page = load_page(page_id, archive)
            roots.add((page.root_exchange().body, page.root_url))
            for name in solutions:
                variant = apply_transform(TransformSpec(name=name), page).page
                roots.add((variant.root_exchange().body, variant.root_url))

        # _tokenize is the one entry both tokenizers, the strict scanner and
        # html.parser, are reached through.
        feeds = SharedCount()  # run_experiment parses in forked workers
        original_tokenize = pagemodel._tokenize

        def counting_tokenize(text, root_url, body_bytes):
            feeds.append(len(text))
            return original_tokenize(text, root_url, body_bytes)

        monkeypatch.setattr(pagemodel, "_tokenize", counting_tokenize)
        config = config_from_dict(
            {
                "archive_dir": str(archive),
                "out_dir": str(tmp_path / "out"),
                "corpus": "fixtures",
                "solutions": solutions,
            }
        )
        assert run_experiment(config).exit_code == 0
        assert len(feeds) == len(roots) < 20 * len(solutions)
        assert run_experiment(config).exit_code == 0
        assert len(feeds) == 2 * len(roots)

        # Two pages' roots all fit in the cache at once, so a second run over
        # them parses again only because each run starts with an empty cache.
        # Forked workers start afresh each run, so run in this process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        feeds.clear()
        config.corpus.pages = corpus.pages[:2]
        run_experiment(config)
        first_run = len(feeds)
        run_experiment(config)
        assert len(feeds) == 2 * first_run > 0
