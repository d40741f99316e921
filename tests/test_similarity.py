import math

import pytest

from wasef.pagemodel import parse_page
from wasef.similarity import (
    functional_similarity_graphs,
    histogram_cosine,
    multiset_jaccard,
    score_graphs,
    structural_similarity,
)
from wasef.transform import TransformSpec, apply_transform

from conftest import page_from_parts


def functional(page, variant):
    return functional_similarity_graphs(parse_page(page), parse_page(variant))


def graphs(original_html, variant_html, assets=()):
    return (
        parse_page(page_from_parts(original_html, assets)),
        parse_page(page_from_parts(variant_html, assets)),
    )


def test_identical_pages_score_one():
    html = '<html><body><p>alpha beta</p><img src="a.png"><a href="/x">l</a></body></html>'
    g1, g2 = graphs(html, html, assets=[("/a.png", "image/png", b"12")])
    scores = structural_similarity(g1, g2)
    assert scores.structural == 1.0
    assert scores.components == (1.0, 1.0, 1.0)


def test_all_images_removed_hand_computed():
    # Original body tags: p, p, img, img, a. Variant drops both img tags.
    # Histogram cosine by hand: a=(p:2, img:2, a:1), b=(p:2, a:1)
    # dot = 4 + 1 = 5; |a| = 3; |b| = sqrt(5); cos = 5 / (3*sqrt(5)).
    original = (
        '<html><body><p>one two</p><p>three</p><img src="a.png"><img src="b.png">'
        '<a href="/x">go</a></body></html>'
    )
    variant = '<html><body><p>one two</p><p>three</p><a href="/x">go</a></body></html>'
    g1, g2 = graphs(original, variant, assets=[("/a.png", "image/png", b"1"), ("/b.png", "image/png", b"2")])
    scores = structural_similarity(g1, g2)
    expected_cos = 5 / (3 * math.sqrt(5))
    assert scores.text_sim == 1.0
    assert scores.image_sim == 0.0
    assert scores.element_sim == pytest.approx(expected_cos, abs=1e-12)
    assert scores.structural == pytest.approx(0.5 * 1.0 + 0.3 * 0.0 + 0.2 * expected_cos, abs=1e-12)


def test_empty_variant_scores_zero():
    original = '<html><body><p>words</p><img src="a.png"></body></html>'
    g1, g2 = graphs(original, "<html><body> </body></html>", assets=[("/a.png", "image/png", b"1")])
    scores = structural_similarity(g1, g2)
    assert scores.structural == 0.0
    assert scores.components == (0.0, 0.0, 0.0)


def test_structural_weighted_sum_invariant():
    g1, g2 = graphs(
        '<html><body><p>a b c</p><img src="x.png"></body></html>',
        '<html><body><p>a b</p></body></html>',
    )
    scores = structural_similarity(g1, g2)
    assert scores.structural == pytest.approx(
        0.5 * scores.text_sim + 0.3 * scores.image_sim + 0.2 * scores.element_sim, abs=1e-12
    )


def test_component_symmetry():
    g1, g2 = graphs(
        '<html><body><p>a b c d</p><img src="x.png"><img src="y.png"></body></html>',
        '<html><body><p>a b q</p><img src="x.png"></body></html>',
    )
    forward = structural_similarity(g1, g2)
    backward = structural_similarity(g2, g1)
    assert forward.text_sim == backward.text_sim
    assert forward.image_sim == backward.image_sim


def test_pure_deletion_monotonicity():
    original = '<html><body><p>a b c d e</p><img src="x.png"><img src="y.png"></body></html>'
    keep_more = '<html><body><p>a b c</p><img src="x.png"></body></html>'
    keep_less = '<html><body><p>a b</p></body></html>'
    g0, g1 = graphs(original, keep_more)
    _, g2 = graphs(original, keep_less)
    s1 = structural_similarity(g0, g1)
    s2 = structural_similarity(g0, g2)
    assert s2.text_sim <= s1.text_sim
    assert s2.image_sim <= s1.image_sim


def test_multiset_jaccard_counts_repeats():
    from collections import Counter

    a = Counter({"x": 2, "y": 1})
    b = Counter({"x": 1, "y": 1})
    # min-sum 2, max-sum 3.
    assert multiset_jaccard(a, b) == pytest.approx(2 / 3)
    assert multiset_jaccard(Counter(), Counter()) == 1.0


def test_histogram_cosine_degenerate_cases():
    assert histogram_cosine({}, {}) == 1.0
    assert histogram_cosine({"p": 1}, {}) == 0.0


class TestFunctional:
    def test_identity_preserves_everything(self):
        page = page_from_parts(
            '<html><body><a href="/x">l</a><button name="b" onclick="go()">p</button>'
            '<script src="a.js"></script></body></html>',
            assets=[("/a.js", "application/javascript", b"function go(){return 1;}")],
        )
        variant = apply_transform(TransformSpec(name="identity"), page)
        assert functional(page, variant.page) == 1.0

    def test_js_strip_keeps_plain_links(self):
        page = page_from_parts(
            '<html><body><a href="/a">1</a><a href="/b">2</a><a href="/c">3</a>'
            '<a href="/d">4</a></body></html>'
        )
        variant = apply_transform(TransformSpec(name="js-strip"), page)
        assert functional(page, variant.page) == 1.0

    def test_js_strip_halves_mixed_interactivity(self):
        # 2 plain links survive; 2 onclick buttons lose their handlers.
        page = page_from_parts(
            '<html><body><a href="/a">1</a><a href="/b">2</a>'
            '<button name="b1" onclick="go()">x</button>'
            '<button name="b2" onclick="stop()">y</button>'
            '<script src="a.js"></script></body></html>',
            assets=[(
                "/a.js",
                "application/javascript",
                b"function go(){return 1;}\nfunction stop(){return 2;}",
            )],
        )
        variant = apply_transform(TransformSpec(name="js-strip"), page)
        assert functional(page, variant.page) == 0.5

    def test_js_dce_of_unrelated_function_preserves_functionality(self):
        page = page_from_parts(
            '<html><body><button name="b" onclick="go()">x</button>'
            '<script src="a.js"></script></body></html>',
            assets=[(
                "/a.js",
                "application/javascript",
                b"function go(){return 1;}\nfunction neverCalled(){return 2;}",
            )],
        )
        variant = apply_transform(TransformSpec(name="js-dce"), page)
        # Oracle: the deleted name was not any handler; handler still defined.
        retained = variant.page.lookup("http://site.test/a.js").body.decode()
        assert "function go()" in retained and "neverCalled" not in retained
        assert functional(page, variant.page) == 1.0

    def test_no_interactive_elements_scores_one(self):
        page = page_from_parts("<html><body><p>static only</p></body></html>")
        variant = apply_transform(TransformSpec(name="js-strip"), page)
        assert functional(page, variant.page) == 1.0

    def test_handler_defined_by_assignment(self):
        page = page_from_parts(
            '<html><body><button name="b" onclick="go()">x</button>'
            '<script src="a.js"></script></body></html>',
            assets=[("/a.js", "application/javascript", b"var go = function(){return 1;};")],
        )
        variant = apply_transform(TransformSpec(name="identity"), page)
        assert functional(page, variant.page) == 1.0

    def test_score_graphs_combines_both(self):
        page = page_from_parts(
            '<html><body><p>a b</p><img src="i.png"><a href="/x">l</a></body></html>',
            assets=[("/i.png", "image/png", b"1")],
        )
        variant = apply_transform(TransformSpec(name="identity"), page)
        scores = score_graphs(parse_page(page), parse_page(variant.page))
        assert scores.structural == 1.0
        assert scores.functional == 1.0

    def test_bounds_over_fixture_pairs(self, fixtures20):
        for pid in fixtures20.corpus.pages[:8]:
            page = fixtures20.pages[pid]
            for name in ["identity", "js-strip", "js-dce", "img-downscale"]:
                variant = apply_transform(TransformSpec(name=name), page)
                scores = score_graphs(parse_page(page), parse_page(variant.page))
                assert 0.0 <= scores.structural <= 1.0
                assert 0.0 <= scores.functional <= 1.0
                for component in scores.components:
                    assert 0.0 <= component <= 1.0
