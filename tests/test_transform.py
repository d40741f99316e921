import math
import re

import pytest

from wasef.errors import TransformFailed, UnknownTransform
from wasef.experiment import _unchanged
from wasef.fixtures import build_fixture_page
from wasef.loadsim import DEVICE_PROFILES, NETWORK_PROFILES, simulate_load
from wasef.pagemodel import parse_page
from wasef.similarity import score_graphs
from wasef.transform import (
    DOWNSCALE_MARKER,
    TransformSpec,
    apply_transform,
    list_transforms,
    register_transform,
)
from wasef.transform import _REGISTRY  # registry isolation in tests
from wasef.transform import _apply_edits

from conftest import page_from_parts

BUILTINS = ["identity", "js-strip", "js-block-thirdparty", "js-dce", "img-downscale"]


def oracle_strip_scripts(html: str) -> str:
    """Independent regex-based strip of script elements and on* attributes,
    used to predict js-strip's byte deltas."""
    html = re.sub(r"<script\b[^>]*>.*?</script\s*>", "", html, flags=re.S | re.I)
    html = re.sub(r"""\s+on\w+\s*=\s*"[^"]*\"""", "", html)
    return html


def scripted_page():
    return page_from_parts(
        "<html><head></head><body>"
        "<p>hello page</p>"
        '<script src="a.js"></script>'
        "<script>inlineFn();</script>"
        '<button name="b" onclick="go(event)">press</button>'
        '<img src="pic.png">'
        "</body></html>",
        assets=[
            ("/a.js", "application/javascript", b"function go(e){return 1;}\ngo(0);\n" + b"//" + b"z" * 40000),
            ("/pic.png", "image/png", b"\x11" * 9000),
        ],
    )


class TestRegistry:
    def test_five_builtins_in_stable_order(self):
        names = [name for name, _, _ in list_transforms() if name in BUILTINS]
        assert names == BUILTINS

    def test_register_custom_adds_entry(self):
        before = len(list_transforms())
        register_transform("custom-test-noop", "test-only", lambda page, params: page)
        try:
            assert len(list_transforms()) == before + 1
        finally:
            _REGISTRY.pop("custom-test-noop")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            register_transform("identity", "again", lambda page, params: page)

    def test_unknown_transform(self):
        with pytest.raises(UnknownTransform):
            apply_transform(TransformSpec(name="nope"), scripted_page())

    def test_internal_failure_wrapped(self):
        def boom(page, params):
            raise RuntimeError("kaput")

        register_transform("custom-test-boom", "test-only", boom)
        try:
            with pytest.raises(TransformFailed, match="kaput"):
                apply_transform(TransformSpec(name="custom-test-boom"), scripted_page())
        finally:
            _REGISTRY.pop("custom-test-boom")


class TestIdentity:
    def test_byte_identical_exchanges(self):
        page = scripted_page()
        variant = apply_transform(TransformSpec(name="identity"), page)
        assert variant.page.page_id == f"{page.page_id}:identity"
        assert variant.base_page_id == page.page_id
        assert set(variant.page.exchanges) == set(page.exchanges)
        for key, ex in page.exchanges.items():
            assert variant.page.exchanges[key].body == ex.body
        assert variant.provenance["bytes_removed"] == 0
        assert variant.provenance["resources_dropped"] == 0


class TestJsStrip:
    def test_removes_all_script_tags(self):
        page = scripted_page()
        variant = apply_transform(TransformSpec(name="js-strip"), page)
        html = variant.page.root_exchange().body.decode()
        assert "<script" not in html.lower()
        assert "onclick" not in html.lower()

    def test_size_reduction_matches_oracle(self):
        page = scripted_page()
        html = page.root_exchange().body.decode()
        script_bytes = sum(
            len(ex.body) for (_, url), ex in page.exchanges.items() if url.endswith(".js")
        )
        expected = script_bytes + (len(html) - len(oracle_strip_scripts(html)))
        variant = apply_transform(TransformSpec(name="js-strip"), page)
        assert variant.provenance["bytes_removed"] == expected

    def test_simulated_js_processing_is_zero(self):
        page = build_fixture_page(0, 3, "js_heavy")
        variant = apply_transform(TransformSpec(name="js-strip"), page)
        metrics = simulate_load(
            parse_page(variant.page), NETWORK_PROFILES["3g"], DEVICE_PROFILES["lowend"]
        )
        assert metrics.js_processing_seconds == 0.0


class TestJsBlockThirdparty:
    def test_exact_host_comparison(self):
        page = page_from_parts(
            "<html><body>"
            '<script src="http://cdn.other.test/lib.js"></script>'
            '<script src="http://sub.site.test/own.js"></script>'
            '<script src="/local.js"></script>'
            "t</body></html>",
            assets=[
                ("http://cdn.other.test/lib.js", "application/javascript", b"a();" * 100),
                ("http://sub.site.test/own.js", "application/javascript", b"b();" * 100),
                ("/local.js", "application/javascript", b"c();" * 100),
            ],
        )
        variant = apply_transform(TransformSpec(name="js-block-thirdparty"), page)
        html = variant.page.root_exchange().body.decode()
        # Exact-host rule: the subdomain also differs from site.test.
        assert "cdn.other.test" not in html
        assert "sub.site.test" not in html
        assert "local.js" in html
        urls = {url for _, url in variant.page.exchanges}
        assert "http://cdn.other.test/lib.js" not in urls
        assert "http://site.test/local.js" in urls

    def test_noop_when_all_first_party(self):
        page = scripted_page()
        variant = apply_transform(TransformSpec(name="js-block-thirdparty"), page)
        assert variant.provenance["bytes_removed"] == 0
        assert _unchanged(page, variant.page)  # every body is the original object


class TestJsDce:
    def _page(self, source):
        return page_from_parts(
            '<html><body><p>x</p><script src="a.js"></script>'
            '<button onclick="clickHandler()">b</button></body></html>',
            assets=[("/a.js", "application/javascript", source.encode())],
        )

    def _script(self, variant):
        return variant.page.lookup("http://site.test/a.js").body.decode()

    def test_deletes_unreferenced_function(self):
        page = self._page("function used(){return 1;}\nfunction unusedFn(){return 2;}\nused();\n")
        out = self._script(apply_transform(TransformSpec(name="js-dce"), page))
        assert "unusedFn" not in out
        assert "function used()" in out

    def test_keeps_handler_referenced_function(self):
        page = self._page("function clickHandler(){return 1;}\n")
        out = self._script(apply_transform(TransformSpec(name="js-dce"), page))
        assert "clickHandler" in out

    def test_keeps_string_referenced_function(self):
        # Safety direction: a name that only occurs in a string still counts
        # as a reference, so the declaration survives.
        page = self._page('function viaEval(){return 1;}\nvar x = "viaEval";\n')
        out = self._script(apply_transform(TransformSpec(name="js-dce"), page))
        assert "function viaEval" in out

    def test_fixpoint_chain(self):
        page = self._page(
            "function keep(){return 1;}\n"
            "function deadA(){return deadB();}\n"
            "function deadB(){return 2;}\n"
            "keep();\n"
        )
        out = self._script(apply_transform(TransformSpec(name="js-dce"), page))
        assert "deadA" not in out and "deadB" not in out and "keep" in out

    def test_mutual_recursion_is_retained(self):
        page = self._page(
            "function pingPong(){return pongPing();}\nfunction pongPing(){return pingPong();}\n"
        )
        out = self._script(apply_transform(TransformSpec(name="js-dce"), page))
        assert "pingPong" in out and "pongPing" in out

    def test_idempotent(self):
        page = build_fixture_page(4, 9, "js_heavy")
        once = apply_transform(TransformSpec(name="js-dce"), page)
        twice = apply_transform(TransformSpec(name="js-dce"), once.page)
        for key, ex in once.page.exchanges.items():
            assert twice.page.exchanges[key].body == ex.body

    def test_functional_score_equals_identity_with_uppercase_handlers(self):
        # Handlers are named case-insensitively, as the similarity scorer
        # reads them, and a script element's own onload counts too.
        page = page_from_parts(
            '<html><body ONLOAD="init()"><div OnClick="go()">x</div>'
            '<script src="a.js" onload="boot()"></script></body></html>',
            assets=[("/a.js", "application/javascript", b"function init(){}\nfunction go(){}\nfunction boot(){}\n")],
        )
        original = parse_page(page)
        scores = {
            name: score_graphs(original, parse_page(apply_transform(TransformSpec(name=name), page).page))
            for name in ("identity", "js-dce")
        }
        assert scores["js-dce"].functional == scores["identity"].functional == 1.0
        assert self._script(apply_transform(TransformSpec(name="js-dce"), page)) == page.lookup(
            "http://site.test/a.js"
        ).body.decode()

    def test_nested_functions_not_deleted(self):
        page = self._page(
            "function outer(){\n  function innerNeverCalled(){return 9;}\n  return 1;\n}\nouter();\n"
        )
        out = self._script(apply_transform(TransformSpec(name="js-dce"), page))
        assert "innerNeverCalled" in out  # only top-level declarations are candidates


class TestImgDownscale:
    def test_half_quality_byte_thinning(self):
        page = page_from_parts(
            '<html><body><img src="pic.png">t</body></html>',
            assets=[("/pic.png", "image/png", b"\xab" * 80000)],
        )
        variant = apply_transform(
            TransformSpec(name="img-downscale", params={"quality": "0.5"}), page
        )
        body = variant.page.lookup("http://site.test/pic.png").body
        assert len(body) == math.ceil(0.5 * 80000) + len(DOWNSCALE_MARKER) == 40016
        assert body.endswith(DOWNSCALE_MARKER)
        assert body[:40000] == b"\xab" * 40000

    def test_never_inflates_tiny_images(self):
        page = page_from_parts(
            '<html><body><img src="dot.png">t</body></html>',
            assets=[("/dot.png", "image/png", b"\x01" * 10)],
        )
        variant = apply_transform(TransformSpec(name="img-downscale"), page)
        assert variant.page.lookup("http://site.test/dot.png").body == b"\x01" * 10

    def test_invalid_quality_fails(self):
        with pytest.raises(TransformFailed):
            apply_transform(
                TransformSpec(name="img-downscale", params={"quality": "1.5"}),
                scripted_page(),
            )


class TestApplyEdits:
    def test_edits_apply_in_any_given_order(self):
        edits = [(4, 6, "X"), (0, 1, ""), (6, 6, "+"), (1, 2, "BB")]
        assert _apply_edits("abcdefgh", edits) == "BBcdX+gh"
        assert _apply_edits("abcdefgh", edits[::-1]) == "BBcdX+gh"

    def test_an_edit_nested_in_a_kept_one_is_dropped(self):
        # The removal holds the replacement, including one with the same start.
        assert _apply_edits("0123456789", [(3, 4, "R"), (2, 7, ""), (2, 3, "S"), (8, 9, "T")]) == "017T9"

    def test_no_edits_gives_the_text(self):
        assert _apply_edits("abc", []) == "abc"


class TestSharedContracts:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_never_grows_and_keeps_root(self, name):
        for index, cls in [(0, "rich"), (1, "js_heavy"), (2, "interactive"), (3, "thirdparty")]:
            page = build_fixture_page(index, 21, cls)
            variant = apply_transform(TransformSpec(name=name), page)
            assert variant.page.total_bytes() <= page.total_bytes()
            assert variant.page.root_url == page.root_url
            assert variant.page.root_exchange() is not None

    @pytest.mark.parametrize("name", BUILTINS)
    def test_deterministic_output(self, name):
        page = build_fixture_page(2, 13, "thirdparty")
        a = apply_transform(TransformSpec(name=name), page)
        b = apply_transform(TransformSpec(name=name), page)
        assert {k: ex.body for k, ex in a.page.exchanges.items()} == {
            k: ex.body for k, ex in b.page.exchanges.items()
        }
