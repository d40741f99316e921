"""Property tests for the lexical JS index, and js-dce against a reference
copy of its original reference-counting fixpoint."""

import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from wasef import jsscan
from wasef.archive import is_js_content_type, load_page, store_page
from wasef.experiment import config_from_dict, run_experiment
from wasef.fixtures import make_fixtures
from wasef.transform import TransformSpec, apply_transform

from conftest import page_from_parts
from test_pagemodel_oracle import ref_decode_html, ref_scan_html

# --- reference scanner: the per-character original, kept as the oracle -----

_REF_FUNC_DECL = re.compile(r"\bfunction\s+([A-Za-z_$][\w$]*)\s*\(")
_REF_TOP_ASSIGN = re.compile(r"(?:^|[;{}\s])(?:var\s+|let\s+|const\s+)?([A-Za-z_$][\w$]*)\s*=[^=]")


def ref_strip_literals(text):
    return jsscan._LITERAL.sub(
        lambda m: "".join("\n" if ch == "\n" else " " for ch in m.group(0)), text
    )


def _ref_depth(code, index):
    return code.count("{", 0, index) - code.count("}", 0, index)


def _ref_match_brace(code, open_index):
    depth = 0
    for i in range(open_index, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


def ref_function_spans(text):
    code = ref_strip_literals(text)
    spans = []
    for match in _REF_FUNC_DECL.finditer(code):
        if _ref_depth(code, match.start()) != 0:
            continue
        open_brace = code.find("{", match.end() - 1)
        if open_brace == -1:
            continue
        spans.append((match.group(1), match.start(), _ref_match_brace(code, open_brace) + 1))
    return spans


def ref_defined_names(text):
    code = ref_strip_literals(text)
    names = {name for name, _, _ in ref_function_spans(text)}
    for match in _REF_TOP_ASSIGN.finditer(code):
        if _ref_depth(code, match.start(1)) == 0:
            names.add(match.group(1))
    return names


def ref_count_references(name, text):
    return len(re.findall(rf"(?<![\w$]){re.escape(name)}(?![\w$])", text))


def ref_js_dce_bodies(page):
    """Script bodies after the original js-dce fixpoint: four reference
    counts per function, every script re-scanned on every pass."""
    html_text, _ = ref_decode_html(page.root_exchange().body)
    scanner = ref_scan_html(html_text)
    inline_texts = [html_text[s:e] for s, e, src in scanner.script_spans if not src]
    handler_text = " ".join(scanner.handler_values)
    script_texts = {}
    for (_, url), ex in page.exchanges.items():
        if is_js_content_type(ex.content_type):
            script_texts[url] = ref_decode_html(ex.body)
    base_sources = "\n".join(inline_texts + [handler_text])
    changed = True
    while changed:
        changed = False
        all_spans = {url: ref_function_spans(text) for url, (text, _) in script_texts.items()}
        for url, spans in all_spans.items():
            text, codec = script_texts[url]
            elsewhere = "\n".join(t for u, (t, _) in script_texts.items() if u != url)
            doomed = []
            for name, start, end in spans:
                outside = (
                    ref_count_references(name, text)
                    - ref_count_references(name, text[start:end])
                    + ref_count_references(name, elsewhere)
                    + ref_count_references(name, base_sources)
                )
                if outside == 0:
                    doomed.append((start, end))
            if doomed:
                for start, end in sorted(doomed, reverse=True):
                    text = text[:start] + text[end:]
                script_texts[url] = (text, codec)
                changed = True
    return {url: text.encode(codec) for url, (text, codec) in script_texts.items()}


def js_dce_bodies(page):
    variant = apply_transform(TransformSpec(name="js-dce"), page).page
    return {
        url: ex.body for (_, url), ex in variant.exchanges.items() if is_js_content_type(ex.content_type)
    }


# --- generated inputs --------------------------------------------------------

NAMES = ["a", "b", "c", "$d", "_e", "é1"]
names = st.sampled_from(NAMES)
spaces = st.sampled_from(["", " ", "   ", "\n", "\n \n", "\t"])
_leaves = st.one_of(
    st.builds("{}({});".format, names, names),
    st.builds("{}{}{}={}{};".format, st.sampled_from(["", "var ", "let ", "const "]), names, spaces, spaces, names),
    st.builds("{}={}{}={};".format, names, spaces, names, names),
    st.builds("{}function {}(x){{}}".format, st.sampled_from(["x", "1", "$", "."]), names),
    st.builds("'{}'".format, names),
    st.builds("// {}\n".format, names),
    st.builds("/* {} */".format, names),
    st.sampled_from(["{", "}", "(", "'", '"', "`", "\\", "=", "==", "x", "function", "$", ";"]),
    spaces,
)
# Statements, nested function declarations and lexical noise, glued without
# separators so that tokens also run into each other.
js_texts = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6).map("".join),
        st.builds("function {}(x){}{{{}}}".format, names, spaces, inner),
    ),
    max_leaves=24,
)
# ASCII separators that str.split() treats as whitespace, ASCII controls it
# does not, and non-ASCII letters and digits that [\w$] matches and
# characters it does not, so that both token paths are taken.
token_texts = st.text(
    alphabet=st.sampled_from(list("ab_$9 .;'\n\t\x0b\x0c\x1c\x1d\x1e\x1f\x01\x7f\xa0é٣€")), max_size=60
)
literal_texts = st.text(alphabet=st.sampled_from(list("ab'\"`/*\\\n {}x;é")), max_size=200)


@given(literal_texts)
def test_strip_literals_preserves_length_and_newlines(text):
    stripped = jsscan.strip_literals(text)
    assert len(stripped) == len(text)
    assert [i for i, ch in enumerate(stripped) if ch == "\n"] == [
        i for i, ch in enumerate(text) if ch == "\n"
    ]
    assert all(s == t or s == " " for s, t in zip(stripped, text))
    assert stripped == ref_strip_literals(text)


@given(js_texts)
def test_token_counts_equal_reference_counts(text):
    tokens = jsscan.index(text).tokens
    for name in NAMES + [t for t in tokens if re.fullmatch(r"[A-Za-z_$][\w$]*", t)]:
        assert tokens[name] == jsscan.count_references(name, text)


@given(st.one_of(js_texts, token_texts))
def test_token_counts_equal_every_token_run(text):
    assert dict(jsscan.index(text).tokens) == Counter(re.findall(r"[\w$]+", text))


@given(js_texts)
def test_index_matches_reference_scanner(text):
    assert jsscan.top_level_function_spans(text) == ref_function_spans(text)
    assert jsscan.top_level_defined_names(text) == ref_defined_names(text)


@pytest.mark.parametrize(
    "text, names",
    [
        ("a =  /*c*/ b = 1;", {"a", "b"}),
        ("x = '...'  y = 2", {"x", "y"}),
        ("a=/*c*/b=1", {"a", "b"}),
        ("a=''b=1", {"a", "b"}),
        ("x = `\n\n`\n  y = 2; z =/* */\nw = 3", {"x", "y", "z", "w"}),
        ("p = 1 // end\nq = 2", {"p", "q"}),
    ],
)
def test_defined_names_where_a_blank_meets_whitespace(text, names):
    assert jsscan.top_level_defined_names(text) == ref_defined_names(text) == names


def test_index_results_are_copies():
    text = "function a() {}\nb = 1;"
    jsscan.top_level_function_spans(text).clear()
    jsscan.top_level_defined_names(text).clear()
    assert jsscan.top_level_function_spans(text) == [("a", 0, 15)]
    assert jsscan.top_level_defined_names(text) == {"a", "b"}


def test_each_distinct_script_text_of_a_page_is_indexed_once(tmp_path):
    # 40 external scripts, every other one third-party, each with one dead
    # function: js-dce rewrites every script and js-block-thirdparty drops half.
    tags, assets = [], []
    for i in range(40):
        url = f"http://{'cdn' if i % 2 else 'site'}.test/s{i}.js"
        tags.append(f'<script src="{url}"></script>')
        assets.append((url, "application/javascript", f"function f{i}(){{}}\nfunction dead{i}(){{}}\nf{i}();".encode()))
    page = page_from_parts(
        f'<html><body><button name="go" onclick="f0()">go</button>{"".join(tags)}</body></html>', assets=assets
    )
    store_page(page, tmp_path / "archive")
    solutions = ["identity", "js-strip", "js-block-thirdparty", "js-dce", "img-downscale"]
    texts = {
        ex.body
        for variant in [page] + [apply_transform(TransformSpec(name=name), page).page for name in solutions]
        for ex in variant.exchanges.values()
        if is_js_content_type(ex.content_type)
    }
    config = config_from_dict(
        {
            "archive_dir": str(tmp_path / "archive"),
            "out_dir": str(tmp_path / "out"),
            "corpus": {"name": "one", "pages": [page.page_id]},
            "solutions": solutions,
        }
    )
    assert run_experiment(config).exit_code == 0  # one page: evaluated in this process
    info = jsscan.index.cache_info()
    assert info.misses == len(texts) == 80 and info.hits > 0


def _generated_page(inline, first, second, handler):
    return page_from_parts(
        f"<html><body><script>{inline}</script>"
        f'<button name="go" onclick="{handler}()">go</button>'
        '<script src="a.js"></script><script src="b.js"></script></body></html>',
        assets=[
            ("/a.js", "application/javascript", first.encode()),
            ("/b.js", "text/javascript", second.encode()),
        ],
    )


@settings(max_examples=60, deadline=None)
@given(js_texts, js_texts, js_texts, st.sampled_from(NAMES))
def test_js_dce_is_idempotent_and_matches_reference(inline, first, second, handler):
    page = _generated_page(inline, first, second, handler)
    once = apply_transform(TransformSpec(name="js-dce"), page).page
    assert js_dce_bodies(once) == js_dce_bodies(page)
    assert js_dce_bodies(page) == ref_js_dce_bodies(page)


def test_js_dce_matches_reference_on_js_heavy_fixtures(tmp_path):
    corpus = make_fixtures(tmp_path, 20, seed=3, profile="js_heavy")
    for page_id in corpus.pages:
        page = load_page(page_id, tmp_path)
        assert js_dce_bodies(page) == ref_js_dce_bodies(page), page_id
