"""Deterministic synthetic page corpus spanning the simulator's feature
matrix: sync/async/defer/inline scripts, images, stylesheets, iframes,
interactive elements, third-party hosts, and dead functions, plus one page
per degenerate class (zero-visual, script-only, image-only).

The same (count, seed) always yields byte-identical pages.
"""

from __future__ import annotations

import random

from .archive import ArchivedExchange, ArchivedPage, Corpus, normalize_url, page_id_for_url, save_corpus, store_page
from .errors import ConfigError, StorageError

THIRDPARTY_HOST = "cdn.thirdparty.test"
RECORDED_AT = "2021-06-01T00:00:00Z"

_WORDS = (
    "amber", "basin", "cedar", "delta", "ember", "fjord", "grove", "harbor",
    "inlet", "juniper", "kelp", "lagoon", "meadow", "north", "orchard",
    "prairie", "quarry", "ridge", "summit", "thicket", "upland", "valley",
    "willow", "yonder", "zephyr", "bridge", "lantern", "market", "station",
)

_MIXED_CLASSES = ("rich", "js_heavy", "media", "interactive", "thirdparty")
_DEGENERATE_CLASSES = ("zero_visual", "script_only", "image_only")


def _sentence(rng: random.Random, n_words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n_words))


def _paragraph(rng: random.Random) -> str:
    return _sentence(rng, rng.randint(12, 40)).capitalize() + "."


def _pad_script(text: str, target: int) -> str:
    if len(text) >= target:
        return text
    filler = target - len(text) - 4
    return text + "\n// " + "x" * max(filler, 0)


def _script_source(
    rng: random.Random,
    prefix: str,
    live: int,
    dead: int,
    handlers: list[str],
    target_bytes: int,
) -> str:
    """A script with `live` called functions, `dead` never-referenced
    functions, definitions for the given handler names, and comment padding
    up to target_bytes."""
    lines = []
    live_names = [f"{prefix}Live{k}" for k in range(live)]
    for name in live_names:
        lines.append(f"function {name}(x) {{\n  var acc = x + {rng.randint(1, 99)};\n  return acc * 2;\n}}")
    for k in range(dead):
        lines.append(
            f"function {prefix}Unused{k}(y) {{\n  var local = y - {rng.randint(1, 99)};\n  return local;\n}}"
        )
    for name in handlers:
        lines.append(f"function {name}(ev) {{\n  var tag = {rng.randint(100, 999)};\n  return tag;\n}}")
    for name in live_names:
        lines.append(f"{name}({rng.randint(1, 9)});")
    return _pad_script("\n".join(lines), target_bytes)


class _PageBuilder:
    def __init__(self, index: int, rng: random.Random):
        self.rng = rng
        self.host = f"site-{index:03d}.fixture.test"
        self.root_url = f"http://{self.host}/index.html"
        self.head: list[str] = [f"<title>{_sentence(rng, 3)}</title>"]
        self.body: list[str] = []
        self.exchanges: dict[tuple[str, str], ArchivedExchange] = {}
        self._asset_counter = 0

    def _url(self, path: str, host: str | None = None) -> str:
        return normalize_url(f"http://{host or self.host}{path}")

    def _add_exchange(self, url: str, content_type: str, body: bytes, status: int = 200):
        self.exchanges[("GET", url)] = ArchivedExchange(
            method="GET",
            url=url,
            status=status,
            headers=[("Content-Type", content_type)],
            body=body,
            content_type=content_type.split(";")[0].lower(),
        )

    def add_css(self) -> None:
        self._asset_counter += 1
        path = f"/css/style{self._asset_counter}.css"
        body = ("body { margin: 0; }\n.c" + str(self._asset_counter) + " { color: #333; }\n" + "/* " + "s" * self.rng.randint(200, 900) + " */\n").encode()
        url = self._url(path)
        self._add_exchange(url, "text/css", body)
        self.head.append(f'<link rel="stylesheet" href="{path}">')

    def add_image(self, size: int | None = None) -> None:
        self._asset_counter += 1
        size = size or self.rng.randint(8000, 90000)
        path = f"/img/photo{self._asset_counter}.png"
        url = self._url(path)
        self._add_exchange(url, "image/png", self.rng.randbytes(size))
        self.body.append(f'<img src="{path}" alt="photo{self._asset_counter}">')

    def add_iframe(self) -> None:
        self._asset_counter += 1
        path = f"/frame{self._asset_counter}.html"
        url = self._url(path)
        inner = f"<html><body><p>{_sentence(self.rng, 6)}</p></body></html>".encode()
        self._add_exchange(url, "text/html", inner)
        self.body.append(f'<iframe src="{path}"></iframe>')

    def add_script(
        self,
        mode: str = "sync",  # sync | async | defer
        host: str | None = None,
        live: int = 2,
        dead: int = 1,
        handlers: list[str] | None = None,
        target_bytes: int = 4000,
    ) -> None:
        self._asset_counter += 1
        path = f"/js/app{self._asset_counter}.js"
        url = self._url(path, host)
        source = _script_source(
            self.rng, f"s{self._asset_counter}", live, dead, handlers or [], target_bytes
        )
        self._add_exchange(url, "application/javascript", source.encode())
        attr = "" if mode == "sync" else f" {mode}"
        src = path if host is None else url
        self.body.append(f'<script src="{src}"{attr}></script>')

    def add_inline_script(self, target_bytes: int = 600) -> None:
        self._asset_counter += 1
        source = _script_source(self.rng, f"i{self._asset_counter}", 1, 0, [], target_bytes)
        self.body.append(f"<script>\n{source}\n</script>")

    def add_paragraphs(self, n: int) -> None:
        for _ in range(n):
            self.body.append(f"<p>{_paragraph(self.rng)}</p>")

    def add_links(self, n: int) -> None:
        items = "".join(
            f'<li><a href="/section/{self.rng.choice(_WORDS)}{k}.html">{_sentence(self.rng, 2)}</a></li>'
            for k in range(n)
        )
        self.body.append(f"<ul>{items}</ul>")

    def add_buttons(self, handlers: list[str]) -> None:
        for k, handler in enumerate(handlers):
            self.body.append(
                f'<button name="action{k}" onclick="{handler}(event)">{_sentence(self.rng, 2)}</button>'
            )

    def add_form(self) -> None:
        self.body.append(
            '<form name="contact" action="/submit"><input name="email" type="text">'
            '<input name="send" type="submit"></form>'
        )

    def build(self, index: int) -> ArchivedPage:
        html = (
            "<!doctype html>\n<html>\n<head>\n"
            + "\n".join(self.head)
            + "\n</head>\n<body>\n"
            + "\n".join(self.body)
            + "\n</body>\n</html>\n"
        )
        exchanges: dict[tuple[str, str], ArchivedExchange] = {}
        root_body = html.encode()
        exchanges[("GET", self.root_url)] = ArchivedExchange(
            method="GET",
            url=self.root_url,
            status=200,
            headers=[("Content-Type", "text/html; charset=utf-8")],
            body=root_body,
            content_type="text/html",
        )
        exchanges.update(self.exchanges)
        return ArchivedPage(
            page_id=page_id_for_url(self.root_url),
            root_url=self.root_url,
            exchanges=exchanges,
            recorded_at=RECORDED_AT,
            source="synthetic",
        )


def _build_class(builder: _PageBuilder, page_class: str) -> None:
    rng = builder.rng
    if page_class == "rich":
        builder.add_css()
        builder.add_paragraphs(2)
        builder.add_image()
        builder.add_script("sync", live=2, dead=2, handlers=["handleOpen"], target_bytes=rng.randint(6000, 20000))
        builder.add_paragraphs(1)
        builder.add_inline_script()
        builder.add_links(3)
        builder.add_buttons(["handleOpen"])
        if rng.random() < 0.5:
            builder.add_iframe()
    elif page_class == "js_heavy":
        builder.add_css()
        builder.add_paragraphs(1)
        builder.add_script("sync", live=3, dead=3, handlers=["handleSave"], target_bytes=rng.randint(45000, 70000))
        builder.add_script("sync", host=THIRDPARTY_HOST, live=2, dead=2, target_bytes=rng.randint(40000, 60000))
        builder.add_script("defer", live=2, dead=1, target_bytes=rng.randint(30000, 50000))
        if rng.random() < 0.6:
            builder.add_script("async", live=1, dead=1, target_bytes=rng.randint(20000, 40000))
        builder.add_buttons(["handleSave"])
        builder.add_image(rng.randint(5000, 20000))
    elif page_class == "media":
        builder.add_css()
        for _ in range(rng.randint(3, 5)):
            builder.add_image(rng.randint(30000, 120000))
            builder.add_paragraphs(1)
    elif page_class == "interactive":
        builder.add_css()
        builder.add_paragraphs(1)
        builder.add_script(
            "sync",
            live=1,
            dead=1,
            handlers=["validateForm", "toggleMenu"],
            target_bytes=rng.randint(8000, 25000),
        )
        builder.add_form()
        builder.add_buttons(["toggleMenu", "validateForm"])
        builder.add_links(4)
        builder.add_image(rng.randint(5000, 30000))
    elif page_class == "thirdparty":
        builder.add_css()
        builder.add_paragraphs(2)
        builder.add_script("sync", host=THIRDPARTY_HOST, live=2, dead=1, target_bytes=rng.randint(25000, 50000))
        builder.add_script("async", host=THIRDPARTY_HOST, live=1, dead=1, target_bytes=rng.randint(15000, 30000))
        builder.add_script("sync", live=2, dead=1, handlers=["handleMore"], target_bytes=rng.randint(10000, 25000))
        builder.add_buttons(["handleMore"])
        builder.add_image()
    elif page_class == "zero_visual":
        builder.add_css()
        builder.body.append("<!-- intentionally blank -->")
    elif page_class == "script_only":
        builder.add_script("sync", live=2, dead=2, target_bytes=rng.randint(20000, 40000))
        builder.add_inline_script()
    elif page_class == "image_only":
        builder.add_image(rng.randint(40000, 90000))
        builder.add_image(rng.randint(20000, 60000))
    else:
        raise ValueError(f"unknown fixture class {page_class!r}")


def _class_for(index: int, count: int, profile: str) -> str:
    if profile == "js_heavy":
        return "js_heavy"
    if count >= 4 and index >= count - len(_DEGENERATE_CLASSES):
        return _DEGENERATE_CLASSES[index - (count - len(_DEGENERATE_CLASSES))]
    return _MIXED_CLASSES[index % len(_MIXED_CLASSES)]


def build_fixture_page(index: int, seed: int, page_class: str) -> ArchivedPage:
    """One synthetic page; equal (index, seed, class) gives identical bytes."""
    rng = random.Random(f"{seed}:{index}:{page_class}")
    builder = _PageBuilder(index, rng)
    _build_class(builder, page_class)
    return builder.build(index)


def make_fixtures(
    out_dir,
    count: int,
    seed: int,
    profile: str = "mixed",
    corpus_name: str = "fixtures",
) -> Corpus:
    """Generate and store a corpus of `count` synthetic pages.

    The last three pages are the degenerate classes when count allows.
    Pages alternate landing/internal group labels.
    """
    if count < 1:
        raise ConfigError("count", "must be at least 1")
    pages = []
    labels: dict[str, str] = {}
    for index in range(count):
        page_class = _class_for(index, count, profile)
        page = build_fixture_page(index, seed, page_class)
        store_page(page, out_dir)
        pages.append(page.page_id)
        labels[page.page_id] = "landing" if index % 2 == 0 else "internal"
    if len(set(pages)) != len(pages):
        raise StorageError("fixture page ids collided")
    corpus = Corpus(name=corpus_name, pages=pages, group_labels=labels)
    save_corpus(corpus, out_dir)
    return corpus
