"""Seeded synthetic pages with hundreds of tags each, for the wide_pages
workload.

Each page mixes render-blocking stylesheets spread through the body (the
parser reaches them long before they arrive over 3g), images (a few
referenced twice), text paragraphs, and tiny async first- and third-party
scripts. There are no interactive elements and no functions in the scripts,
so lexical JS scanning has almost nothing to do and the simulator's paint
bookkeeping dominates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from wasef.archive import ArchivedExchange, ArchivedPage, page_id_for_url

THIRD_PARTY_HOST = "cdn.widepages.test"
# The tag counts and the make-up of every 20-tag section are fixed; the seed
# picks the order within each section and every size. Simulator cost grows
# super-linearly with resource count and with how many stylesheets a paint
# waits on, so a seeded make-up would make throughput depend on the seed.
TAG_COUNTS = (300, 500, 700, 900)
SECTION = (
    ["css"] * 3 + ["img"] * 4 + ["img-again"] + ["p"] * 7 + ["js"] * 3 + ["js-3p"] * 2
)

_WORDS = ("north", "harbor", "cedar", "lantern", "meadow", "quarry", "summit", "willow")


@dataclass
class WidePage:
    page: ArchivedPage
    bytes_written: int  # root document plus every distinct body
    urls: frozenset[str]  # every distinct URL fetched, root included


def build_wide_page(index: int, seed: int, tag_count: int) -> WidePage:
    rng = random.Random(f"wide:{seed}:{index}")
    host = f"wide-{index}.bench.test"
    root_url = f"http://{host}/index.html"
    exchanges: dict[tuple[str, str], ArchivedExchange] = {}
    images: list[str] = []
    tags: list[str] = []

    def add(url: str, content_type: str, body: bytes) -> None:
        exchanges[("GET", url)] = ArchivedExchange(
            "GET", url, 200, [("Content-Type", content_type)], body, content_type
        )

    kinds = []
    for _ in range(tag_count // len(SECTION)):
        section = list(SECTION)
        rng.shuffle(section)
        kinds += section
    for k, kind in enumerate(kinds):
        if kind == "css":
            add(f"http://{host}/css/s{k}.css", "text/css",
                f".c{k} {{ margin: {k}px; }}\n/* {'s' * rng.randint(800, 3000)} */\n".encode())
            tags.append(f'<link rel="stylesheet" href="/css/s{k}.css">')
        elif kind == "img" or (kind == "img-again" and not images):
            add(f"http://{host}/img/i{k}.png", "image/png", rng.randbytes(rng.randint(2000, 20000)))
            images.append(f"/img/i{k}.png")
            tags.append(f'<img src="/img/i{k}.png" alt="i{k}">')
        elif kind == "img-again":  # a repeated reference is fetched once
            tags.append(f'<img src="{rng.choice(images)}" alt="again{k}">')
        elif kind == "p":
            tags.append(f"<p>{' '.join(rng.choice(_WORDS) for _ in range(rng.randint(8, 40)))}.</p>")
        elif kind == "js":
            add(f"http://{host}/js/a{k}.js", "application/javascript",
                f"var w{k} = {rng.randint(1, 999)};\n".encode())
            tags.append(f'<script src="/js/a{k}.js" async></script>')
        else:
            url = f"http://{THIRD_PARTY_HOST}/t/{host}/{k}.js"
            add(url, "application/javascript", f"var t{k} = {rng.randint(1, 999)};\n".encode())
            tags.append(f'<script src="{url}" async></script>')

    html = (
        "<!doctype html>\n<html>\n<head>\n<title>wide page</title>\n</head>\n<body>\n"
        + "\n".join(tags)
        + "\n</body>\n</html>\n"
    ).encode()
    root = ArchivedExchange(
        "GET", root_url, 200, [("Content-Type", "text/html; charset=utf-8")], html, "text/html"
    )
    page = ArchivedPage(
        page_id=page_id_for_url(root_url),
        root_url=root_url,
        exchanges={("GET", root_url): root, **exchanges},
        recorded_at="2021-06-01T00:00:00Z",
        source="synthetic",
    )
    return WidePage(
        page=page,
        bytes_written=sum(len(ex.body) for ex in page.exchanges.values()),
        urls=frozenset(url for _, url in page.exchanges),
    )
