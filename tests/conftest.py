"""Shared fixtures and builders for the test suite."""

import time

import pytest
from hypothesis import settings

from wasef.archive import ArchivedExchange, ArchivedPage, load_page, page_id_for_url
from wasef.fixtures import make_fixtures
from wasef.loadsim import DEVICE_PROFILES, NETWORK_PROFILES, simulate_load
from wasef.pagemodel import KIND_HTML, Resource, ResourceGraph, TextBlock, parse_page

SESSION_T0 = time.perf_counter()

# A deeper run of the scanner/html.parser equivalence property, selected only
# by CI's per-version step with --hypothesis-profile=html-equivalence:
# html.parser's tokenizer changes between CPython patch releases.
settings.register_profile("html-equivalence", max_examples=5000)
# Likewise for the fast paths of normalize_url and loadsim._host_of, selected
# by --hypothesis-profile=url-equivalence: urllib.parse changes between
# CPython patch releases too.
settings.register_profile("url-equivalence", max_examples=10000)


def page_from_parts(html, assets=(), host="site.test", root_path="/index.html"):
    """Build an ArchivedPage from HTML text and (path, content_type, body) assets."""
    root_url = f"http://{host}{root_path}"
    exchanges = {
        ("GET", root_url): ArchivedExchange(
            "GET", root_url, 200, [("Content-Type", "text/html")], html.encode(), "text/html"
        )
    }
    for path, content_type, body in assets:
        url = path if path.startswith("http") else f"http://{host}{path}"
        exchanges[("GET", url)] = ArchivedExchange(
            "GET", url, 200, [("Content-Type", content_type)], body,
            content_type.split(";")[0].lower(),
        )
    return ArchivedPage(
        page_id=page_id_for_url(root_url),
        root_url=root_url,
        exchanges=exchanges,
        recorded_at="2021-06-01T00:00:00Z",
        source="synthetic",
    )


def make_graph(root_bytes, items=(), host="http://h.test"):
    """Hand-built ResourceGraph. items: ("text", chars, offset) or
    (kind, size, offset, name) tuples, in document order; a name that
    starts with "http" is taken as the whole URL."""
    root = Resource(url=f"{host}/", kind=KIND_HTML, bytes=root_bytes, discovery_index=0)
    resources = [root]
    blocks = []
    index = 1
    for item in items:
        if item[0] == "text":
            blocks.append(TextBlock(char_count=item[1], discovery_index=index, doc_offset=item[2]))
        else:
            kind, size, offset, name = item
            resources.append(
                Resource(url=name if name.startswith("http") else f"{host}/{name}",
                         kind=kind, bytes=size,
                         discovery_index=index, doc_offset=offset)
            )
        index += 1
    return ResourceGraph(root=root, resources=resources, text_blocks=blocks, interactive_elements=[])


class FixtureCorpus:
    def __init__(self, archive_dir, corpus):
        self.archive_dir = archive_dir
        self.corpus = corpus
        self.pages = {pid: load_page(pid, archive_dir) for pid in corpus.pages}
        self.graphs = {pid: parse_page(page) for pid, page in self.pages.items()}
        net = NETWORK_PROFILES["3g"]
        dev = DEVICE_PROFILES["lowend"]
        self.metrics = {pid: simulate_load(g, net, dev) for pid, g in self.graphs.items()}


@pytest.fixture(scope="session")
def fixtures200(tmp_path_factory):
    """200 seeded fixture pages with cached graphs and 3g/lowend metrics."""
    archive_dir = tmp_path_factory.mktemp("fixtures200")
    corpus = make_fixtures(archive_dir, 200, seed=11)
    return FixtureCorpus(archive_dir, corpus)


@pytest.fixture(scope="session")
def fixtures20(tmp_path_factory):
    """The 20-page corpus used by pipeline-level checks."""
    archive_dir = tmp_path_factory.mktemp("fixtures20")
    corpus = make_fixtures(archive_dir, 20, seed=7)
    return FixtureCorpus(archive_dir, corpus)
