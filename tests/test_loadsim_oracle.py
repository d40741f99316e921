"""The simulator against a frozen copy of its original paint bookkeeping,
in which every pending paint holds a copy of the blockers discovered before
it and every check re-tests them all; plus a scale regression test."""

import heapq
import itertools
import random
import time
from collections import defaultdict, deque
from urllib.parse import urlsplit

from hypothesis import example, given, settings, strategies as st

from wasef import loadsim, pagemodel
from wasef.loadsim import (
    NETWORK_PROFILES,
    DeviceProfile,
    NetworkProfile,
    PageMetrics,
    simulate_load,
    speed_index,
)
from wasef.pagemodel import (
    KIND_IFRAME,
    KIND_IMAGE,
    KIND_SCRIPT_ASYNC,
    KIND_SCRIPT_DEFER,
    KIND_SCRIPT_INLINE,
    KIND_SCRIPT_SYNC,
    KIND_STYLESHEET,
    Resource,
    ResourceGraph,
    TextBlock,
)

from conftest import make_graph

TOL = 1e-9
_EPS_BYTES = 1e-6
_EPS_TIME = 1e-15


# --- reference simulator: the original, kept as the oracle ------------------

class _RefFetch:
    __slots__ = ("url", "host", "size", "missing", "seq", "state", "remaining", "done_time")

    def __init__(self, url: str, host: str, size: int, missing: bool, seq: int):
        self.url = url
        self.host = host
        self.size = size
        self.missing = missing
        self.seq = seq
        self.state = "queued"
        self.remaining = float(size)
        self.done_time = 0.0


class _RefPendingPaint:
    __slots__ = ("weight", "fetch", "blockers")

    def __init__(self, weight: float, fetch: _RefFetch | None, blockers: list):
        self.weight = weight
        self.fetch = fetch
        self.blockers = blockers


class RefSimulation:
    def __init__(self, graph: ResourceGraph, net: NetworkProfile, dev: DeviceProfile):
        self.graph = graph
        self.net = net
        self.dev = dev
        self.t = 0.0
        self.seq = itertools.count()
        self.events: list = []  # heap of (time, seq, kind, payload)
        self.transfers: dict[_RefFetch, None] = {}
        self.fetches: dict[str, _RefFetch] = {}
        self.host_active: dict[str, int] = defaultdict(int)
        self.host_queues: dict[str, deque] = defaultdict(deque)

        items: list = list(graph.sub_resources()) + list(graph.text_blocks)
        items.sort(key=lambda item: item.discovery_index)
        self.items = items
        self.item_idx = 0
        self.parse_pos = 0.0
        self.parse_active = False
        self.parse_blocked = False
        self.parse_finished = False
        self.parse_end = 0.0

        self.thread_busy = False
        self.pending_inline: Resource | None = None
        self.pending_sync: Resource | None = None
        self.blocking_fetch: _RefFetch | None = None
        self.blocking_resource: Resource | None = None
        self.async_waiting: dict[int, list[Resource]] = defaultdict(list)  # fetch seq -> tags
        self.async_ready: deque[Resource] = deque()
        self.defer_order: list[Resource] = []
        self.defer_idx = 0

        self.blockers: list[tuple[str, object]] = []  # ("fetch", _RefFetch) | ("exec", id(resource))
        self.exec_done: set[int] = set()
        self.pending_paints: list[_RefPendingPaint] = []
        self.paints: list[tuple[float, float]] = []

        self.js_total = 0.0
        self.plt = 0.0
        self.root_fetch: _RefFetch | None = None

    # -- plumbing -------------------------------------------------------

    def _bump_plt(self, t: float) -> None:
        if t > self.plt:
            self.plt = t

    def _schedule(self, t: float, kind: str, payload) -> None:
        heapq.heappush(self.events, (t, next(self.seq), kind, payload))

    def _host_of(self, url: str) -> str:
        return urlsplit(url).netloc or "local"

    def _issue_fetch(self, url: str, size: int, missing: bool) -> _RefFetch:
        fetch = self.fetches.get(url)
        if fetch is not None:
            return fetch
        fetch = _RefFetch(url, self._host_of(url), size, missing, next(self.seq))
        self.fetches[url] = fetch
        self.host_queues[fetch.host].append(fetch)
        return fetch

    def _pump_hosts(self) -> None:
        for host, queue in self.host_queues.items():
            while queue and self.host_active[host] < self.net.max_connections_per_host:
                fetch = queue.popleft()
                fetch.state = "latency"
                self.host_active[host] += 1
                self._schedule(self.t + self.net.rtt_seconds, "latency_done", fetch)

    def _complete_fetch(self, fetch: _RefFetch) -> None:
        fetch.state = "done"
        fetch.done_time = self.t
        self._bump_plt(self.t)
        self.host_active[fetch.host] -= 1
        if fetch is self.root_fetch:
            self.parse_active = True
        if self.blocking_fetch is fetch:
            self.pending_sync = self.blocking_resource
            self.blocking_fetch = None
        for res in self.async_waiting.pop(fetch.seq, []):
            self.async_ready.append(res)

    # -- main thread ------------------------------------------------------

    def _exec_duration(self, res: Resource) -> float:
        return res.bytes / self.dev.js_exec_bytes_per_sec

    def _start_exec(self, res: Resource, role: str) -> None:
        self.thread_busy = True
        dur = self._exec_duration(res)
        self._schedule(self.t + dur, "task_done", ("exec", res, role, dur))

    def _dispatch_thread(self) -> None:
        if self.thread_busy:
            return
        if self.pending_inline is not None:
            res, self.pending_inline = self.pending_inline, None
            self._start_exec(res, "inline")
            return
        if self.pending_sync is not None:
            res, self.pending_sync = self.pending_sync, None
            self._start_exec(res, "sync")
            return
        if self.parse_active and not self.parse_blocked and not self.parse_finished:
            if self.item_idx < len(self.items):
                target = min(self.items[self.item_idx].doc_offset, float(self.graph.root.bytes))
            else:
                target = float(self.graph.root.bytes)
            dur = max(0.0, target - self.parse_pos) / self.dev.html_parse_bytes_per_sec
            self.thread_busy = True
            self._schedule(self.t + dur, "task_done", ("parse", target))
            return
        if self.parse_finished and self.defer_idx < len(self.defer_order):
            res = self.defer_order[self.defer_idx]
            fetch = self.fetches.get(res.url)
            if fetch is not None and fetch.state == "done":
                self.defer_idx += 1
                self._start_exec(res, "defer")
                return
            # head-of-line defer waits for its fetch; async may fill the gap
        if self.async_ready:
            self._start_exec(self.async_ready.popleft(), "async")

    def _parse_reached(self, target: float) -> None:
        self.parse_pos = target
        if self.item_idx >= len(self.items):
            self.parse_finished = True
            self.parse_end = self.t
            self._bump_plt(self.t)
            return
        item = self.items[self.item_idx]
        self.item_idx += 1
        if isinstance(item, TextBlock):
            if item.weight > 0:
                self.pending_paints.append(_RefPendingPaint(item.weight, None, list(self.blockers)))
            return
        kind = item.kind
        if kind == KIND_SCRIPT_INLINE:
            self.parse_blocked = True
            self.pending_inline = item
        elif kind == KIND_SCRIPT_SYNC:
            fetch = self._issue_fetch(item.url, item.bytes, item.missing)
            self.parse_blocked = True
            self.blockers.append(("exec", id(item)))
            if fetch.state == "done":
                self.pending_sync = item
            else:
                self.blocking_fetch = fetch
                self.blocking_resource = item
        elif kind == KIND_SCRIPT_ASYNC:
            fetch = self._issue_fetch(item.url, item.bytes, item.missing)
            if fetch.state == "done":
                self.async_ready.append(item)
            else:
                self.async_waiting[fetch.seq].append(item)
        elif kind == KIND_SCRIPT_DEFER:
            self._issue_fetch(item.url, item.bytes, item.missing)
            self.defer_order.append(item)
        elif kind == KIND_STYLESHEET:
            fetch = self._issue_fetch(item.url, item.bytes, item.missing)
            self.blockers.append(("fetch", fetch))
        else:  # image, iframe, other: plain fetches
            fetch = self._issue_fetch(item.url, item.bytes, item.missing)
            if kind == KIND_IMAGE and item.visual_weight > 0:
                self.pending_paints.append(_RefPendingPaint(item.visual_weight, fetch, list(self.blockers)))

    def _finish_task(self, payload) -> None:
        self.thread_busy = False
        if payload[0] == "parse":
            self._parse_reached(payload[1])
            return
        _, res, role, dur = payload
        self.js_total += dur
        self.exec_done.add(id(res))
        self._bump_plt(self.t)
        if role in ("inline", "sync"):
            self.parse_blocked = False

    # -- paints -----------------------------------------------------------

    def _blocker_satisfied(self, blocker) -> bool:
        kind, obj = blocker
        if kind == "fetch":
            return obj.state == "done"
        return obj in self.exec_done

    def _check_paints(self) -> None:
        if not self.pending_paints:
            return
        still = []
        for paint in self.pending_paints:
            if paint.fetch is not None and paint.fetch.state != "done":
                still.append(paint)
                continue
            if all(self._blocker_satisfied(b) for b in paint.blockers):
                self.paints.append((self.t, paint.weight))
            else:
                still.append(paint)
        self.pending_paints = still

    # -- engine -----------------------------------------------------------

    def _next_time(self) -> float | None:
        candidates = []
        if self.events:
            candidates.append(self.events[0][0])
        if self.transfers:
            min_rem = min(f.remaining for f in self.transfers)
            candidates.append(
                self.t + min_rem * len(self.transfers) / self.net.bandwidth_bytes_per_sec
            )
        return min(candidates) if candidates else None

    def _advance_to(self, t_next: float) -> None:
        dt = max(0.0, t_next - self.t)
        if self.transfers and dt > 0.0:
            share = self.net.bandwidth_bytes_per_sec * dt / len(self.transfers)
            for fetch in self.transfers:
                fetch.remaining -= share
        self.t = t_next

    def run(self) -> PageMetrics:
        pagemodel.visual_weights(self.graph)  # idempotent; hand-built graphs arrive unweighted
        root = self.graph.root
        self.root_fetch = self._issue_fetch(root.url, root.bytes, root.missing)
        self._pump_hosts()
        self._dispatch_thread()

        while True:
            t_next = self._next_time()
            if t_next is None:
                break
            self._advance_to(t_next)

            batch = []
            while self.events and self.events[0][0] <= self.t + _EPS_TIME:
                _, seq, kind, payload = heapq.heappop(self.events)
                batch.append((seq, kind, payload))
            for fetch in list(self.transfers):
                if fetch.remaining <= _EPS_BYTES:
                    del self.transfers[fetch]
                    batch.append((fetch.seq, "transfer_done", fetch))
            batch.sort(key=lambda ev: ev[0])

            for _, kind, payload in batch:
                if kind == "latency_done":
                    fetch = payload
                    if fetch.size <= 0:
                        self._complete_fetch(fetch)
                    else:
                        fetch.state = "transfer"
                        self.transfers[fetch] = None
                elif kind == "transfer_done":
                    self._complete_fetch(payload)
                elif kind == "task_done":
                    self._finish_task(payload)

            self._pump_hosts()
            self._dispatch_thread()
            self._check_paints()

        return self._finalize()

    def _finalize(self) -> PageMetrics:
        total_weight = self.graph.total_visual_weight
        timeline: list[tuple[float, float]] = []
        if total_weight > 0:
            cumulative = 0.0
            for t, weight in self.paints:
                cumulative += weight
                vc = cumulative / total_weight
                if timeline and timeline[-1][0] == t:
                    timeline[-1] = (t, vc)
                else:
                    timeline.append((t, vc))
            if timeline and abs(timeline[-1][1] - 1.0) < 1e-9:
                timeline[-1] = (timeline[-1][0], 1.0)
        if timeline:
            fcp = timeline[0][0]
            si = speed_index(timeline)
        else:
            fcp = self.plt  # zero-visual convention
            si = fcp
        page_size = sum(f.size for f in self.fetches.values())
        cpu = self.js_total + self.graph.root.bytes / self.dev.html_parse_bytes_per_sec
        alpha, beta = self.dev.cost_coefficients
        return PageMetrics(
            fcp_seconds=fcp,
            plt_seconds=self.plt,
            speed_index_seconds=si,
            js_processing_seconds=self.js_total,
            page_size_bytes=page_size,
            request_count=len(self.fetches),
            cpu_proxy_seconds=cpu,
            energy_proxy_units=alpha * cpu + beta * page_size,
            memory_proxy_bytes=page_size,
            paint_timeline=timeline,
        )


# --- random graphs ------------------------------------------------------------

HOSTS = ("http://h.test", "http://cdn.test", "http://img.test")
KINDS = ("text", KIND_STYLESHEET, KIND_SCRIPT_SYNC, KIND_SCRIPT_INLINE, KIND_SCRIPT_ASYNC,
         KIND_SCRIPT_DEFER, KIND_IMAGE, "image-again", KIND_IFRAME)


@st.composite
def page_specs(draw):
    """(root_bytes, items, missing positions, NetworkProfile, DeviceProfile)."""
    hosts = HOSTS[: draw(st.integers(2, 3))]
    root_bytes = draw(st.integers(1, 100_000))
    count = draw(st.integers(0, 60))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=count, max_size=count))
    offset = st.one_of(st.just(0), st.integers(0, root_bytes))
    offsets = sorted(draw(st.lists(offset, min_size=len(kinds), max_size=len(kinds))))
    # Few distinct sizes and URLs, so fetches tie and URLs repeat across kinds.
    size = st.one_of(st.sampled_from([0, 0, 2000, 5000]), st.integers(1, 200_000))
    items, images = [], []
    for kind, offset in zip(kinds, offsets):
        if kind == "text":
            items.append(("text", draw(st.integers(0, 300)), float(offset)))
            continue
        if kind == "image-again":
            if images:
                items.append((KIND_IMAGE, draw(size), float(offset), draw(st.sampled_from(images))))
                continue
            kind = KIND_IMAGE
        url = f"{draw(st.sampled_from(hosts))}/r{draw(st.integers(0, 5))}"
        if kind == KIND_IMAGE:
            images.append(url)
        items.append((kind, draw(size), float(offset), url))
    missing = draw(st.sets(st.integers(0, max(len(items) - 1, 0)), max_size=4))
    net = NetworkProfile(
        draw(st.sampled_from([50_000.0, 200_000.0, 12_500_000.0])),
        draw(st.sampled_from([0.0, 0.05, 0.4])),
        draw(st.integers(1, 6)),
    )
    dev = draw(st.sampled_from([DeviceProfile(), DeviceProfile(1e6, 2e7, "highend")]))
    return root_bytes, items, missing, net, dev


def build_graph(spec):
    root_bytes, items, missing, _, _ = spec
    graph = make_graph(root_bytes, items)
    elements = sorted(graph.sub_resources() + graph.text_blocks, key=lambda el: el.discovery_index)
    for position in missing:
        if position < len(elements) and isinstance(elements[position], Resource):
            elements[position].missing = True
    return graph


# An iframe and a later image share a URL, and an image between them has a
# fetch of the same size, so both fetches land in one batch, the later
# image's first: a check that releases paints out of creation order shows.
SAME_BATCH_IMAGES = (
    1000,
    [(KIND_IFRAME, 5000, 0.0, "http://cdn.test/u"), (KIND_IMAGE, 5000, 0.0, "http://h.test/a"),
     (KIND_IMAGE, 3000, 0.0, "http://cdn.test/u")],
    set(), NetworkProfile(200_000.0, 0.4, 6), DeviceProfile(),
)

@settings(max_examples=300, deadline=None)
@example(SAME_BATCH_IMAGES)
@given(page_specs())
def test_simulator_equals_reference(spec):
    net, dev = spec[3], spec[4]
    sim = loadsim._Simulation(build_graph(spec), net, dev)
    ref = RefSimulation(build_graph(spec), net, dev)
    metrics, expected = sim.run(), ref.run()
    assert sim.paints == ref.paints
    assert metrics == expected
    if metrics.paint_timeline:
        assert metrics.fcp_seconds <= metrics.speed_index_seconds + TOL
        assert metrics.speed_index_seconds <= metrics.plt_seconds + TOL


# --- scale -------------------------------------------------------------------

# perfbench/widepages.py's make-up of every 20-tag section
SECTION = ["css"] * 3 + ["img"] * 4 + ["img-again"] + ["p"] * 7 + ["js"] * 3 + ["js-3p"] * 2


def wide_graph(sections, seed=0):
    rng = random.Random(seed)
    items, images = [], []
    offset = 200
    for section in range(sections):
        kinds = list(SECTION)
        rng.shuffle(kinds)
        for j, kind in enumerate(kinds):
            k = section * len(SECTION) + j
            if kind == "css":
                items.append((KIND_STYLESHEET, rng.randint(830, 3030), offset, f"css/s{k}.css"))
            elif kind == "img" or (kind == "img-again" and not images):
                images.append((KIND_IMAGE, rng.randint(2000, 20000), offset, f"img/i{k}.png"))
                items.append(images[-1])
            elif kind == "img-again":  # a repeated reference, fetched once
                _, size, _, name = rng.choice(images)
                items.append((KIND_IMAGE, size, offset, name))
            elif kind == "p":
                items.append(("text", rng.randint(60, 300), offset))
            elif kind == "js":
                items.append((KIND_SCRIPT_ASYNC, 16, offset, f"js/a{k}.js"))
            else:
                items.append((KIND_SCRIPT_ASYNC, 16, offset, f"http://cdn.test/t/{k}.js"))
            offset += 60
    return make_graph(offset + 30, items)


def test_wide_page_simulates_in_linear_time():
    graph = wide_graph(180)  # 3600 tags
    assert len(graph.sub_resources()) == 2340
    started = time.perf_counter()
    metrics = simulate_load(graph, NETWORK_PROFILES["3g"], DeviceProfile())
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"2340 resources simulated in {elapsed:.2f}s"
    assert metrics.fcp_seconds <= metrics.speed_index_seconds + TOL
    assert metrics.speed_index_seconds <= metrics.plt_seconds + TOL
