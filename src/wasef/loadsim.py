"""Deterministic event-driven page-load simulation over a resource graph.

Model, in full:

* Fetch: every resource fetch pays one RTT of request latency (no bytes
  flow during it), then its body transfers on a single shared downlink whose
  bandwidth is divided equally among all in-flight transfers, recomputed at
  every event boundary. At most ``max_connections_per_host`` fetches (latency
  or transfer phase) run per host; the rest queue FIFO per host.
* Root: the HTML fetch starts at t = 0; parsing begins once it completes.
* Parser: consumes the document at the device parse rate. Reaching a tag
  issues its fetch. A synchronous external script blocks the parser until it
  is fetched and executed; an inline script executes immediately. Script
  execution occupies the single main thread for bytes / js_exec rate. Async
  scripts execute FIFO as their fetches land, whenever the thread is free;
  deferred scripts execute in document order after parsing completes.
* Paint: a text block paints once the parser has passed it and every
  stylesheet discovered before it has been fetched; an image additionally
  waits for its own fetch. A sync script gates every later paint as well,
  yet needs no entry among the paint blockers: the parser reads no further
  until the script has executed, so each paint it gates is created after
  that. The event loop only records each paint's creation mark and each
  fetch's completion mark, both as (step, time) with step counting loop
  iterations; after the run a paint lands at the latest of its creation
  mark, its earlier stylesheets' completion marks and its own fetch's.
  Paints go in (landing mark, creation) order. Marks compare by step first,
  since several steps can share one time. Visual completeness at time t is
  painted weight over total weight.
  Weights are the graph's derived ones: an image weighs its byte size, a
  text block its character count times pagemodel.TEXT_WEIGHT_PER_CHAR, and
  everything else nothing.
* Ties: simultaneous events process in (time, sequence) order with sequence
  numbers assigned at scheduling time, so runs are bit-identical.

Engine: each loop step moves time to the earliest of the next scheduled
event and the next transfer to finish, which it finds from the least
remaining byte count among the transfers, kept as they advance. It advances
every transfer by its share of the link and takes out the finished ones in
one scan, then handles that step's events in sequence order. It then pumps
the host queues only when, during the step, a fetch was queued on a host
with a free connection or a connection freed on a host with fetches
waiting, and offers the main thread work only when it is free and a fetch
completed or a task finished during the step. Both skips are exact. After a
pump every host has an empty queue or no free connection, and only those
two can change that, so any other pump would start nothing.
A busy thread takes no task. Only a completed fetch or a finished task can
make a task ready (the parser's next stretch, a sync, deferred or async
script), so a free thread that found nothing ready finds nothing until one
of them happens, and _dispatch_thread that starts nothing changes nothing.
Each URL's host comes from a memo shared by every load in the process.

Duplicate URLs are fetched once. A fetch's size is the resource's ``bytes``;
``Resource.missing`` is never read. pagemodel.parse_page binds a resource
absent from the archive with 0 bytes, so a missing resource costs one RTT and
transfers nothing (a fast 404).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from urllib.parse import urlsplit

from .pagemodel import (
    KIND_HTML,
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

_EPS_BYTES = 1e-6
_EPS_TIME = 1e-15
_seq_of = itemgetter(1)  # an event's (time, seq, kind, payload) sequence number


@lru_cache(maxsize=4096)
def _host_of(url: str) -> str:
    """The host whose connections a fetch of ``url`` takes. Memoised per
    worker process, as pagemodel._resolve_url is: a page's variants fetch
    the URLs its original fetched. The function is pure, so the memo never
    needs emptying."""
    return urlsplit(url).netloc or "local"


@dataclass(frozen=True)
class NetworkProfile:
    bandwidth_bytes_per_sec: float
    rtt_seconds: float
    max_connections_per_host: int = 6
    name: str = ""

    def __post_init__(self):
        if not 0 < self.bandwidth_bytes_per_sec < math.inf:
            raise ValueError(
                f"bandwidth_bytes_per_sec must be positive and finite, got {self.bandwidth_bytes_per_sec}"
            )
        if not 0 <= self.rtt_seconds < math.inf:
            raise ValueError(f"rtt_seconds must be non-negative and finite, got {self.rtt_seconds}")
        connections = self.max_connections_per_host
        if isinstance(connections, bool) or not isinstance(connections, int) or connections < 1:
            raise ValueError(f"max_connections_per_host must be an integer >= 1, got {connections!r}")


@dataclass(frozen=True)
class DeviceProfile:
    js_exec_bytes_per_sec: float = 100000.0
    html_parse_bytes_per_sec: float = 2000000.0
    name: str = "lowend"
    cost_coefficients: tuple[float, float] = (1.0, 1e-6)  # (alpha_cpu, beta_bytes)

    def __post_init__(self):
        for name in ("js_exec_bytes_per_sec", "html_parse_bytes_per_sec"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


# 1.6 Mbps is 200000 bytes/sec.
NETWORK_PROFILES = {
    "3g": NetworkProfile(200000.0, 0.4, 6, "3g"),
    "wifi": NetworkProfile(12500000.0, 0.05, 6, "wifi"),
}

DEVICE_PROFILES = {
    "lowend": DeviceProfile(100000.0, 2000000.0, "lowend", (1.0, 1e-6)),
    "highend": DeviceProfile(1000000.0, 20000000.0, "highend", (1.0, 1e-6)),
}


@dataclass
class PageMetrics:
    fcp_seconds: float
    plt_seconds: float
    speed_index_seconds: float
    js_processing_seconds: float
    page_size_bytes: int
    request_count: int
    cpu_proxy_seconds: float
    energy_proxy_units: float
    memory_proxy_bytes: int
    paint_timeline: list[tuple[float, float]] = field(default_factory=list)


def speed_index(paint_timeline: list[tuple[float, float]], fcp: float = 0.0) -> float:
    """Integral of (1 - visual completeness) from 0 to the last paint, exact
    for the right-continuous step timeline. An empty timeline is the
    zero-visual convention and returns the supplied FCP."""
    if not paint_timeline:
        return fcp
    total = 0.0
    prev_t = 0.0
    prev_vc = 0.0
    for t, vc in paint_timeline:
        total += (t - prev_t) * (1.0 - prev_vc)
        prev_t, prev_vc = t, vc
    return total


class _Fetch:
    __slots__ = ("url", "host", "size", "seq", "done_at", "remaining")

    def __init__(self, url: str, host: str, size: int, seq: int):
        self.url = url
        self.host = host
        self.size = size
        self.seq = seq
        self.done_at: tuple[int, float] | None = None  # (step, time) of completion
        self.remaining = float(size)


class _Simulation:
    def __init__(self, graph: ResourceGraph, net: NetworkProfile, dev: DeviceProfile):
        self.graph = graph
        self.net = net
        self.dev = dev
        self.t = 0.0
        self.step = 0  # event-loop iterations so far
        self.seq = itertools.count()
        self.events: list = []  # heap of (time, seq, kind, payload)
        self.transfers: dict[_Fetch, None] = {}
        self.fetches: dict[str, _Fetch] = {}
        self.host_active: dict[str, int] = defaultdict(int)
        self.host_queues: dict[str, deque] = defaultdict(deque)
        # Whether a fetch was queued on a host with a free connection, or a
        # connection freed on a host with fetches waiting, since the last
        # _pump_hosts; without either, a pump starts nothing.
        self.pump_needed = False

        items: list = list(graph.sub_resources()) + list(graph.text_blocks)
        items.sort(key=lambda item: item.discovery_index)
        self.items = items
        self.item_idx = 0
        self.parse_pos = 0.0
        self.parse_finished = False

        self.thread_busy = False
        # The inline or sync script the parser waits on, and for a sync one
        # its fetch (None for inline). The parser reads no further while one
        # is set, so at most one is pending at a time.
        self.blocking_script: Resource | None = None
        self.blocking_fetch: _Fetch | None = None
        self.async_waiting: dict[_Fetch, list[Resource]] = defaultdict(list)
        self.async_ready: deque[Resource] = deque()
        self.defer_queue: deque[Resource] = deque()

        self.blockers: list[_Fetch] = []  # render-blocking stylesheet fetches
        # (step, time, blocker prefix, weight, own fetch or None) per paint,
        # in creation order; _finalize turns them into landed paints.
        self.paint_marks: list[tuple[int, float, int, float, _Fetch | None]] = []
        self.paints: list[tuple[float, float]] = []

        self.js_total = 0.0
        self.plt = 0.0
        self.root_fetch: _Fetch | None = None

    # -- plumbing -------------------------------------------------------

    def _bump_plt(self, t: float) -> None:
        if t > self.plt:
            self.plt = t

    def _schedule(self, t: float, kind: str, payload) -> None:
        heapq.heappush(self.events, (t, next(self.seq), kind, payload))

    def _issue_fetch(self, res: Resource) -> _Fetch:
        fetch = self.fetches.get(res.url)
        if fetch is not None:
            return fetch
        fetch = _Fetch(res.url, _host_of(res.url), res.bytes, next(self.seq))
        self.fetches[res.url] = fetch
        self.host_queues[fetch.host].append(fetch)
        if self.host_active[fetch.host] < self.net.max_connections_per_host:
            self.pump_needed = True  # else it waits for a connection, and _complete_fetch asks then
        return fetch

    def _pump_hosts(self) -> None:
        self.pump_needed = False
        for host, queue in self.host_queues.items():
            while queue and self.host_active[host] < self.net.max_connections_per_host:
                fetch = queue.popleft()
                self.host_active[host] += 1
                self._schedule(self.t + self.net.rtt_seconds, "latency_done", fetch)

    def _complete_fetch(self, fetch: _Fetch) -> None:
        fetch.done_at = (self.step, self.t)
        self._bump_plt(self.t)
        self.host_active[fetch.host] -= 1
        if self.host_queues[fetch.host]:  # else the freed connection has nothing to start
            self.pump_needed = True
        self.async_ready += self.async_waiting.pop(fetch, ())

    # -- main thread ------------------------------------------------------

    def _exec_duration(self, res: Resource) -> float:
        return res.bytes / self.dev.js_exec_bytes_per_sec

    def _start_exec(self, res: Resource, blocking: bool) -> None:
        self.thread_busy = True
        dur = self._exec_duration(res)
        self._schedule(self.t + dur, "task_done", ("exec", res, blocking, dur))

    def _dispatch_thread(self) -> None:
        """Start the next main-thread task, if any is ready; run calls it
        only while the thread is free, after a step that completed a fetch or
        finished a task."""
        if self.blocking_script is not None:
            if self.blocking_fetch is None or self.blocking_fetch.done_at is not None:
                self._start_exec(self.blocking_script, True)
                return
        elif self.root_fetch.done_at is not None and not self.parse_finished:
            if self.item_idx < len(self.items):
                target = min(self.items[self.item_idx].doc_offset, float(self.graph.root.bytes))
            else:
                target = float(self.graph.root.bytes)
            dur = max(0.0, target - self.parse_pos) / self.dev.html_parse_bytes_per_sec
            self.thread_busy = True
            self._schedule(self.t + dur, "task_done", ("parse", target))
            return
        if self.parse_finished and self.defer_queue:
            if self.fetches[self.defer_queue[0].url].done_at is not None:
                self._start_exec(self.defer_queue.popleft(), False)
                return
            # head-of-line defer waits for its fetch; async may fill the gap
        if self.async_ready:
            self._start_exec(self.async_ready.popleft(), False)

    def _parse_reached(self, target: float) -> None:
        self.parse_pos = target
        if self.item_idx >= len(self.items):
            self.parse_finished = True
            self._bump_plt(self.t)
            return
        item = self.items[self.item_idx]
        self.item_idx += 1
        if isinstance(item, TextBlock):
            if item.weight > 0:
                self._add_paint(item.weight, None)
            return
        kind = item.kind
        if kind == KIND_SCRIPT_INLINE:
            self.blocking_script = item
        elif kind == KIND_SCRIPT_SYNC:
            self.blocking_script = item
            self.blocking_fetch = self._issue_fetch(item)
        elif kind == KIND_SCRIPT_ASYNC:
            fetch = self._issue_fetch(item)
            if fetch.done_at is not None:
                self.async_ready.append(item)
            else:
                self.async_waiting[fetch].append(item)
        elif kind == KIND_SCRIPT_DEFER:
            self._issue_fetch(item)
            self.defer_queue.append(item)
        elif kind == KIND_STYLESHEET:
            self.blockers.append(self._issue_fetch(item))
        else:  # image, iframe, other: plain fetches
            fetch = self._issue_fetch(item)
            if kind == KIND_IMAGE and item.visual_weight > 0:
                self._add_paint(item.visual_weight, fetch)

    def _finish_task(self, payload) -> None:
        self.thread_busy = False
        if payload[0] == "parse":
            self._parse_reached(payload[1])
            return
        _, res, blocking, dur = payload
        self.js_total += dur
        self._bump_plt(self.t)
        if blocking:
            self.blocking_script = self.blocking_fetch = None

    def _add_paint(self, weight: float, fetch: _Fetch | None) -> None:
        self.paint_marks.append((self.step, self.t, len(self.blockers), weight, fetch))

    # -- engine -----------------------------------------------------------

    def run(self) -> PageMetrics:
        events, transfers = self.events, self.transfers
        bandwidth = self.net.bandwidth_bytes_per_sec
        self.root_fetch = self._issue_fetch(self.graph.root)
        self._pump_hosts()
        self._dispatch_thread()
        min_rem = math.inf  # least remaining bytes among the transfers

        while events or transfers:
            t = self.t
            if transfers:
                t_next = t + min_rem * len(transfers) / bandwidth
                if events and events[0][0] < t_next:
                    t_next = events[0][0]
            else:
                t_next = events[0][0]
            self.step += 1
            self.t = t_next

            # Advance every transfer to t_next and take out the finished ones
            # in one scan, in transfer insertion order.
            dt = t_next - t
            share = bandwidth * dt / len(transfers) if transfers and dt > 0.0 else 0.0
            min_rem = math.inf
            done = []
            for fetch in transfers:
                if share:
                    fetch.remaining -= share
                remaining = fetch.remaining
                if remaining <= _EPS_BYTES:
                    done.append(fetch)
                elif remaining < min_rem:
                    min_rem = remaining

            batch = []
            horizon = t_next + _EPS_TIME
            while events and events[0][0] <= horizon:
                batch.append(heapq.heappop(events))
            for fetch in done:
                del transfers[fetch]
                batch.append((t_next, fetch.seq, "transfer_done", fetch))
            if len(batch) > 1:
                batch.sort(key=_seq_of)

            ready_changed = False  # a fetch completed or a task finished
            for _, _, kind, payload in batch:
                if kind == "latency_done":
                    fetch = payload
                    if fetch.size <= 0:
                        self._complete_fetch(fetch)
                        ready_changed = True
                    else:
                        transfers[fetch] = None
                        if fetch.remaining < min_rem:
                            min_rem = fetch.remaining
                elif kind == "transfer_done":
                    self._complete_fetch(payload)
                    ready_changed = True
                elif kind == "task_done":
                    self._finish_task(payload)
                    ready_changed = True

            if self.pump_needed:
                self._pump_hosts()
            if ready_changed and not self.thread_busy:
                self._dispatch_thread()

        return self._finalize()

    def _finalize(self) -> PageMetrics:
        # gates[k] is the latest completion mark among blockers[:k].
        gates = list(itertools.accumulate((b.done_at for b in self.blockers), max, initial=(0, 0.0)))
        landings = []
        for order, (step, t, prefix, weight, fetch) in enumerate(self.paint_marks):
            mark = max((step, t), gates[prefix])
            if fetch is not None:
                mark = max(mark, fetch.done_at)
            landings.append((mark, order, weight))
        landings.sort()
        self.paints = [(t, weight) for (_, t), _, weight in landings]

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


def simulate_load(graph: ResourceGraph, net: NetworkProfile, dev: DeviceProfile) -> PageMetrics:
    """Simulate one page load; all times in seconds, bit-deterministic."""
    return _Simulation(graph, net, dev).run()
