"""Serves an archived page over plain HTTP with optional bandwidth/RTT
shaping, so real clients can load frozen pages.

Lookup ignores the URL scheme: archived https resources answer plain-http
requests matched on (host, path, query), and a request whose Host header
matches no archived host falls back to path+query lookup against the whole
page. Every 404 is recorded in an arrival-ordered miss log.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .archive import ArchivedPage
from .errors import BindError

log = logging.getLogger(__name__)

_HOP_BY_HOP = {
    "connection",
    "keep-alive",
    "proxy-authenticate",
    "proxy-authorization",
    "te",
    "trailer",
    "transfer-encoding",
    "upgrade",
    "content-length",  # recomputed from the decoded body
    "content-encoding",  # bodies are stored decoded
}

_CHUNK_QUANTUM = 0.01  # shaped bodies go out in chunks of this many seconds of transfer


@dataclass
class ShapingConfig:
    downlink_bytes_per_sec: float = 0.0
    rtt_seconds: float = 0.0
    enabled: bool = False

    def __post_init__(self):
        if self.enabled and self.downlink_bytes_per_sec <= 0:
            raise ValueError("downlink_bytes_per_sec must be positive when shaping is enabled")


class _TokenBucket:
    """Shared downlink throttle on a virtual clock. Each consume() books the
    link for amount/rate seconds, from now or from the end of the previous
    booking if that is later, and sleeps until its booking ends. Idle time
    banks nothing, so an N-byte response takes at least N/rate seconds of
    wall clock. ``capacity`` is the chunk size senders consume at a time."""

    def __init__(self, rate: float):
        self.rate = rate
        self.capacity = max(1.0, rate * _CHUNK_QUANTUM)
        self.next_free = 0.0  # monotonic time the link is booked until
        self.lock = threading.Lock()

    def consume(self, amount: float) -> None:
        with self.lock:
            self.next_free = max(time.monotonic(), self.next_free) + amount / self.rate
            until = self.next_free
        wait = until - time.monotonic()
        if wait > 0:
            time.sleep(wait)


def _path_query(url: str) -> str:
    parts = urlsplit(url)
    path = parts.path or "/"
    return f"{path}?{parts.query}" if parts.query else path


class _ReplayHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _respond(self):
        try:
            self._lookup_and_send()
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception:
            log.exception("replay: %s %s failed; answering 400", self.command, self.path)
            try:
                self.send_error(400)
            except Exception:
                pass

    do_GET = _respond
    do_POST = _respond
    do_HEAD = _respond

    def _lookup_and_send(self):
        server = self.server
        method = "GET" if self.command == "HEAD" else self.command
        host = (self.headers.get("Host") or "").strip().lower()
        path_query = self.path or "/"
        exchange = server.index_by_host.get((method, host, path_query))
        if exchange is None:
            exchange = server.index_by_path.get((method, path_query))
        if exchange is None:
            missed = f"http://{host or 'unknown'}{path_query}"
            with server.miss_lock:
                server.misses.append(missed)
            body = json.dumps({"miss": missed}).encode("utf-8")
            self._send(404, [("Content-Type", "application/json")], body)
            return
        headers = [
            (name, value)
            for name, value in exchange.headers
            if name.lower() not in _HOP_BY_HOP
        ]
        self._send(exchange.status, headers, exchange.body)

    def _send(self, status: int, headers: list[tuple[str, str]], body: bytes):
        shaping = self.server.shaping
        if shaping.enabled and shaping.rtt_seconds > 0:
            time.sleep(shaping.rtt_seconds / 2)  # one-way first-byte delay
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command == "HEAD":
            return
        bucket = self.server.bucket
        if bucket is None:
            self.wfile.write(body)
            return
        chunk = max(1, int(bucket.capacity))
        for start in range(0, len(body), chunk):
            piece = body[start : start + chunk]
            bucket.consume(len(piece))
            self.wfile.write(piece)
        self.wfile.flush()


class ReplayServer:
    """A running replay server; use serve() to construct one."""

    def __init__(self, page: ArchivedPage, host: str, port: int, shaping: ShapingConfig):
        index_by_host: dict[tuple[str, str, str], object] = {}
        index_by_path: dict[tuple[str, str], object] = {}
        for (method, url), exchange in page.exchanges.items():
            parts = urlsplit(url)
            pq = _path_query(url)
            index_by_host.setdefault((method, parts.netloc.lower(), pq), exchange)
            index_by_path.setdefault((method, pq), exchange)
        try:
            self._httpd = ThreadingHTTPServer((host, port), _ReplayHandler)
        except OSError as exc:
            raise BindError(f"cannot bind {host}:{port}: {exc}") from exc
        self._httpd.daemon_threads = True
        self._httpd.index_by_host = index_by_host
        self._httpd.index_by_path = index_by_path
        self._httpd.shaping = shaping
        self._httpd.bucket = (
            _TokenBucket(shaping.downlink_bytes_per_sec) if shaping.enabled else None
        )
        self._httpd.misses = []
        self._httpd.miss_lock = threading.Lock()
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "ReplayServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def miss_log(self) -> list[str]:
        """Every 404-served URL, once per request, in arrival order."""
        with self._httpd.miss_lock:
            return list(self._httpd.misses)

    def __enter__(self) -> "ReplayServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(page: ArchivedPage, bind_address: str = "127.0.0.1:0",
          shaping: ShapingConfig | None = None) -> ReplayServer:
    """Start serving a page; returns the running server handle.

    ``bind_address`` is host:port; port 0 picks a free port (see .port).
    """
    host, _, port_text = bind_address.partition(":")
    try:
        port = int(port_text or "0")
    except ValueError:
        raise BindError(f"invalid bind address {bind_address!r}") from None
    server = ReplayServer(page, host or "127.0.0.1", port, shaping or ShapingConfig())
    return server.start()
