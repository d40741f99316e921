"""Serves an archived page over plain HTTP/1.1 with optional bandwidth/RTT
shaping, so real clients can load frozen pages.

Lookup ignores the URL scheme: archived https resources answer plain-http
requests matched on (host, path, query), and a request whose Host header
matches no archived host falls back to path+query lookup against the whole
page. A target in absolute form (``GET http://host/path``) names its host
itself and its Host header is ignored, as RFC 9112 section 3.2.2 asks of a
server. Every 404 is recorded in an arrival-ordered miss log.

Each connection runs one keep-alive loop that reads requests in order,
pipelined ones included:

- The request line must be ``METHOD TARGET HTTP/x.y``. Any other shape,
  a two-word HTTP/0.9 line included, gets 400; a version of 2.0 or above
  gets 505; a method other than GET, HEAD and POST gets 501. A request
  line over 65536 bytes gets 414. A blank line or the end of the stream
  ends the connection without an answer.
- A header line over 65536 bytes, or 100 header fields or more (more than
  100 lines with the blank line that ends them), gets 431. Only the first
  ``Host`` and every ``Connection``, ``Content-Length``,
  ``Transfer-Encoding`` and ``Expect`` are read; other fields are skipped.
- An HTTP/1.1 request with ``Expect: 100-continue`` gets ``100 Continue``
  before its body is read. A body of ``Content-Length`` bytes is read and
  dropped before the answer, and a length that is not digits, or that
  differs between two fields, gets 400. A request with
  ``Transfer-Encoding`` is answered without reading its body, and the
  connection then closes.
- The connection closes after an error status, after ``Connection:
  close``, and after an HTTP/1.0 request without ``Connection:
  keep-alive``.
- An answer's head is the status line with its ``http.HTTPStatus`` reason
  phrase, ``Server``, ``Date``, the archived headers without hop-by-hop
  ones, and ``Content-Length``. An error answer has ``Connection: close``
  and a one-line text body in place of archived headers and body. A HEAD
  request gets the head alone.

Each archived exchange's head is encoded once, when the server starts;
per answer only the Date line, formatted at most once a second, is
joined in. Sockets run with TCP_NODELAY, and an unshaped answer's head and
body go out in one ``sendmsg``, so the body is not copied and no second
small write waits for the client's delayed ACK. Shaped bodies go out in
chunks booked on one shared link clock: a response's first chunk books
from now or from the end of the link's last booking, whichever is later,
so idle time banks nothing; each later chunk books from the end of the
link's last booking, never from now, so sleep overshoot and write time
are made up and a body of N bytes takes N/rate seconds, not more.
"""

from __future__ import annotations

import json
import logging
import math
import re
import socketserver
import sys
import threading
import time
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
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

_MAX_LINE = 65536  # bytes in the request line or in one header line
_MAX_HEAD_LINES = 100  # header lines, the blank line that ends them included
_MAX_LENGTH_DIGITS = 18  # a longer Content-Length is no body this server can take
_VERSION = re.compile(r"HTTP/(\d{1,9})\.(\d{1,9})", re.ASCII)
_METHODS = frozenset({"GET", "HEAD", "POST"})
_END_OF_HEAD = (b"\r\n", b"\n", b"")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_SERVER_LINE = f"Server: Python/{sys.version.split()[0]}\r\n".encode("ascii")


@dataclass
class ShapingConfig:
    downlink_bytes_per_sec: float = 0.0
    rtt_seconds: float = 0.0
    enabled: bool = False

    def __post_init__(self):
        if self.enabled and not 0 < self.downlink_bytes_per_sec < math.inf:
            raise ValueError(
                f"downlink_bytes_per_sec must be positive and finite when shaping is "
                f"enabled, got {self.downlink_bytes_per_sec}"
            )
        if not 0 <= self.rtt_seconds < math.inf:
            raise ValueError(f"rtt_seconds must be non-negative and finite, got {self.rtt_seconds}")


class _TokenBucket:
    """Shared downlink throttle on a virtual clock. Each consume() books the
    link for amount/rate seconds and sleeps until its booking ends. A first
    chunk books from now or from the end of the link's last booking if that
    is later, so idle time banks nothing and an N-byte response takes at
    least N/rate seconds of wall clock. A continuing chunk of the same
    response books from the end of the link's last booking, so the time the
    sender lost to sleep overshoot and writing is made up. ``capacity`` is
    the chunk size senders consume at a time."""

    def __init__(self, rate: float):
        self.rate = rate
        self.capacity = max(1.0, rate * _CHUNK_QUANTUM)
        self.next_free = 0.0  # monotonic time the link is booked until
        self.lock = threading.Lock()

    def consume(self, amount: float, continuing: bool = False) -> None:
        with self.lock:
            start = self.next_free if continuing else max(time.monotonic(), self.next_free)
            self.next_free = start + amount / self.rate
            until = self.next_free
        wait = until - time.monotonic()
        if wait > 0:
            time.sleep(wait)


def _path_query(url: str) -> str:
    parts = urlsplit(url)
    path = parts.path or "/"
    return f"{path}?{parts.query}" if parts.query else path


def _field_line(name: str, value: str) -> bytes:
    line = f"{name}: {value}\r\n"
    try:
        return line.encode("latin-1")
    except UnicodeEncodeError:  # archived text beyond latin-1 goes out as its UTF-8 octets
        return line.encode("utf-8")


class _Response:
    """A status, headers and body, with the head encoded once around the
    Date line that each send fills in."""

    __slots__ = ("before_date", "after_date", "body")

    def __init__(self, status: int, headers: list[tuple[str, str]], body: bytes):
        try:
            reason = HTTPStatus(status).phrase
        except ValueError:
            reason = ""
        self.before_date = f"HTTP/1.1 {status} {reason}\r\n".encode("latin-1") + _SERVER_LINE
        self.after_date = (
            b"".join(_field_line(name, value) for name, value in headers)
            + b"Content-Length: %d\r\n\r\n" % len(body)
        )
        self.body = body


_ERRORS = {
    status: _Response(
        status,
        [("Connection", "close"), ("Content-Type", "text/plain; charset=utf-8")],
        f"{status} {HTTPStatus(status).phrase}\n".encode("ascii"),
    )
    for status in (400, 414, 431, 501, 505)
}


def _send_all(sock, parts: list[bytes]) -> None:
    """Write ``parts`` with one sendmsg, finishing with sendall when a
    signal cut the write short."""
    sent = sock.sendmsg(parts)
    if sent < sum(map(len, parts)):
        sock.sendall(memoryview(b"".join(parts))[sent:])


class _ReplayHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # sets TCP_NODELAY on each connection

    def handle(self):
        try:
            while self._handle_one():
                pass
        except ConnectionError:
            pass

    def _handle_one(self) -> bool:
        """Read one request and answer it. Returns whether the connection
        stays open for the next one."""
        readline = self.rfile.readline
        self.command = None
        line = readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            return self._send_error(414)
        words = line.decode("latin-1").split()
        if not words:
            return False
        if len(words) != 3 or not (version := _VERSION.fullmatch(words[2])):
            return self._send_error(400)
        version = (int(version[1]), int(version[2]))
        if version >= (2, 0):
            return self._send_error(505)
        self.command, self.path = words[0], words[1]
        self.host = None
        connection: set[bytes] = set()
        lengths: set[bytes] = set()
        transfer_encoding = expect_continue = False
        for _ in range(_MAX_HEAD_LINES):
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                return self._send_error(431)
            if line in _END_OF_HEAD:
                break
            name, _, value = line.partition(b":")
            name = name.lower()
            if name == b"host":
                if self.host is None:
                    self.host = value.decode("latin-1").strip().lower()
            elif name == b"connection":
                connection.update(option.strip() for option in value.lower().split(b","))
            elif name == b"content-length":
                lengths.add(value.strip())
            elif name == b"transfer-encoding":
                transfer_encoding = True
            elif name == b"expect":
                expect_continue = value.strip().lower() == b"100-continue"
        else:
            return self._send_error(431)

        keep_alive = b"close" not in connection and (version >= (1, 1) or b"keep-alive" in connection)
        if self.command not in _METHODS:
            return self._send_error(501)
        if expect_continue and version >= (1, 1):
            self.connection.sendall(_CONTINUE)
        if transfer_encoding:
            keep_alive = False  # its body is left unread, so nothing after it can be framed
        elif lengths:
            length = lengths.pop()
            if lengths or not length.isdigit() or len(length) > _MAX_LENGTH_DIGITS:
                return self._send_error(400)
            if not self._discard(int(length)):
                return False
        try:
            self._lookup_and_send()
        except ConnectionError:
            return False
        except Exception:
            log.exception("replay: %s %s failed; answering 400", self.command, self.path)
            return self._send_error(400)
        return keep_alive

    def _discard(self, length: int) -> bool:
        """Read and drop a request body; False when the stream ends first."""
        while length > 0:
            chunk = self.rfile.read(min(length, 65536))
            if not chunk:
                return False
            length -= len(chunk)
        return True

    def _lookup_and_send(self):
        server = self.server
        method = "GET" if self.command == "HEAD" else self.command
        host, path_query = self.host or "", self.path
        if not path_query.startswith("/"):
            parts = urlsplit(path_query)
            if parts.netloc:  # absolute form
                host, path_query = parts.netloc.lower(), _path_query(path_query)
        response = server.by_host.get((method, host, path_query))
        if response is None:
            response = server.by_path.get((method, path_query))
        if response is None:
            missed = f"http://{host or 'unknown'}{path_query}"
            with server.miss_lock:
                server.misses.append(missed)
            body = json.dumps({"miss": missed}).encode("utf-8")
            response = _Response(404, [("Content-Type", "application/json")], body)
        self._send(response)

    def _send(self, response: _Response) -> None:
        server = self.server
        shaping = server.shaping
        if shaping.enabled and shaping.rtt_seconds > 0:
            time.sleep(shaping.rtt_seconds / 2)  # one-way first-byte delay
        head = [response.before_date, server.date_line(), response.after_date]
        bucket = server.bucket
        if self.command == "HEAD":
            _send_all(self.connection, head)
        elif bucket is None:
            _send_all(self.connection, [*head, response.body])
        else:
            _send_all(self.connection, head)
            body = response.body
            chunk = max(1, int(bucket.capacity))
            for start in range(0, len(body), chunk):
                piece = body[start : start + chunk]
                bucket.consume(len(piece), continuing=start > 0)
                self.connection.sendall(piece)

    def _send_error(self, status: int) -> bool:
        """Answer with an error status. Returns False: the connection
        closes after it."""
        try:
            self._send(_ERRORS[status])
        except OSError:
            pass
        return False


class _ReplayTCPServer(socketserver.ThreadingTCPServer):
    """One thread per connection; holds the responses by lookup key, the
    shaping state and the miss log that handlers share."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, by_host: dict, by_path: dict, shaping: ShapingConfig):
        super().__init__(address, _ReplayHandler)
        self.by_host = by_host
        self.by_path = by_path
        self.shaping = shaping
        self.bucket = _TokenBucket(shaping.downlink_bytes_per_sec) if shaping.enabled else None
        self.misses: list[str] = []
        self.miss_lock = threading.Lock()
        self._date = (0, b"")  # (second, Date line) swapped as one tuple

    def date_line(self) -> bytes:
        """The Date header line, formatted at most once a second."""
        second, line = self._date
        now = int(time.time())
        if now != second:
            line = f"Date: {formatdate(now, usegmt=True)}\r\n".encode("ascii")
            self._date = (now, line)
        return line


class ReplayServer:
    """A running replay server; use serve() to construct one."""

    def __init__(self, page: ArchivedPage, host: str, port: int, shaping: ShapingConfig):
        if not 0 <= port <= 65535:
            raise BindError(f"cannot bind {host}:{port}: port must be in 0-65535")
        by_host: dict[tuple[str, str, str], _Response] = {}
        by_path: dict[tuple[str, str], _Response] = {}
        for (method, url), exchange in page.exchanges.items():
            headers = [(name, value) for name, value in exchange.headers if name.lower() not in _HOP_BY_HOP]
            response = _Response(exchange.status, headers, exchange.body)
            pq = _path_query(url)
            by_host.setdefault((method, urlsplit(url).netloc.lower(), pq), response)
            by_path.setdefault((method, pq), response)
        try:
            self._server = _ReplayTCPServer((host, port), by_host, by_path, shaping)
        except OSError as exc:
            raise BindError(f"cannot bind {host}:{port}: {exc}") from exc
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "ReplayServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def miss_log(self) -> list[str]:
        """Every 404-served URL, once per request, in arrival order."""
        with self._server.miss_lock:
            return list(self._server.misses)

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
