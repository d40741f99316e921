import hashlib
import http.client
import json
import logging
import socket
import threading
import time

import pytest

from wasef.errors import BindError
from wasef.replay import ReplayServer, ShapingConfig, _ReplayHandler, _TokenBucket, serve

from conftest import page_from_parts


def _get(server, path, host_header=None, method="GET"):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    headers = {"Host": host_header} if host_header else {}
    conn.request(method, path, headers=headers)
    response = conn.getresponse()
    body = response.read()
    status = response.status
    header_items = response.getheaders()
    conn.close()
    return status, header_items, body


@pytest.fixture()
def plain_page():
    return page_from_parts(
        "<html><body>archived root</body></html>",
        assets=[
            ("/a.css", "text/css", b"body { margin: 0 }"),
            ("/img/p.png", "image/png", bytes(range(256)) * 4),
        ],
    )


class TestLookup:
    def test_hit_serves_byte_identical_body(self, plain_page):
        with serve(plain_page) as server:
            status, _, body = _get(server, "/index.html", host_header="site.test")
            assert status == 200
            expected = plain_page.root_exchange().body
            assert hashlib.sha256(body).hexdigest() == hashlib.sha256(expected).hexdigest()

    def test_host_fallback_when_client_uses_bind_address(self, plain_page):
        # A browser pointed at 127.0.0.1 sends that as Host; path lookup
        # must still find the archived exchange.
        with serve(plain_page) as server:
            status, _, body = _get(server, "/img/p.png")
            assert status == 200
            assert body == bytes(range(256)) * 4

    def test_https_archived_url_served_over_http(self):
        page = page_from_parts("<html><body>x</body></html>")
        secure = "https://site.test/sec.bin"
        from wasef.archive import ArchivedExchange

        page.exchanges[("GET", secure)] = ArchivedExchange(
            "GET", secure, 200, [("Content-Type", "application/octet-stream")], b"tls-bytes", "application/octet-stream"
        )
        with serve(page) as server:
            status, _, body = _get(server, "/sec.bin", host_header="site.test")
            assert status == 200 and body == b"tls-bytes"

    def test_miss_returns_json_body(self, plain_page):
        with serve(plain_page) as server:
            status, headers, body = _get(server, "/not-archived", host_header="site.test")
            assert status == 404
            assert json.loads(body) == {"miss": "http://site.test/not-archived"}
            assert dict(headers)["Content-Type"] == "application/json"

    def test_query_must_match(self, plain_page):
        with serve(plain_page) as server:
            status, _, _ = _get(server, "/index.html?tracking=1", host_header="site.test")
            assert status == 404

    def test_hop_by_hop_headers_stripped_and_length_recomputed(self):
        page = page_from_parts("<html><body>x</body></html>")
        root = page.root_exchange()
        root.headers = [
            ("Content-Type", "text/html"),
            ("Transfer-Encoding", "chunked"),
            ("Connection", "keep-alive"),
            ("Content-Length", "99999"),
            ("Content-Encoding", "gzip"),
            ("X-Custom", "kept"),
        ]
        with serve(page) as server:
            status, headers, body = _get(server, "/index.html", host_header="site.test")
            names = {name.lower() for name, _ in headers}
            assert status == 200
            assert "transfer-encoding" not in names
            assert "content-encoding" not in names
            assert dict((k.lower(), v) for k, v in headers)["content-length"] == str(len(body))
            assert dict(headers).get("X-Custom") == "kept"


class TestMissLog:
    def test_empty_without_requests(self, plain_page):
        with serve(plain_page) as server:
            assert server.miss_log() == []

    def test_two_misses_same_url_logged_twice(self, plain_page):
        with serve(plain_page) as server:
            _get(server, "/ghost", host_header="site.test")
            _get(server, "/ghost", host_header="site.test")
            assert server.miss_log() == [
                "http://site.test/ghost",
                "http://site.test/ghost",
            ]

    def test_hits_not_logged(self, plain_page):
        with serve(plain_page) as server:
            _get(server, "/index.html", host_header="site.test")
            _get(server, "/a.css", host_header="site.test")
            assert server.miss_log() == []


class TestShaping:
    def test_transfer_time_lower_bound(self):
        body = b"\x5a" * 100000
        page = page_from_parts("<html><body>big</body></html>", assets=[("/big.bin", "application/octet-stream", body)])
        shaping = ShapingConfig(downlink_bytes_per_sec=200000.0, rtt_seconds=0.0, enabled=True)
        with serve(page, shaping=shaping) as server:
            start = time.perf_counter()
            status, _, received = _get(server, "/big.bin", host_header="site.test")
            elapsed = time.perf_counter() - start
            assert status == 200 and received == body
            assert elapsed >= 0.5  # 100000 / 200000

    def test_idle_bucket_banks_nothing(self):
        bucket = _TokenBucket(100000.0)
        time.sleep(0.1)
        start = time.monotonic()
        bucket.consume(bucket.capacity)
        assert time.monotonic() - start >= bucket.capacity / bucket.rate

    def test_invalid_shaping_rejected(self):
        with pytest.raises(ValueError):
            ShapingConfig(downlink_bytes_per_sec=0.0, enabled=True)


class TestRobustness:
    def test_malformed_request_gets_400_not_crash(self, plain_page):
        with serve(plain_page) as server:
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                sock.sendall(b"GARBAGE\r\n\r\n")
                data = sock.recv(1024)
            assert b"400" in data
            # The server must still answer normal requests afterwards.
            status, _, _ = _get(server, "/index.html", host_header="site.test")
            assert status == 200

    def test_handler_error_is_logged_with_traceback(self, plain_page, monkeypatch, caplog):
        def explode(handler):
            raise RuntimeError("lookup exploded")

        monkeypatch.setattr(_ReplayHandler, "_lookup_and_send", explode)
        with caplog.at_level(logging.ERROR, logger="wasef.replay"):
            with serve(plain_page) as server:
                status, _, _ = _get(server, "/a.css", host_header="site.test")
        assert status == 400
        [record] = [r for r in caplog.records if r.name == "wasef.replay"]
        assert "GET /a.css" in record.getMessage()
        assert record.exc_info is not None and "lookup exploded" in str(record.exc_info[1])

    def test_concurrent_requests(self, plain_page):
        with serve(plain_page) as server:
            results = []

            def fetch():
                results.append(_get(server, "/a.css", host_header="site.test")[0])

            threads = [threading.Thread(target=fetch) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == [200] * 8

    def test_bind_error_on_taken_port(self, plain_page):
        with serve(plain_page) as server:
            with pytest.raises(BindError):
                ReplayServer(plain_page, server.host, server.port, ShapingConfig())

    def test_head_request(self, plain_page):
        with serve(plain_page) as server:
            status, headers, body = _get(server, "/index.html", host_header="site.test", method="HEAD")
            assert status == 200
            assert body == b""
            assert int(dict((k.lower(), v) for k, v in headers)["content-length"]) > 0
