import collections
import email.utils
import hashlib
import http.client
import json
import logging
import math
import socket
import threading
import time

import pytest

from wasef.archive import load_page, store_page
from wasef.errors import BindError, CorruptArchive
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


Response = collections.namedtuple("Response", "status reason headers body")


def _request(target="/a.css", method="GET", version="HTTP/1.1", headers=(("Host", "site.test"),), body=b""):
    lines = [f"{method} {target} {version}", *(f"{name}: {value}" for name, value in headers)]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _read_response(reader, head_only=False):
    """The next response on a raw connection's reader; None at end of
    stream."""
    status_line = reader.readline()
    if not status_line:
        return None
    version, status, reason = status_line.decode("latin-1").rstrip("\r\n").split(" ", 2)
    assert version == "HTTP/1.1"
    headers = []
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers.append((name, value.strip()))
    length = int(dict(headers).get("Content-Length", "0"))
    return Response(int(status), reason, headers, b"" if head_only else reader.read(length))


def _raw_exchange(server, data, responses, head_only=False):
    """Send ``data`` in one write, read ``responses`` responses, then
    report whether the server closed the connection (reading past the
    responses hits end of stream within a short wait)."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(data)
        with sock.makefile("rb") as reader:
            answered = [_read_response(reader, head_only) for _ in range(responses)]
            sock.settimeout(0.2)
            try:
                closed = reader.read(1) == b""
            except ConnectionResetError:
                closed = True
            except TimeoutError:
                closed = False
    return answered, closed


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


class TestKeepAlive:
    def test_small_responses_do_not_stall(self, plain_page):
        # With Nagle's algorithm on and headers and body in separate writes,
        # each small response on a kept-alive connection waited about 40 ms
        # for the client's delayed ACK: 0.84 s for these 20 requests.
        with serve(plain_page) as server:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
            started = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/a.css", headers={"Host": "site.test"})
                response = conn.getresponse()
                assert response.status == 200 and response.read() == b"body { margin: 0 }"
            elapsed = time.perf_counter() - started
            conn.close()
        assert elapsed < 0.3


class TestProtocol:
    """HTTP/1.1 framing, checked on raw connections."""

    def test_response_head_fields_in_order(self):
        page = page_from_parts("<html><body>x</body></html>")
        page.root_exchange().headers = [
            ("Content-Type", "text/html"),
            ("Transfer-Encoding", "chunked"),
            ("X-Custom", "kept"),
        ]
        with serve(page) as server:
            [response], closed = _raw_exchange(server, _request("/index.html"), 1)
        assert (response.status, response.reason) == (200, "OK")
        assert [name for name, _ in response.headers] == [
            "Server", "Date", "Content-Type", "X-Custom", "Content-Length",
        ]
        fields = dict(response.headers)
        assert "Python/" in fields["Server"]
        assert email.utils.parsedate_to_datetime(fields["Date"]).tzname() == "UTC"
        assert response.body == b"<html><body>x</body></html>" and not closed

    def test_head_on_a_miss_sends_the_head_only(self, plain_page):
        # Had the 404 carried its body, the second status line would not parse.
        data = _request("/ghost", method="HEAD") + _request("/a.css", method="HEAD")
        with serve(plain_page) as server:
            [miss, hit], _ = _raw_exchange(server, data, 2, head_only=True)
            assert server.miss_log() == ["http://site.test/ghost"]
        assert miss.status == 404
        assert dict(miss.headers)["Content-Length"] == str(len(json.dumps({"miss": "http://site.test/ghost"})))
        assert (hit.status, dict(hit.headers)["Content-Length"]) == (200, "18")

    def test_first_host_field_names_the_host(self, plain_page):
        headers = [("Host", "First.test "), ("Host", "second.test")]
        with serve(plain_page) as server:
            [response], _ = _raw_exchange(server, _request("/ghost", headers=headers), 1)
            assert server.miss_log() == ["http://first.test/ghost"]
        assert response.status == 404

    @pytest.mark.parametrize(
        "version, connection, closes",
        [
            ("HTTP/1.1", None, False),
            ("HTTP/1.1", "close", True),
            ("HTTP/1.0", None, True),
            ("HTTP/1.0", "keep-alive", False),
        ],
    )
    def test_connection_persistence(self, plain_page, version, connection, closes):
        headers = [("Host", "site.test")] + ([("Connection", connection)] if connection else [])
        with serve(plain_page) as server:
            [response], closed = _raw_exchange(server, _request(version=version, headers=headers), 1)
        assert (response.status, response.body) == (200, b"body { margin: 0 }")
        assert closed == closes

    def test_expect_100_continue_gets_an_interim_response(self, plain_page):
        headers = [("Host", "site.test"), ("Expect", "100-continue"), ("Content-Length", "0")]
        with serve(plain_page) as server:
            [interim, final], closed = _raw_exchange(server, _request(method="POST", headers=headers), 2)
        assert (interim.status, interim.headers) == (100, [])
        assert final.status == 404 and not closed  # only GET /a.css is archived

    @pytest.mark.parametrize(
        "data, status, closes",
        [
            # "GET /" + target + " HTTP/1.1\r\n" is 16 bytes plus the target.
            pytest.param(_request("/" + "a" * 65521), 414, True, id="request-line-of-65537-bytes"),
            pytest.param(_request("/" + "a" * 65520), 404, False, id="request-line-of-65536-bytes"),
            # "X: " + value + "\r\n" is 5 bytes plus the value.
            pytest.param(_request(headers=[("Host", "site.test"), ("X", "a" * 65532)]), 431, True,
                         id="header-line-of-65537-bytes"),
            pytest.param(_request(headers=[("Host", "site.test"), ("X", "a" * 65531)]), 200, False,
                         id="header-line-of-65536-bytes"),
            pytest.param(_request(headers=[("Host", "site.test")] + [(f"X-{i}", "y") for i in range(99)]), 431,
                         True, id="100-header-fields"),
            pytest.param(_request(headers=[("Host", "site.test")] + [(f"X-{i}", "y") for i in range(98)]), 200,
                         False, id="99-header-fields"),
        ],
    )
    def test_request_size_limits(self, plain_page, data, status, closes):
        with serve(plain_page) as server:
            [response], closed = _raw_exchange(server, data, 1)
        assert response.status == status and closed == closes

    def test_pipelined_requests_are_answered_in_order(self, plain_page):
        data = _request("/a.css") + _request("/ghost") + _request("/index.html") + _request("/img/p.png")
        with serve(plain_page) as server:
            responses, closed = _raw_exchange(server, data, 4)
        assert [(r.status, r.body) for r in responses] == [
            (200, b"body { margin: 0 }"),
            (404, b'{"miss": "http://site.test/ghost"}'),
            (200, b"<html><body>archived root</body></html>"),
            (200, bytes(range(256)) * 4),
        ]
        assert not closed

    @pytest.mark.parametrize("expect", [False, True])
    def test_request_body_is_read_before_the_next_request(self, plain_page, expect):
        headers = [("Host", "site.test"), ("Content-Length", "11")] + ([("Expect", "100-continue")] if expect else [])
        data = _request(method="POST", headers=headers, body=b"hello=world") + _request()
        with serve(plain_page) as server:
            responses, closed = _raw_exchange(server, data, 3 if expect else 2)
            assert server.miss_log() == ["http://site.test/a.css"]
        assert [(r.status, r.body) for r in responses[-2:]] == [
            (404, b'{"miss": "http://site.test/a.css"}'),
            (200, b"body { margin: 0 }"),
        ]
        assert not closed

    def test_transfer_encoding_is_answered_then_closed(self, plain_page):
        headers = [("Host", "site.test"), ("Transfer-Encoding", "chunked")]
        data = _request(method="POST", headers=headers, body=b"5\r\nhello\r\n0\r\n\r\n")
        with serve(plain_page) as server:
            [response], closed = _raw_exchange(server, data, 1)
        assert response.status == 404 and closed

    @pytest.mark.parametrize("lengths", [["abc"], ["-1"], ["+3"], ["3", "4"]])
    def test_invalid_content_length_is_a_400_then_close(self, plain_page, lengths):
        headers = [("Host", "site.test")] + [("Content-Length", length) for length in lengths]
        with serve(plain_page) as server:
            [response], closed = _raw_exchange(server, _request(headers=headers, body=b"abc"), 1)
        assert response.status == 400 and closed

    def test_absolute_form_target_names_the_host(self):
        page = page_from_parts(
            "<html><body>x</body></html>",
            assets=[("/a.css", "text/css", b"site"), ("http://cdn.test/a.css", "text/css", b"cdn")],
        )
        data = _request("http://cdn.test/a.css") + _request("http://cdn.test/ghost?q=1")
        with serve(page) as server:
            [hit, miss], _ = _raw_exchange(server, data, 2)
            assert server.miss_log() == ["http://cdn.test/ghost?q=1"]
        assert (hit.status, hit.body) == (200, b"cdn") and miss.status == 404

    @pytest.mark.parametrize(
        "request_line, status",
        [
            (b"GARBAGE", 400),
            (b"GET /a.css", 400),  # HTTP/0.9
            (b"GET /a.css HTTP/x.y", 400),
            (b"GET /a b.css HTTP/1.1", 400),
            (b"GET /a.css HTTP/2.0", 505),
            (b"PUT /a.css HTTP/1.1", 501),
        ],
    )
    def test_bad_request_line_gets_an_error_then_close(self, plain_page, request_line, status):
        with serve(plain_page) as server:
            [response], closed = _raw_exchange(server, request_line + b"\r\nHost: site.test\r\n\r\n", 1)
        assert response.status == status and closed

    def test_stored_header_with_crlf_never_splits_an_answer(self, tmp_path):
        page = page_from_parts("<html><body>archived root</body></html>")
        page.root_exchange().headers.append(("X-A", "1\r\nX-Injected: yes"))
        store_page(page, tmp_path)
        # Served, the value would go out as two header lines; the load refuses it.
        with pytest.raises(CorruptArchive, match="CR, LF or NUL"):
            with serve(load_page(page.page_id, tmp_path)) as server:
                [answer], _ = _raw_exchange(server, _request("/index.html"), 1)
            assert ("X-Injected", "yes") not in answer.headers

    def test_header_value_outside_latin1_goes_out_as_utf8(self):
        page = page_from_parts("<html><body>x</body></html>")
        page.root_exchange().headers = [("Content-Type", "text/html"), ("X-Title", "naïve ☃")]
        with serve(page) as server:
            [response], _ = _raw_exchange(server, _request("/index.html"), 1)
        assert response.status == 200
        assert dict(response.headers)["X-Title"].encode("latin-1").decode("utf-8") == "naïve ☃"


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

    def test_continuing_chunks_book_back_to_back(self, monkeypatch):
        # Every sleep overshoots by 2 ms, as on a loaded host. Chunks after a
        # response's first book from the end of the previous booking, so 100
        # chunks of 10 ms book exactly 1 s of link time, whatever the sleeps.
        real_sleep = time.sleep
        monkeypatch.setattr(time, "sleep", lambda seconds: real_sleep(seconds + 0.002))
        bucket = _TokenBucket(1_000_000.0)
        bucket.consume(bucket.capacity)
        first_start = bucket.next_free - bucket.capacity / bucket.rate
        for _ in range(99):
            bucket.consume(bucket.capacity, continuing=True)
        assert bucket.next_free - first_start == pytest.approx(1.0, abs=1e-9)

    def test_rate_holds_despite_sleep_overshoot(self, monkeypatch):
        # 1 MB at 1 MB/s goes out in 100 chunks of 10 ms, and every sleep
        # overshoots by 2 ms. Booking each chunk from now would add every
        # overshoot: 1.2 s or more. Booking it from the end of the previous
        # chunk leaves one overshoot plus the request and the client's read.
        # The 0.1 s margin is half the injected total. On a 2-vCPU host this
        # took at most 1.003 s idle, 1.007 s beside two busy-looping
        # processes and 1.016 s beside four; booking from now took 1.24 s.
        body = bytes(1_000_000)
        page = page_from_parts("<html><body>big</body></html>", assets=[("/big.bin", "application/octet-stream", body)])
        shaping = ShapingConfig(downlink_bytes_per_sec=1_000_000.0, enabled=True)
        real_sleep = time.sleep
        monkeypatch.setattr(time, "sleep", lambda seconds: real_sleep(seconds + 0.002))
        with serve(page, shaping=shaping) as server:
            start = time.perf_counter()
            status, _, received = _get(server, "/big.bin", host_header="site.test")
            elapsed = time.perf_counter() - start
        assert status == 200 and received == body
        assert 1.0 <= elapsed <= 1.1, f"{elapsed:.3f}s"

    def test_idle_bucket_banks_nothing(self):
        bucket = _TokenBucket(100000.0)
        time.sleep(0.1)
        start = time.monotonic()
        bucket.consume(bucket.capacity)
        assert time.monotonic() - start >= bucket.capacity / bucket.rate

    def test_invalid_shaping_rejected(self):
        with pytest.raises(ValueError):
            ShapingConfig(downlink_bytes_per_sec=0.0, enabled=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"downlink_bytes_per_sec": -5.0, "enabled": True},
            {"downlink_bytes_per_sec": math.nan, "enabled": True},
            {"downlink_bytes_per_sec": math.inf, "enabled": True},
            {"downlink_bytes_per_sec": 1000.0, "rtt_seconds": -0.05, "enabled": True},
            {"rtt_seconds": math.nan},
            {"rtt_seconds": math.inf},
        ],
    )
    def test_bad_rate_or_rtt_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ShapingConfig(**kwargs)


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

    @pytest.mark.parametrize("bind", ["127.0.0.1:99999", "127.0.0.1:-1", "127.0.0.1:65536"])
    def test_port_out_of_range_is_a_bind_error(self, plain_page, bind):
        with pytest.raises(BindError, match="0-65535"):
            serve(plain_page, bind)

    def test_head_request(self, plain_page):
        with serve(plain_page) as server:
            status, headers, body = _get(server, "/index.html", host_header="site.test", method="HEAD")
            assert status == 200
            assert body == b""
            assert int(dict((k.lower(), v) for k, v in headers)["content-length"]) > 0
