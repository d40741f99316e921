import base64
import errno
import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
import textwrap
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from wasef import archive
from wasef.archive import (
    ArchivedExchange,
    ArchivedPage,
    Corpus,
    import_har,
    load_corpus,
    load_page,
    normalize_url,
    page_id_for_url,
    save_corpus,
    store_page,
)
from wasef.errors import (
    BodyDecodeError,
    ChecksumMismatch,
    ConfigError,
    CorruptArchive,
    MalformedUrl,
    NoRootDocument,
    StorageError,
    TransformFailed,
)
from wasef.experiment import check_corpus, config_from_dict, run_experiment
from wasef.transform import _REGISTRY, TransformSpec, apply_transform, register_subprocess_transform

from conftest import page_from_parts


class TestNormalizeUrl:
    def test_canonicalization_rules(self):
        assert normalize_url("HTTP://Example.COM:80/a?q=1#x") == "http://example.com/a?q=1"

    def test_identity_on_normal_input(self):
        assert normalize_url("https://a.com/p") == "https://a.com/p"

    def test_relative_resolution(self):
        # RFC 3986 reference resolution, checked by hand: base directory is
        # /dir/, so img/x.png lands at /dir/img/x.png.
        assert (
            normalize_url("img/x.png", base="https://a.com/dir/page.html")
            == "https://a.com/dir/img/x.png"
        )

    def test_default_port_stripping_is_scheme_aware(self):
        assert normalize_url("https://a.com:443/p") == "https://a.com/p"
        assert normalize_url("https://a.com:80/p") == "https://a.com:80/p"

    def test_query_bytes_preserved(self):
        assert normalize_url("http://a.com/p?b=%2F+x&a") == "http://a.com/p?b=%2F+x&a"

    def test_malformed(self):
        for bad in ["", "not a url", "http://", "/relative/only", "http://bad:port/"]:
            with pytest.raises(MalformedUrl):
                normalize_url(bad)

    def test_idempotent_over_seeded_urls(self):
        rng = random.Random(3)
        hosts = ["Example.COM", "a.b.test", "x.test:8080", "y.test:80"]
        paths = ["/", "/a/b.html", "/p%20q", ""]
        queries = ["", "?x=1", "?a=%2F&b"]
        frags = ["", "#frag"]
        for _ in range(200):
            url = (
                rng.choice(["http://", "HTTPS://"])
                + rng.choice(hosts)
                + rng.choice(paths)
                + rng.choice(queries)
                + rng.choice(frags)
            )
            once = normalize_url(url)
            assert normalize_url(once) == once

    @pytest.mark.parametrize("url", ["http://0 :", "http:// :", "http://a b.test/", "http://a\u3000b/"])
    def test_whitespace_in_host_is_malformed(self, url):
        with pytest.raises(MalformedUrl):
            normalize_url(url)

    def test_whitespace_before_dropped_fragment_is_trimmed(self):
        assert normalize_url("http://a.test/p #frag") == "http://a.test/p"
        assert normalize_url("http://a.test/p?q  #frag") == "http://a.test/p?q"
        assert normalize_url("http://a.test/p ? #frag") == "http://a.test/p"


# Characters that move urlsplit's component boundaries, plus whitespace of
# every kind the raw input's strip() removes.
_URL_PIECES = list("aB0:/?#@[]%.;+-é \t\n\x0b\x1f\u3000") + ["80", "443", "::1", "%20", "%2F"]


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(["", "http://", "HTTPS://", "ftp://", "//", " http://", "http://u:p@"]),
    st.lists(st.sampled_from(_URL_PIECES), max_size=20).map("".join),
)
@example("http://", "0 :")
@example("http://", " :")
@example("http://", "0/ ?")
def test_normalize_url_is_idempotent(prefix, rest):
    try:
        once = normalize_url(prefix + rest)
    except MalformedUrl:
        return
    assert normalize_url(once) == once


# (name, value) headers that would not go out as exactly one header line.
NOT_ONE_LINE = [
    ("X-A", "1\r\nX-Injected: yes"), ("X-A", "1\nX-Injected: yes"), ("X-A", "1\rX"), ("X-A", "1\x00"),
    ("X-A\r\nX-Injected", "yes"), ("", "1"),
]
NOT_A_TOKEN = [("X:A", "1"), ("X A", "1"), ("X(A)", "1"), ("X-A ", "1"), ("Caf\u00e9", "1")]
TOKEN_NAME = "X-Ok_1.!#$%&'*+^`|~"  # every tchar that is not a digit or letter


class TestImportHar:
    def _har(self, entries, pages=None):
        return json.dumps({"log": {"version": "1.2", "pages": pages or [], "entries": entries}})

    def _entry(self, url, content_type, text, status=200, method="GET", encoding=None, size=None):
        content = {"text": text}
        if encoding:
            content["encoding"] = encoding
        if size is not None:
            content["size"] = size
        return {
            "startedDateTime": "2021-06-01T10:00:00Z",
            "request": {"method": method, "url": url},
            "response": {
                "status": status,
                "headers": [{"name": "Content-Type", "value": content_type}],
                "content": content,
            },
        }

    def test_three_entries_html_root(self):
        har = self._har(
            [
                self._entry("http://s.test/", "text/html", "<html><body>hi</body></html>"),
                self._entry("http://s.test/a.css", "text/css", "body{}"),
                self._entry("http://s.test/a.png", "image/png", "UE5H", encoding="base64"),
            ]
        )
        page = import_har(har)
        assert len(page.exchanges) == 3
        assert page.root_url == "http://s.test/"
        assert page.root_exchange().content_type == "text/html"
        assert page.recorded_at == "2021-06-01T10:00:00Z"
        assert page.source == "har_import"

    def test_duplicate_url_first_wins(self):
        har = self._har(
            [
                self._entry("http://s.test/", "text/html", "first"),
                self._entry("http://s.test/", "text/html", "second"),
            ]
        )
        page = import_har(har)
        assert len(page.exchanges) == 1
        assert page.root_exchange().body == b"first"

    def test_base64_body_decodes_to_content_size(self):
        # Independent oracle: the test encodes known bytes itself; import
        # must reproduce them and match the declared size field.
        payload = bytes(range(256)) * 3
        encoded = base64.b64encode(payload).decode()
        har = self._har(
            [
                self._entry("http://s.test/", "text/html", "<p>x</p>"),
                self._entry(
                    "http://s.test/i.png", "image/png", encoded,
                    encoding="base64", size=len(payload),
                ),
            ]
        )
        page = import_har(har)
        ex = page.lookup("http://s.test/i.png")
        assert ex.body == payload
        assert len(ex.body) == 768

    def test_no_html_root(self):
        har = self._har([self._entry("http://s.test/a.css", "text/css", "body{}")])
        with pytest.raises(NoRootDocument):
            import_har(har)

    def test_bad_base64_names_entry(self):
        har = self._har(
            [
                self._entry("http://s.test/", "text/html", "<p>x</p>"),
                self._entry("http://s.test/b.png", "image/png", "!!!not-b64", encoding="base64"),
            ]
        )
        with pytest.raises(BodyDecodeError) as exc_info:
            import_har(har)
        assert exc_info.value.entry_index == 1

    def test_non_get_post_dropped(self):
        har = self._har(
            [
                self._entry("http://s.test/", "text/html", "<p>x</p>"),
                self._entry("http://s.test/x", "text/plain", "y", method="OPTIONS"),
            ]
        )
        assert len(import_har(har).exchanges) == 1

    def test_root_hint(self):
        har = self._har(
            [
                self._entry("http://s.test/a", "text/html", "<p>a</p>"),
                self._entry("http://s.test/b", "text/html", "<p>b</p>"),
            ]
        )
        assert import_har(har, root_url_hint="http://s.test/b").root_url == "http://s.test/b"
        with pytest.raises(NoRootDocument):
            import_har(har, root_url_hint="http://s.test/missing")

    @pytest.mark.parametrize(
        "har",
        [
            [],
            {"log": []},
            {"log": "x"},
            {"log": {"entries": {}}},
            {"log": {"entries": "x"}},
            {"log": {"pages": {}, "entries": []}},
            {"log": {"pages": ["x"], "entries": []}},
            {"log": {"pages": [{"startedDateTime": 5}], "entries": []}},
        ],
    )
    def test_malformed_document_is_typed(self, har):
        with pytest.raises(BodyDecodeError) as exc_info:
            import_har(json.dumps(har))
        assert exc_info.value.entry_index == -1

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda entry: "x",
            lambda entry: {**entry, "request": []},
            lambda entry: {**entry, "request": {"method": 1, "url": "http://s.test/a.css"}},
            lambda entry: {**entry, "response": []},
            lambda entry: {**entry, "response": "x"},
            lambda entry: {**entry, "response": {**entry["response"], "status": "abc"}},
            lambda entry: {**entry, "response": {**entry["response"], "status": None}},
            lambda entry: {**entry, "response": {**entry["response"], "status": float("inf")}},
            lambda entry: {**entry, "response": {**entry["response"], "status": float("nan")}},
            lambda entry: {**entry, "response": {**entry["response"], "headers": {}}},
            lambda entry: {**entry, "response": {**entry["response"], "headers": ["x"]}},
            lambda entry: {**entry, "response": {**entry["response"], "headers": [{"name": 1}]}},
            lambda entry: {**entry, "response": {**entry["response"], "content": ["x"]}},
            lambda entry: {**entry, "response": {**entry["response"], "content": {"text": 5}}},
            lambda entry: {**entry, "response": {**entry["response"],
                                                 "content": {"text": "x", "encoding": 5}}},
            lambda entry: {**entry, "startedDateTime": 5},
        ],
    )
    def test_malformed_entry_is_typed(self, mangle):
        entries = [
            self._entry("http://s.test/", "text/html", "<p>x</p>"),
            mangle(self._entry("http://s.test/a.css", "text/css", "body{}")),
        ]
        with pytest.raises(BodyDecodeError) as exc_info:
            import_har(self._har(entries))
        assert exc_info.value.entry_index == 1

    @pytest.mark.parametrize("name, value", NOT_ONE_LINE)
    def test_header_that_is_not_one_line_names_its_entry(self, name, value):
        entry = self._entry("http://s.test/a.css", "text/css", "body{}")
        entry["response"]["headers"].append({"name": name, "value": value})
        with pytest.raises(BodyDecodeError, match="empty name or holds CR, LF or NUL") as exc_info:
            import_har(self._har([self._entry("http://s.test/", "text/html", "<p>x</p>"), entry]))
        assert exc_info.value.entry_index == 1

    @pytest.mark.parametrize("name, value", NOT_A_TOKEN)
    def test_header_name_that_is_not_a_token_names_its_entry(self, name, value):
        entry = self._entry("http://s.test/a.css", "text/css", "body{}")
        entry["response"]["headers"].append({"name": name, "value": value})
        with pytest.raises(BodyDecodeError, match="not an RFC 9110 token") as exc_info:
            import_har(self._har([self._entry("http://s.test/", "text/html", "<p>x</p>"), entry]))
        assert exc_info.value.entry_index == 1

    def test_header_name_of_every_token_character_is_kept(self):
        entry = self._entry("http://s.test/", "text/html", "<p>x</p>")
        entry["response"]["headers"].append({"name": TOKEN_NAME, "value": "a value: with (spaces)"})
        page = import_har(self._har([entry]))
        assert (TOKEN_NAME, "a value: with (spaces)") in page.root_exchange().headers


def blob_path(root, body: bytes):
    """Where the blob store keeps ``body`` under archive root ``root``."""
    return root / "blobs" / hashlib.sha256(body).hexdigest()


def blob_names(root) -> set[str]:
    return {path.name for path in (root / "blobs").iterdir()}


class TestStoreLoad:
    def test_round_trip_identity(self, tmp_path):
        page = page_from_parts(
            "<html><body><img src='a.png'>text</body></html>",
            assets=[("/a.png", "image/png", b"\x89PNG fake")],
        )
        pid = store_page(page, tmp_path)
        assert load_page(pid, tmp_path) == page

    def test_all_256_byte_values_round_trip(self, tmp_path):
        body = bytes(range(256)) * 7
        page = page_from_parts("<html><body>x</body></html>", assets=[("/b.bin", "application/octet-stream", body)])
        pid = store_page(page, tmp_path)
        assert load_page(pid, tmp_path).lookup("http://site.test/b.bin").body == body

    def test_zero_subresource_layout(self, tmp_path):
        page = page_from_parts("<html><body>solo</body></html>")
        pid = store_page(page, tmp_path)
        page_dir = tmp_path / pid
        assert (page_dir / "manifest.json").is_file()
        assert [path.name for path in page_dir.iterdir()] == ["manifest.json"]
        blobs = list((tmp_path / "blobs").iterdir())
        assert len(blobs) == 1
        assert blobs[0] == blob_path(tmp_path, b"<html><body>solo</body></html>")
        assert blobs[0].read_bytes() == b"<html><body>solo</body></html>"

    def test_manifest_field_names(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{}")])
        pid = store_page(page, tmp_path)
        manifest = json.loads((tmp_path / pid / "manifest.json").read_text())
        assert set(manifest) == {"page_id", "root_url", "recorded_at", "source", "exchanges"}
        entry = manifest["exchanges"][0]
        assert set(entry) == {
            "method", "url", "status", "headers", "content_type",
            "body_file", "body_sha256", "body_len",
        }
        assert isinstance(entry["headers"][0], list)

    def test_total_size_invariant(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.bin", "application/octet-stream", b"12345")])
        pid = store_page(page, tmp_path)
        assert load_page(pid, tmp_path).total_bytes() == page.total_bytes()

    def test_missing_body_file(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{}")])
        pid = store_page(page, tmp_path)
        blob_path(tmp_path, b"body{}").unlink()
        with pytest.raises(CorruptArchive):
            load_page(pid, tmp_path)

    def test_tampered_byte_fails_checksum(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{color:red}")])
        pid = store_page(page, tmp_path)
        body_path = blob_path(tmp_path, b"body{color:red}")
        raw = bytearray(body_path.read_bytes())
        raw[3] ^= 0xFF  # flip one byte; digest recorded at store time must catch it
        body_path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatch):
            load_page(pid, tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorruptArchive):
            load_page("nope", tmp_path)

    def _rewrite_manifest(self, tmp_path, change):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{}")])
        pid = store_page(page, tmp_path)
        manifest_path = tmp_path / pid / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        change(manifest)
        manifest_path.write_text(json.dumps(manifest))
        return pid

    def _rewrite_entry(self, tmp_path, change):
        return self._rewrite_manifest(tmp_path, lambda manifest: change(manifest["exchanges"][1]))

    @pytest.mark.parametrize(
        "key",
        ["body_len", "body_sha256", "body_file", "method", "url", "status", "headers", "content_type"],
    )
    def test_entry_without_field_is_corrupt(self, tmp_path, key):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.pop(key))
        with pytest.raises(CorruptArchive, match=key):
            load_page(pid, tmp_path)

    @pytest.mark.parametrize("body_file", ["../../../../etc/hostname", "/etc/hostname", "bodies/../../x.bin"])
    def test_body_file_outside_page_is_corrupt(self, tmp_path, body_file):
        (tmp_path / "x.bin").write_bytes(b"body{}")  # a real file one level up
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update(body_file=body_file))
        with pytest.raises(CorruptArchive, match="outside"):
            load_page(pid, tmp_path)

    @pytest.mark.parametrize("link", ["bodies/out.bin", "outdir/1.bin"])
    def test_symlink_out_of_page_is_corrupt(self, tmp_path, link):
        (tmp_path / "x.bin").write_bytes(b"body{}")
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update(body_file=link))
        (tmp_path / pid / "bodies").mkdir()  # stores no longer make it; the links go there
        (tmp_path / pid / "bodies" / "out.bin").symlink_to(tmp_path / "x.bin")
        (tmp_path / pid / "outdir").symlink_to(tmp_path)
        with pytest.raises(CorruptArchive, match="outside"):
            load_page(pid, tmp_path)

    def test_symlinked_blob_is_corrupt(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{}")])
        pid = store_page(page, tmp_path)
        (tmp_path / "x.bin").write_bytes(b"body{}")  # the right bytes, outside the blob store
        blob_path(tmp_path, b"body{}").unlink()
        blob_path(tmp_path, b"body{}").symlink_to(tmp_path / "x.bin")
        with pytest.raises(CorruptArchive, match="regular file"):
            load_page(pid, tmp_path)

    @pytest.mark.parametrize(
        "body_file",
        ["bodies/in.bin", "../blobs/../blobs/{digest}", "./../blobs/{digest}", "../blobs//{digest}",
         "../blobs/{upper}", "../blobs/{digest}/", "../blobs/" + "0" * 64, "blobs/{digest}"],
    )
    def test_body_file_other_than_its_blob_is_corrupt(self, tmp_path, body_file):
        digest = hashlib.sha256(b"body{}").hexdigest()
        body_file = body_file.format(digest=digest, upper=digest.upper())
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update(body_file=body_file))
        (tmp_path / pid / "bodies").mkdir()
        (tmp_path / pid / "bodies" / "in.bin").symlink_to(blob_path(tmp_path, b"body{}"))
        with pytest.raises(CorruptArchive, match="outside the blob store"):
            load_page(pid, tmp_path)

    @pytest.mark.parametrize("key", ["body_file", "method", "url", "content_type"])
    def test_non_string_field_is_corrupt(self, tmp_path, key):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update({key: ["x"]}))
        with pytest.raises(CorruptArchive, match=key):
            load_page(pid, tmp_path)

    @pytest.mark.parametrize("body_file", ["bodies/a\x00b.bin", "bodies/loop"])
    def test_unresolvable_body_file_is_corrupt(self, tmp_path, body_file):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update(body_file=body_file))
        (tmp_path / pid / "bodies").mkdir()
        (tmp_path / pid / "bodies" / "loop").symlink_to("loop")
        with pytest.raises(CorruptArchive):
            load_page(pid, tmp_path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("status", "abc"), ("status", True), ("status", 200.0), ("status", None),
            ("body_len", "6"), ("body_len", -1), ("body_len", True), ("body_len", 6.0),
            ("body_sha256", "abc"), ("body_sha256", 7),
            ("body_sha256", hashlib.sha256(b"body{}").hexdigest().upper()),
            ("body_sha256", hashlib.sha256(b"body{}").hexdigest() + "\n"),
            ("headers", "x"), ("headers", [["Content-Type", 1]]), ("headers", [[1, "text/css"]]),
            ("headers", [("a", "b", "c")]),
        ],
    )
    def test_mistyped_field_is_corrupt(self, tmp_path, key, value):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update({key: value}))
        with pytest.raises(CorruptArchive, match=key):
            load_page(pid, tmp_path)

    @pytest.mark.parametrize(
        "key, value",
        [("page_id", 5), ("page_id", "../x"), ("root_url", None), ("recorded_at", 1), ("source", []),
         ("exchanges", {})],
    )
    def test_mistyped_page_field_is_corrupt(self, tmp_path, key, value):
        pid = self._rewrite_manifest(tmp_path, lambda manifest: manifest.update({key: value}))
        with pytest.raises(CorruptArchive, match=key):
            load_page(pid, tmp_path)

    def test_malformed_headers_are_corrupt(self, tmp_path):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update(headers=[["only-a-name"]]))
        with pytest.raises(CorruptArchive):
            load_page(pid, tmp_path)

    @pytest.mark.parametrize("name, value", NOT_ONE_LINE)
    def test_header_that_is_not_one_line_is_corrupt(self, tmp_path, name, value):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry["headers"].append([name, value]))
        with pytest.raises(CorruptArchive, match="exchange 1 headers is not .* no CR, LF or NUL"):
            load_page(pid, tmp_path)

    @pytest.mark.parametrize("name, value", NOT_A_TOKEN)
    def test_header_name_that_is_not_a_token_is_corrupt(self, tmp_path, name, value):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry["headers"].append([name, value]))
        with pytest.raises(CorruptArchive, match="exchange 1 headers is not .* RFC 9110 token"):
            load_page(pid, tmp_path)

    def test_header_name_of_every_token_character_loads(self, tmp_path):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry["headers"].append([TOKEN_NAME, "v: (x)"]))
        headers = [header for ex in load_page(pid, tmp_path).exchanges.values() for header in ex.headers]
        assert (TOKEN_NAME, "v: (x)") in headers

    def test_restore_is_byte_identical(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{}")])
        pid = store_page(page, tmp_path)
        first = (tmp_path / pid / "manifest.json").read_bytes()
        blobs = {path.name: (path.read_bytes(), path.stat().st_ino) for path in (tmp_path / "blobs").iterdir()}
        store_page(page, tmp_path)
        assert (tmp_path / pid / "manifest.json").read_bytes() == first
        # the same files, not rewritten: a blob is written only when absent
        assert {path.name: (path.read_bytes(), path.stat().st_ino) for path in (tmp_path / "blobs").iterdir()} == blobs
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["blobs", pid])

    def test_manifest_names_each_body_by_digest(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{}")])
        pid = store_page(page, tmp_path)
        manifest = json.loads((tmp_path / pid / "manifest.json").read_text())
        for entry, ex in zip(manifest["exchanges"], page.exchanges.values()):
            digest = hashlib.sha256(ex.body).hexdigest()
            assert entry["body_sha256"] == digest
            assert entry["body_file"] == f"../blobs/{digest}"
            assert (tmp_path / pid / entry["body_file"]).read_bytes() == ex.body
            assert entry["body_len"] == len(ex.body)

    def test_pages_sharing_a_body_share_one_blob(self, tmp_path):
        shared = b"body{margin:0}"
        first = page_from_parts("<p>one</p>", assets=[("/s.css", "text/css", shared)], host="one.test")
        second = page_from_parts("<p>two</p>", assets=[("/s.css", "text/css", shared)], host="two.test")
        store_page(first, tmp_path)
        store_page(second, tmp_path)
        assert blob_names(tmp_path) == {
            hashlib.sha256(body).hexdigest() for body in (b"<p>one</p>", b"<p>two</p>", shared)
        }
        assert load_page(first.page_id, tmp_path) == first
        assert load_page(second.page_id, tmp_path) == second

    def test_loaded_exchange_carries_its_verified_digest(self, tmp_path, monkeypatch):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{}")])
        pid = store_page(page, tmp_path)
        loaded = load_page(pid, tmp_path)
        ex = loaded.lookup("http://site.test/a.css")
        assert ex.sha256() == hashlib.sha256(b"body{}").hexdigest()
        hashed, real_sha256 = [], hashlib.sha256
        monkeypatch.setattr(archive.hashlib, "sha256", lambda data: hashed.append(data) or real_sha256(data))
        store_page(loaded, tmp_path / "again")
        assert hashed == []  # every digest came from the load
        ex.body = b"body{color:red}"  # a reassigned body is hashed afresh
        assert ex.sha256() == real_sha256(b"body{color:red}").hexdigest()
        assert hashed == [b"body{color:red}"]

    @pytest.mark.parametrize("solution", ["identity", "js-strip", "js-dce", "img-downscale"])
    def test_transforms_carry_unchanged_digests(self, tmp_path, monkeypatch, solution):
        page = page_from_parts(
            "<html><body><script src='/a.js'></script><img src='/i.png'>x</body></html>",
            assets=[("/a.js", "text/javascript", b"function used(){} used();"),
                    ("/i.png", "image/png", b"\x89PNG" + bytes(200)),
                    ("/s.css", "text/css", b"body{}")],
        )
        loaded = load_page(store_page(page, tmp_path / "archive"), tmp_path / "archive")
        variant = apply_transform(TransformSpec(name=solution), loaded).page
        changed = [ex.body for key, ex in variant.exchanges.items() if ex.body != loaded.exchanges[key].body]
        hashed, real_sha256 = [], hashlib.sha256
        monkeypatch.setattr(archive.hashlib, "sha256", lambda data: hashed.append(data) or real_sha256(data))
        store_page(variant, tmp_path / "variants")
        assert hashed == changed  # only the bodies the transform changed are hashed
        assert len(changed) == {"identity": 0, "js-strip": 1, "js-dce": 0, "img-downscale": 1}[solution]

    def test_digest_cache_is_not_part_of_equality_or_repr(self, tmp_path):
        loaded = load_page(store_page(page_from_parts("<html><body>x</body></html>"), tmp_path), tmp_path)
        fresh = page_from_parts("<html><body>x</body></html>")
        assert loaded.root_exchange().digest_cache is not None
        assert fresh.root_exchange().digest_cache is None
        assert loaded == fresh
        assert repr(loaded) == repr(fresh)

    @pytest.mark.parametrize("failing", ["replace", "write", "killed"])
    def test_failed_restore_keeps_the_earlier_version(self, tmp_path, monkeypatch, failing):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{}")])
        pid = store_page(page, tmp_path)
        changed = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"p{}" * 5000)])
        real_write, real_replace = os.write, os.replace
        interruption = KeyboardInterrupt if failing == "killed" else OSError(errno.ENOSPC, "No space left on device")

        def half_write(fd, data):  # writes part of the blob, then fails or the writer is stopped
            real_write(fd, bytes(data[: len(data) // 2]))
            raise interruption

        def no_replace(src, dst, **dir_fds):
            raise OSError(errno.EIO, "I/O error")

        if failing == "replace":
            monkeypatch.setattr(archive.os, "replace", no_replace)
        else:
            monkeypatch.setattr(archive.os, "write", half_write)
        with pytest.raises(KeyboardInterrupt) if failing == "killed" else pytest.raises(StorageError, match=pid):
            store_page(changed, tmp_path)
        monkeypatch.setattr(archive.os, "write", real_write)
        monkeypatch.setattr(archive.os, "replace", real_replace)

        assert load_page(pid, tmp_path) == page
        blobs = {path.name: path.read_bytes() for path in (tmp_path / "blobs").iterdir()}
        finals = {name: data for name, data in blobs.items() if len(name) == 64}
        assert all(hashlib.sha256(data).hexdigest() == name for name, data in finals.items())  # none partial
        # a failed write removes its temporary file; a stopped writer leaves it, under a name no load reads
        leftovers = set(blobs) - set(finals)
        assert len(leftovers) == (failing == "killed") and all(name.endswith(".tmp") for name in leftovers)
        assert [path.name for path in (tmp_path / pid).iterdir()] == ["manifest.json"]
        store_page(changed, tmp_path)
        assert load_page(pid, tmp_path) == changed

    def test_old_layout_is_corrupt_and_says_to_restore(self, tmp_path):
        # A page as the per-page layout stored it: bodies/<n>.bin beside the manifest.
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{}")])
        (tmp_path / page.page_id / "bodies").mkdir(parents=True)
        entries = []
        for index, ex in enumerate(page.exchanges.values()):
            (tmp_path / page.page_id / "bodies" / f"{index}.bin").write_bytes(ex.body)
            entries.append({
                "method": ex.method, "url": ex.url, "status": ex.status,
                "headers": [list(header) for header in ex.headers], "content_type": ex.content_type,
                "body_file": f"bodies/{index}.bin", "body_sha256": hashlib.sha256(ex.body).hexdigest(),
                "body_len": len(ex.body),
            })
        manifest = {"page_id": page.page_id, "root_url": page.root_url, "recorded_at": page.recorded_at,
                    "source": page.source, "exchanges": entries}
        (tmp_path / page.page_id / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptArchive, match=r"old per-page bodies/<n>\.bin layout.*store the page again"):
            load_page(page.page_id, tmp_path)
        store_page(page, tmp_path)  # storing again over the old directory makes it loadable
        assert load_page(page.page_id, tmp_path) == page

    @pytest.mark.parametrize("page_id", ["", ".", "..", "../elsewhere/p", "a/b", "a\\b", "a\x00b"])
    def test_page_id_must_be_one_path_component(self, tmp_path, page_id):
        page = page_from_parts("<html><body>x</body></html>")
        with pytest.raises(CorruptArchive, match="single path component"):
            load_page(page_id, tmp_path)
        page.page_id = page_id
        with pytest.raises(StorageError, match="single path component"):
            store_page(page, tmp_path / "archive")
        assert not (tmp_path / "archive").exists()

    def test_page_outside_the_archive_is_not_read(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>")
        store_page(page, tmp_path / "elsewhere")
        (tmp_path / "archive").mkdir()
        with pytest.raises(CorruptArchive):
            load_page(f"../elsewhere/{page.page_id}", tmp_path / "archive")

    def test_symlinked_manifest_is_corrupt(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>")
        pid = store_page(page, tmp_path / "archive")
        manifest = tmp_path / "archive" / pid / "manifest.json"
        (tmp_path / "copy.json").write_bytes(manifest.read_bytes())  # a valid manifest outside the root
        manifest.unlink()
        manifest.symlink_to(tmp_path / "copy.json")
        with pytest.raises(CorruptArchive, match="manifest.json is missing or not a regular file"):
            load_page(pid, tmp_path / "archive")

    def test_manifest_that_is_a_fifo_is_corrupt_not_waited_on(self, tmp_path):
        (tmp_path / "p").mkdir()
        fifo = tmp_path / "p" / "manifest.json"
        os.mkfifo(fifo)
        raised = []
        loader = threading.Thread(target=lambda: raised.append(pytest.raises(CorruptArchive, load_page, "p", tmp_path)))
        loader.start()
        loader.join(10)
        waited = loader.is_alive()
        if waited:  # a load that waits for a writer: open one, so that the load ends
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            loader.join()
        assert not waited
        assert raised and raised[0].match("unreadable manifest")


class TestLinkedBlobs:
    """A body stored as load_page read it is a hard link to its archive blob."""

    CSS = b"body{margin:0}"

    def _loaded(self, tmp_path):
        page = page_from_parts(
            "<html><body><script src='/a.js'></script>x</body></html>",
            assets=[("/a.js", "text/javascript", b"var a = 1;"), ("/s.css", "text/css", self.CSS)],
        )
        return page, load_page(store_page(page, tmp_path / "archive"), tmp_path / "archive")

    def test_unchanged_blobs_share_the_archive_inode(self, tmp_path):
        page, loaded = self._loaded(tmp_path)
        variant = apply_transform(TransformSpec(name="js-strip"), loaded).page
        pid = store_page(variant, tmp_path / "variants")
        assert load_page(pid, tmp_path / "variants") == variant
        stripped_root = variant.root_exchange().body
        for ex in variant.exchanges.values():
            stored = blob_path(tmp_path / "variants", ex.body).stat()
            if ex.body is stripped_root:  # the one body js-strip changed: written, not linked
                assert stored.st_nlink == 1
            else:
                assert stored.st_ino == blob_path(tmp_path / "archive", ex.body).stat().st_ino
                assert stored.st_nlink == 2
        assert (tmp_path / "variants" / "blobs").stat().st_dev == (tmp_path / "archive" / "blobs").stat().st_dev

    @pytest.mark.parametrize("failure", [errno.EXDEV, errno.EPERM, errno.EMLINK, errno.EEXIST], ids=errno.errorcode.get)
    def test_a_failed_link_still_stores_the_right_bytes(self, tmp_path, monkeypatch, failure):
        page, loaded = self._loaded(tmp_path)
        real_link = os.link

        def failing_link(src, dst, *, dst_dir_fd=None, follow_symlinks=True):
            if failure == errno.EEXIST:  # a concurrent store puts the blob there first
                real_link(src, dst, dst_dir_fd=dst_dir_fd, follow_symlinks=follow_symlinks)
            raise OSError(failure, os.strerror(failure), dst)

        monkeypatch.setattr(archive.os, "link", failing_link)
        pid = store_page(loaded, tmp_path / "variants")
        assert load_page(pid, tmp_path / "variants") == page
        for ex in page.exchanges.values():
            stored = blob_path(tmp_path / "variants", ex.body)
            assert stored.read_bytes() == ex.body
            assert stored.stat().st_nlink == (2 if failure == errno.EEXIST else 1)
        assert blob_names(tmp_path / "variants") == {ex.sha256() for ex in page.exchanges.values()}

    def test_a_replaced_body_is_written_not_linked(self, tmp_path, monkeypatch):
        page, loaded = self._loaded(tmp_path)
        css = loaded.lookup("http://site.test/s.css")
        css.body = b"body{margin:1}"  # its digest_cache now names another object
        linked = []
        real_link = os.link
        monkeypatch.setattr(archive.os, "link", lambda src, dst, **kw: linked.append(dst) or real_link(src, dst, **kw))
        pid = store_page(loaded, tmp_path / "variants")
        assert load_page(pid, tmp_path / "variants").lookup(css.url).body == b"body{margin:1}"
        assert blob_path(tmp_path / "variants", b"body{margin:1}").stat().st_nlink == 1
        assert len(linked) == len(page.exchanges) - 1
        assert hashlib.sha256(b"body{margin:1}").hexdigest() not in linked

    def test_a_symlink_swapped_in_after_load_is_never_followed(self, tmp_path):
        page, loaded = self._loaded(tmp_path)
        secret = tmp_path / "secret"
        secret.write_bytes(b"not a blob of this archive")
        archived = blob_path(tmp_path / "archive", self.CSS)
        archived.unlink()
        archived.symlink_to(secret)
        pid = store_page(loaded, tmp_path / "variants")
        stored = blob_path(tmp_path / "variants", self.CSS)
        assert not stored.is_symlink() and stored.stat().st_nlink == 1
        assert stored.read_bytes() == self.CSS
        assert load_page(pid, tmp_path / "variants") == page
        assert secret.stat().st_nlink == 1

    def test_a_dangling_symlink_at_the_blob_name_is_replaced(self, tmp_path):
        page, loaded = self._loaded(tmp_path)
        stored = blob_path(tmp_path / "variants", self.CSS)
        stored.parent.mkdir(parents=True)
        stored.symlink_to(tmp_path / "nowhere")
        pid = store_page(loaded, tmp_path / "variants")
        assert not stored.is_symlink() and stored.read_bytes() == self.CSS
        assert stored.stat().st_nlink == 1  # the name was taken, so the body was written
        assert load_page(pid, tmp_path / "variants") == page

    # Overwrites every blob of the store it is handed in place, then offers
    # that page as the variant.
    SCRIBBLE_SCRIPT = textwrap.dedent(
        """
        import os, sys
        page_dir = sys.stdin.readline().strip()
        blobs = os.path.join(os.path.dirname(page_dir), "blobs")
        for name in os.listdir(blobs):
            with open(os.path.join(blobs, name), "r+b") as fh:
                size = len(fh.read())
                fh.seek(0)
                fh.write(b"x" * size)
        print(page_dir)
        """
    )

    def test_a_subprocess_transform_that_writes_blobs_in_place_leaves_the_archive_intact(self, tmp_path, monkeypatch):
        page, loaded = self._loaded(tmp_path)
        before = {path.name: path.read_bytes() for path in (tmp_path / "archive" / "blobs").iterdir()}
        script = tmp_path / "scribble.py"
        script.write_text(self.SCRIBBLE_SCRIPT)
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))  # the archive's filesystem
        register_subprocess_transform("ext-scribble", [sys.executable, str(script)], "writes blobs in place")
        try:
            with pytest.raises(TransformFailed, match="digest mismatch"):  # the command did write
                apply_transform(TransformSpec(name="ext-scribble"), loaded)
        finally:
            _REGISTRY.pop("ext-scribble")
        after = {path.name: path.read_bytes() for path in (tmp_path / "archive" / "blobs").iterdir()}
        assert after == before
        assert all(hashlib.sha256(body).hexdigest() == name for name, body in after.items())
        assert load_page(loaded.page_id, tmp_path / "archive") == page


class TestStoredNames:
    """Nothing below an archive root is read through a symbolic link or kept as one."""

    CSS = b"body{margin:0}"

    def _archive(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/s.css", "text/css", self.CSS)])
        root = tmp_path / "archive"
        store_page(page, root)
        save_corpus(Corpus("c1", [page.page_id]), root)
        return page, root

    @pytest.mark.parametrize("name", ["{pid}", "{pid}/manifest.json", "blobs", "blobs/{css}", "corpora", "corpora/c1.json"])
    def test_a_stored_name_linked_to_an_identical_copy_is_refused(self, tmp_path, name):
        page, root = self._archive(tmp_path)
        manifest_bytes = (root / page.page_id / "manifest.json").stat().st_size
        stored = root / name.format(pid=page.page_id, css=hashlib.sha256(self.CSS).hexdigest())
        copy = tmp_path / "outside" / stored.name
        copy.parent.mkdir()
        if stored.is_dir():
            shutil.copytree(stored, copy)
            shutil.rmtree(stored)
        else:
            shutil.copyfile(stored, copy)
            stored.unlink()
        stored.symlink_to(copy)
        if name.startswith("corpora"):
            with pytest.raises(CorruptArchive, match="not found"):
                load_corpus("c1", root)
            return
        with pytest.raises(CorruptArchive, match="missing or not a regular file"):
            load_page(page.page_id, root)
        if name.startswith("blobs"):  # the manifest is still there; the run skips the page as it loads
            assert archive.manifest_size(root, page.page_id) == manifest_bytes
            check_corpus(Corpus("c1", [page.page_id]), root)
        else:
            assert archive.manifest_size(root, page.page_id) is None
            with pytest.raises(ConfigError, match="not found in archive"):
                check_corpus(Corpus("c1", [page.page_id]), root)

    def test_manifest_size_is_the_stored_size_or_none(self, tmp_path):
        page, root = self._archive(tmp_path)
        assert archive.manifest_size(root, page.page_id) == (root / page.page_id / "manifest.json").stat().st_size
        assert archive.manifest_size(root, "ghost") is None
        assert archive.manifest_size(root, "..") is None
        (root / "p").mkdir()
        os.mkfifo(root / "p" / "manifest.json")
        assert archive.manifest_size(root, "p") is None

    @pytest.mark.parametrize("occupant", ["symlink", "short file"])
    @pytest.mark.parametrize("loaded", [False, True], ids=["fresh", "loaded"])
    def test_a_store_over_a_wrong_blob_name_writes_a_regular_blob(self, tmp_path, occupant, loaded):
        page, root = self._archive(tmp_path)
        stored_page = load_page(page.page_id, root) if loaded else page
        blob = blob_path(tmp_path / "v", self.CSS)
        blob.parent.mkdir(parents=True)
        outside = tmp_path / "outside.css"
        outside.write_bytes(self.CSS)  # the right bytes, outside the store
        if occupant == "symlink":
            blob.symlink_to(outside)
        else:
            blob.write_bytes(self.CSS[:-1])
        pid = store_page(stored_page, tmp_path / "v")
        assert not blob.is_symlink() and blob.read_bytes() == self.CSS
        assert load_page(pid, tmp_path / "v") == page
        assert outside.read_bytes() == self.CSS


class TestStoreDirectories:
    """A store writes through the page directory and ``blobs/`` opened once
    each, refuses a symbolic link at either, and closes what it opened; so
    does a load."""

    @pytest.mark.parametrize("name", ["{pid}", "blobs"])
    def test_a_store_through_a_linked_directory_is_refused(self, tmp_path, name):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/s.css", "text/css", b"body{margin:0}")])
        root = tmp_path / "archive"
        root.mkdir()
        outside = tmp_path / "outside"
        outside.mkdir()
        (root / name.format(pid=page.page_id)).symlink_to(outside, target_is_directory=True)
        with pytest.raises(StorageError, match=page.page_id):
            store_page(page, root)
        assert list(outside.iterdir()) == []
        with pytest.raises(CorruptArchive, match="missing or not a regular file"):
            load_page(page.page_id, root)

    def test_a_link_at_a_temporary_name_is_not_written_through(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/s.css", "text/css", b"body{margin:0}")])
        root = tmp_path / "archive"
        (root / "blobs").mkdir(parents=True)
        outside = tmp_path / "outside.txt"
        outside.write_bytes(b"kept")
        tmp = blob_path(root, b"body{margin:0}").with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
        tmp.symlink_to(outside)  # write_atomic's temporary name for the stylesheet's blob
        with pytest.raises(StorageError, match=page.page_id):
            store_page(page, root)
        assert outside.read_bytes() == b"kept"
        assert not blob_path(root, b"body{margin:0}").exists()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors through /proc")
    def test_stores_and_loads_close_every_descriptor(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/s.css", "text/css", b"body{margin:0}")])
        root = tmp_path / "archive"
        (tmp_path / "linked").mkdir()
        (tmp_path / "linked" / "blobs").symlink_to(tmp_path, target_is_directory=True)
        before = set(os.listdir("/proc/self/fd"))
        store_page(load_page(store_page(page, root), root), tmp_path / "variants")
        with pytest.raises(StorageError):  # fails after opening the page directory
            store_page(page, tmp_path / "linked")
        blob_path(root, b"body{margin:0}").unlink()
        with pytest.raises(CorruptArchive, match="exchange 1"):  # fails after reading a blob
            load_page(page.page_id, root)
        assert set(os.listdir("/proc/self/fd")) == before


class TestCorpus:
    def test_save_load_round_trip(self, tmp_path):
        corpus = Corpus(name="c1", pages=["p1", "p2"], group_labels={"p1": "landing"})
        save_corpus(corpus, tmp_path)
        assert load_corpus("c1", tmp_path) == corpus

    def test_saved_bytes_are_indented_json_and_no_temporary_file_stays(self, tmp_path):
        corpus = Corpus(name="c1", pages=["p1", "p2"], group_labels={"p1": "landing"})
        path = save_corpus(corpus, tmp_path)
        payload = {"name": "c1", "pages": ["p1", "p2"], "group_labels": {"p1": "landing"}}
        assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        assert os.listdir(tmp_path / "corpora") == ["c1.json"]

    def test_missing_corpus(self, tmp_path):
        with pytest.raises(CorruptArchive):
            load_corpus("ghost", tmp_path)

    def test_corpus_that_is_not_utf8_is_corrupt(self, tmp_path):
        (tmp_path / "corpora").mkdir()
        (tmp_path / "corpora" / "c1.json").write_bytes(b'{"name": "\xff", "pages": []}')
        with pytest.raises(CorruptArchive, match="c1.*unreadable"):
            load_corpus("c1", tmp_path)

    @pytest.mark.parametrize("name", ["..", "../x", "../../x", "a/b"])
    def test_a_corpus_name_that_is_not_one_path_component_is_refused(self, tmp_path, name):
        root = tmp_path / "a" / "archive"
        planted = root / "corpora" / f"{name}.json"  # where joining the name as a path leads
        planted.parent.mkdir(parents=True, exist_ok=True)
        planted.write_text(json.dumps({"name": "c1", "pages": ["p1"]}), encoding="utf-8")
        with pytest.raises(CorruptArchive, match="single path component"):
            load_corpus(name, root)
        (tmp_path / "s").mkdir()
        with pytest.raises(StorageError, match="single path component"):
            save_corpus(Corpus(name, ["p1"]), tmp_path / "s" / "archive")
        assert list((tmp_path / "s").rglob("*")) == []

    @pytest.mark.parametrize("page_id", ["", ".", "..", "../elsewhere/p", "a/b", "a\\b", "a\x00b"])
    def test_page_id_not_one_path_component_is_corrupt(self, tmp_path, page_id):
        (tmp_path / "corpora").mkdir()
        payload = {"name": "c1", "pages": ["p1", page_id]}
        (tmp_path / "corpora" / "c1.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CorruptArchive, match="single path component"):
            load_corpus("c1", tmp_path)

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            "fixtures",
            {"pages": ["p1"]},
            {"name": "c1"},
            {"name": 7, "pages": ["p1"]},
            {"name": "c1", "pages": "p1"},
            {"name": "c1", "pages": {"p1": "landing"}},
            {"name": "c1", "pages": [1, 2]},
            {"name": "c1", "pages": ["p1"], "group_labels": ["landing"]},
            {"name": "c1", "pages": ["p1"], "group_labels": {"p1": ["x"]}},
            {"name": "c1", "pages": ["p1"], "group_labels": {"p1": 3}},
            {"name": "c1", "pages": ["p1"], "group_labels": {"p1": None}},
        ],
    )
    def test_malformed_corpus_is_corrupt(self, tmp_path, payload):
        (tmp_path / "corpora").mkdir()
        (tmp_path / "corpora" / "c1.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CorruptArchive, match="c1"):
            load_corpus("c1", tmp_path)


def test_page_id_is_stable_and_safe():
    pid = page_id_for_url("HTTP://Example.COM:80/a/b.html")
    assert pid == page_id_for_url("http://example.com/a/b.html")
    assert "/" not in pid and ":" not in pid


def test_200_page_variants_round_trip_through_blobs(fixtures200, tmp_path):
    solutions = ["identity", "js-strip", "js-block-thirdparty", "js-dce", "img-downscale"]
    config = config_from_dict(
        {
            "archive_dir": str(fixtures200.archive_dir),
            "out_dir": str(tmp_path / "out"),
            "corpus": {"name": "fixtures", "pages": fixtures200.corpus.pages},
            "solutions": solutions,
        }
    )
    assert run_experiment(config).exit_code == 0
    variants = tmp_path / "out" / "variants"
    digests = set()
    for page_id, page in fixtures200.pages.items():
        for name in solutions:
            expected = apply_transform(TransformSpec(name=name), page).page
            assert load_page(f"{page_id}:{name}", variants) == expected
            digests.update(hashlib.sha256(ex.body).hexdigest() for ex in expected.exchanges.values())
    assert len(list((variants / "blobs").iterdir())) == len(digests)
    assert blob_names(variants) == digests
    assert len(list(variants.iterdir())) == 1 + len(fixtures200.pages) * len(solutions)
