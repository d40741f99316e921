import base64
import json
import random

import pytest

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
    CorruptArchive,
    MalformedUrl,
    NoRootDocument,
)

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
        bodies = list((page_dir / "bodies").iterdir())
        assert len(bodies) == 1

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
        (tmp_path / pid / "bodies" / "1.bin").unlink()
        with pytest.raises(CorruptArchive):
            load_page(pid, tmp_path)

    def test_tampered_byte_fails_checksum(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{color:red}")])
        pid = store_page(page, tmp_path)
        body_path = tmp_path / pid / "bodies" / "1.bin"
        raw = bytearray(body_path.read_bytes())
        raw[3] ^= 0xFF  # flip one byte; digest recorded at store time must catch it
        body_path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatch):
            load_page(pid, tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorruptArchive):
            load_page("nope", tmp_path)

    def _rewrite_entry(self, tmp_path, change):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{}")])
        pid = store_page(page, tmp_path)
        manifest_path = tmp_path / pid / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        change(manifest["exchanges"][1])
        manifest_path.write_text(json.dumps(manifest))
        return pid

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
        (tmp_path / pid / "bodies" / "out.bin").symlink_to(tmp_path / "x.bin")
        (tmp_path / pid / "outdir").symlink_to(tmp_path)
        with pytest.raises(CorruptArchive, match="outside"):
            load_page(pid, tmp_path)

    def test_symlink_within_page_loads(self, tmp_path):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update(body_file="bodies/in.bin"))
        (tmp_path / pid / "bodies" / "in.bin").symlink_to("1.bin")
        assert load_page(pid, tmp_path).lookup("http://site.test/a.css").body == b"body{}"

    @pytest.mark.parametrize("key", ["body_file", "method", "url", "content_type"])
    def test_non_string_field_is_corrupt(self, tmp_path, key):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update({key: ["x"]}))
        with pytest.raises(CorruptArchive, match=key):
            load_page(pid, tmp_path)

    @pytest.mark.parametrize("body_file", ["bodies/a\x00b.bin", "bodies/loop"])
    def test_unresolvable_body_file_is_corrupt(self, tmp_path, body_file):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update(body_file=body_file))
        (tmp_path / pid / "bodies" / "loop").symlink_to("loop")
        with pytest.raises(CorruptArchive):
            load_page(pid, tmp_path)

    def test_body_file_inside_page_by_a_detour_loads(self, tmp_path):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update(body_file="bodies/../bodies/1.bin"))
        assert load_page(pid, tmp_path).lookup("http://site.test/a.css").body == b"body{}"

    def test_malformed_headers_are_corrupt(self, tmp_path):
        pid = self._rewrite_entry(tmp_path, lambda entry: entry.update(headers=[["only-a-name"]]))
        with pytest.raises(CorruptArchive):
            load_page(pid, tmp_path)

    def test_restore_is_byte_identical(self, tmp_path):
        page = page_from_parts("<html><body>x</body></html>", assets=[("/a.css", "text/css", b"body{}")])
        pid = store_page(page, tmp_path)
        first = (tmp_path / pid / "manifest.json").read_bytes()
        store_page(page, tmp_path)
        assert (tmp_path / pid / "manifest.json").read_bytes() == first


class TestCorpus:
    def test_save_load_round_trip(self, tmp_path):
        corpus = Corpus(name="c1", pages=["p1", "p2"], group_labels={"p1": "landing"})
        save_corpus(corpus, tmp_path)
        assert load_corpus("c1", tmp_path) == corpus

    def test_missing_corpus(self, tmp_path):
        with pytest.raises(CorruptArchive):
            load_corpus("ghost", tmp_path)

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
