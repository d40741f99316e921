"""Frozen web pages: byte-exact HTTP exchange sets with deterministic storage.

Pages are ingested from HAR 1.2 captures or built synthetically, then stored
on disk as a manifest plus one body file per exchange. Bodies are kept
decoded (no gzip, no chunking) so size accounting and transforms operate on
plain bytes; every body carries a SHA-256 digest in the manifest and loads
fail closed on mismatch.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import logging
import os
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urljoin, urlsplit, urlunsplit

from .errors import (
    BodyDecodeError,
    ChecksumMismatch,
    CorruptArchive,
    MalformedUrl,
    NoRootDocument,
    StorageError,
)

log = logging.getLogger(__name__)

_DEFAULT_PORTS = {"http": 80, "https": 443}
_HTML_TYPES = {"text/html", "application/xhtml+xml"}
_JS_TYPES = {
    "application/javascript",
    "application/x-javascript",
    "application/ecmascript",
    "text/javascript",
    "text/ecmascript",
    "module",
}
_ARCHIVED_METHODS = {"GET", "POST"}

MANIFEST_NAME = "manifest.json"
BODIES_DIR = "bodies"


@dataclass
class ArchivedExchange:
    """One frozen HTTP exchange. The body is stored decoded."""

    method: str
    url: str
    status: int
    headers: list[tuple[str, str]]
    body: bytes
    content_type: str


@dataclass
class ArchivedPage:
    """A frozen page: the root document plus every recorded sub-resource."""

    page_id: str
    root_url: str
    exchanges: dict[tuple[str, str], ArchivedExchange]
    recorded_at: str
    source: str  # one of: har_import, synthetic, recorded

    def root_exchange(self) -> ArchivedExchange:
        for (method, url), ex in self.exchanges.items():
            if url == self.root_url:
                return ex
        raise NoRootDocument(f"page {self.page_id} has no exchange for {self.root_url}")

    def total_bytes(self) -> int:
        return sum(len(ex.body) for ex in self.exchanges.values())

    def lookup(self, url: str, method: str = "GET") -> ArchivedExchange | None:
        return self.exchanges.get((method, url))


@dataclass
class Corpus:
    """A named, ordered set of page ids, optionally labeled by group."""

    name: str
    pages: list[str]
    group_labels: dict[str, str] = field(default_factory=dict)


def is_html_content_type(content_type: str) -> bool:
    return content_type in _HTML_TYPES


def is_js_content_type(content_type: str) -> bool:
    return content_type in _JS_TYPES


def content_type_of(headers: list[tuple[str, str]]) -> str:
    """Media type from a header list, lowercased, parameters stripped."""
    for name, value in headers:
        if name.lower() == "content-type":
            return value.split(";", 1)[0].strip().lower()
    return ""


def normalize_url(raw: str, base: str | None = None) -> str:
    """Canonicalize a URL: lowercase scheme/host, drop default ports and
    fragments, keep query and path percent-encoding byte-exact.

    Relative references are resolved against ``base`` when given.
    Raises MalformedUrl when the result has no scheme or host.
    """
    if not isinstance(raw, str) or not raw.strip():
        raise MalformedUrl(raw)
    candidate = raw.strip()
    if base is not None:
        try:
            candidate = urljoin(base, candidate)
        except ValueError:
            raise MalformedUrl(raw) from None
    try:
        parts = urlsplit(candidate)
        hostname = parts.hostname
        port = parts.port
    except ValueError:
        raise MalformedUrl(raw) from None
    scheme = parts.scheme.lower()
    if not scheme or not hostname:
        raise MalformedUrl(raw)
    host = hostname.lower()
    if ":" in host:  # bare IPv6 address needs its brackets back
        host = f"[{host}]"
    userinfo = ""
    if "@" in parts.netloc:
        userinfo = parts.netloc.rsplit("@", 1)[0] + "@"
    if port is not None and port != _DEFAULT_PORTS.get(scheme):
        host = f"{host}:{port}"
    return urlunsplit((scheme, userinfo + host, parts.path, parts.query, ""))


def page_id_for_url(url: str) -> str:
    """Stable, filesystem-safe identifier derived from a root URL."""
    norm = normalize_url(url)
    parts = urlsplit(norm)
    slug = re.sub(r"[^a-z0-9]+", "-", (parts.netloc + parts.path).lower()).strip("-")
    digest = hashlib.sha256(norm.encode("utf-8")).hexdigest()[:10]
    return f"{slug[:60] or 'page'}-{digest}"


def _har_shape(value, kind: type, what: str, index: int):
    """``value`` when it is of JSON type ``kind``; BodyDecodeError otherwise."""
    if not isinstance(value, kind):
        name = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise BodyDecodeError(index, f"{what} is not {name}")
    return value


def _decode_har_body(content: dict, index: int) -> bytes:
    text = content.get("text")
    if text is None:
        return b""
    _har_shape(text, str, "content.text", index)
    encoding = content.get("encoding")
    if encoding is None:
        return text.encode("utf-8")
    _har_shape(encoding, str, "content.encoding", index)
    if encoding.lower() == "base64":
        try:
            return base64.b64decode(text, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise BodyDecodeError(index, str(exc)) from None
    raise BodyDecodeError(index, f"unsupported encoding {encoding!r}")


def import_har(har_text: bytes | str, root_url_hint: str | None = None) -> ArchivedPage:
    """Build an ArchivedPage from HAR 1.2 text.

    Duplicate (method, url) keys keep the first entry. Only GET and POST
    exchanges are archived; other methods are dropped with a warning. The
    root document is ``root_url_hint`` when given, otherwise the first
    status-200 entry with an HTML content type. Text that is not JSON, or
    whose log, entries, requests or responses have the wrong shape, raises
    BodyDecodeError naming the entry (-1 for the document itself).
    """
    if isinstance(har_text, bytes):
        har_text = har_text.decode("utf-8")
    try:
        har = json.loads(har_text)
    except json.JSONDecodeError as exc:
        raise BodyDecodeError(-1, f"HAR is not valid JSON: {exc}") from None

    har = _har_shape(har, dict, "HAR", -1)
    har_log = _har_shape(har.get("log", {}), dict, "log", -1)
    entries = _har_shape(har_log.get("entries", []), list, "log.entries", -1)
    exchanges: dict[tuple[str, str], ArchivedExchange] = {}
    recorded_at = ""
    for har_page in _har_shape(har_log.get("pages", []), list, "log.pages", -1):
        if _har_shape(har_page, dict, "log.pages[]", -1).get("startedDateTime"):
            recorded_at = har_page["startedDateTime"]
            break

    for index, entry in enumerate(entries):
        entry = _har_shape(entry, dict, "entry", index)
        request = _har_shape(entry.get("request", {}), dict, "request", index)
        response = _har_shape(entry.get("response", {}), dict, "response", index)
        method = _har_shape(request.get("method", ""), str, "request.method", index).upper()
        raw_url = request.get("url")
        if not method or not raw_url:
            log.warning("HAR entry %d lacks method/url; skipped", index)
            continue
        if method not in _ARCHIVED_METHODS:
            log.warning("HAR entry %d uses %s; only GET/POST are archived", index, method)
            continue
        url = normalize_url(raw_url)
        key = (method, url)
        if key in exchanges:  # first entry wins
            continue
        headers = []
        for header in _har_shape(response.get("headers", []), list, "response.headers", index):
            header = _har_shape(header, dict, "response.headers[]", index)
            headers.append((_har_shape(header.get("name", ""), str, "header name", index),
                            _har_shape(header.get("value", ""), str, "header value", index)))
        body = _decode_har_body(
            _har_shape(response.get("content", {}) or {}, dict, "response.content", index), index
        )
        try:
            status = int(response.get("status", 0))
        except (TypeError, ValueError, OverflowError):  # OverflowError: JSON's Infinity
            raise BodyDecodeError(index, f"status {response.get('status')!r} is not an integer") from None
        exchanges[key] = ArchivedExchange(
            method=method,
            url=url,
            status=status,
            headers=headers,
            body=body,
            content_type=content_type_of(headers),
        )
        if not recorded_at and entry.get("startedDateTime"):
            recorded_at = entry["startedDateTime"]

    if root_url_hint is not None:
        root_url = normalize_url(root_url_hint)
        if not any(url == root_url for (_, url) in exchanges):
            raise NoRootDocument(f"hinted root {root_url} is not among the archived exchanges")
    else:
        root_url = ""
        for (_, url), ex in exchanges.items():
            if ex.status == 200 and is_html_content_type(ex.content_type):
                root_url = url
                break
        if not root_url:
            raise NoRootDocument("no status-200 HTML entry found in HAR")

    return ArchivedPage(
        page_id=page_id_for_url(root_url),
        root_url=root_url,
        exchanges=exchanges,
        recorded_at=recorded_at or "1970-01-01T00:00:00Z",
        source="har_import",
    )


def store_page(page: ArchivedPage, root_dir: str | Path) -> str:
    """Write a page to ``<root_dir>/<page_id>/`` and return the page id.

    The layout is one manifest.json plus bodies/<n>.bin per exchange, in
    exchange order. Re-storing the same page produces identical bytes.
    """
    page_dir = Path(root_dir) / page.page_id
    try:
        if page_dir.exists():
            shutil.rmtree(page_dir)
        bodies_dir = page_dir / BODIES_DIR
        bodies_dir.mkdir(parents=True)
        manifest_exchanges = []
        for index, ex in enumerate(page.exchanges.values()):
            body_file = f"{BODIES_DIR}/{index}.bin"
            (page_dir / body_file).write_bytes(ex.body)
            manifest_exchanges.append(
                {
                    "method": ex.method,
                    "url": ex.url,
                    "status": ex.status,
                    "headers": [[name, value] for name, value in ex.headers],
                    "content_type": ex.content_type,
                    "body_file": body_file,
                    "body_sha256": hashlib.sha256(ex.body).hexdigest(),
                    "body_len": len(ex.body),
                }
            )
        manifest = {
            "page_id": page.page_id,
            "root_url": page.root_url,
            "recorded_at": page.recorded_at,
            "source": page.source,
            "exchanges": manifest_exchanges,
        }
        (page_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise StorageError(f"cannot store page {page.page_id}: {exc}") from exc
    return page.page_id


def _confined_body_path(page_root: Path, body_file: str, dirs_inside: dict[str, bool]) -> Path | None:
    """``page_root / body_file`` when it resolves inside ``page_root``, else
    None. Each directory is resolved once per page (``dirs_inside``); the
    file itself is resolved only when it is a symlink."""
    head, name = os.path.split(body_file)
    if head not in dirs_inside:
        dirs_inside[head] = (page_root / head).resolve().is_relative_to(page_root)
    path = page_root / body_file
    if not dirs_inside[head] or name in ("", ".", ".."):
        return None
    if path.is_symlink() and not path.resolve().is_relative_to(page_root):
        return None
    return path


_ENTRY_KEYS = ("method", "url", "status", "headers", "content_type", "body_file", "body_sha256", "body_len")


def load_page(page_id: str, root_dir: str | Path) -> ArchivedPage:
    """Load a stored page, verifying every body against its digest. A
    manifest entry that lacks a field, or whose body file resolves outside
    the page directory, raises CorruptArchive."""
    page_dir = Path(root_dir) / page_id
    manifest_path = page_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CorruptArchive(f"{page_id}: missing {MANIFEST_NAME}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptArchive(f"{page_id}: unreadable manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise CorruptArchive(f"{page_id}: manifest is not an object")
    for key in ("page_id", "root_url", "recorded_at", "source", "exchanges"):
        if key not in manifest:
            raise CorruptArchive(f"{page_id}: manifest lacks {key!r}")
    if not isinstance(manifest["exchanges"], list):
        raise CorruptArchive(f"{page_id}: manifest exchanges is not a list")

    page_root = page_dir.resolve()
    dirs_inside: dict[str, bool] = {}
    exchanges: dict[tuple[str, str], ArchivedExchange] = {}
    for index, entry in enumerate(manifest["exchanges"]):
        if not isinstance(entry, dict):
            raise CorruptArchive(f"{page_id}: exchange {index} is not an object")
        for key in _ENTRY_KEYS:
            if key not in entry:
                raise CorruptArchive(f"{page_id}: exchange {index} lacks {key!r}")
        for key in ("body_file", "method", "url", "content_type"):
            if not isinstance(entry[key], str):
                raise CorruptArchive(f"{page_id}: exchange {index} {key} is not a string")
        try:
            body_path = _confined_body_path(page_root, entry["body_file"], dirs_inside)
        except (OSError, RuntimeError, ValueError) as exc:  # a symlink loop, a NUL byte
            raise CorruptArchive(f"{page_id}: body file {entry['body_file']!r} does not resolve: {exc}") from None
        if body_path is None:
            raise CorruptArchive(f"{page_id}: body file {entry['body_file']} is outside the page")
        if not body_path.is_file():
            raise CorruptArchive(f"{page_id}: missing body file {entry['body_file']}")
        try:
            body = body_path.read_bytes()
        except OSError as exc:
            raise StorageError(f"{page_id}: cannot read {entry['body_file']}: {exc}") from exc
        if len(body) != entry["body_len"]:
            raise ChecksumMismatch(
                f"{page_id}: {entry['body_file']} is {len(body)} bytes, manifest says {entry['body_len']}"
            )
        digest = hashlib.sha256(body).hexdigest()
        if digest != entry["body_sha256"]:
            raise ChecksumMismatch(f"{page_id}: digest mismatch for {entry['body_file']}")
        try:
            headers = [(name, value) for name, value in entry["headers"]]
        except (TypeError, ValueError):
            raise CorruptArchive(f"{page_id}: exchange {index} headers are not name/value pairs") from None
        exchanges[(entry["method"], entry["url"])] = ArchivedExchange(
            method=entry["method"],
            url=entry["url"],
            status=entry["status"],
            headers=headers,
            body=body,
            content_type=entry["content_type"],
        )

    page = ArchivedPage(
        page_id=manifest["page_id"],
        root_url=manifest["root_url"],
        exchanges=exchanges,
        recorded_at=manifest["recorded_at"],
        source=manifest["source"],
    )
    page.root_exchange()  # fail closed if the manifest lost its root
    return page


def save_corpus(corpus: Corpus, root_dir: str | Path) -> Path:
    corpora_dir = Path(root_dir) / "corpora"
    try:
        corpora_dir.mkdir(parents=True, exist_ok=True)
        path = corpora_dir / f"{corpus.name}.json"
        payload = {
            "name": corpus.name,
            "pages": corpus.pages,
            "group_labels": corpus.group_labels,
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise StorageError(f"cannot save corpus {corpus.name}: {exc}") from exc
    return path


def load_corpus(name: str, root_dir: str | Path) -> Corpus:
    path = Path(root_dir) / "corpora" / f"{name}.json"
    if not path.is_file():
        raise CorruptArchive(f"corpus {name!r} not found under {root_dir}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptArchive(f"corpus {name!r} unreadable: {exc}") from None
    if not isinstance(payload, dict):
        raise CorruptArchive(f"corpus {name!r}: not a JSON object")
    corpus_name, pages = payload.get("name"), payload.get("pages")
    group_labels = payload.get("group_labels") or {}
    if not isinstance(corpus_name, str):
        raise CorruptArchive(f"corpus {name!r}: 'name' must be a string")
    if not isinstance(pages, list) or not all(isinstance(page_id, str) for page_id in pages):
        raise CorruptArchive(f"corpus {name!r}: 'pages' must be a list of page ids")
    if not isinstance(group_labels, dict):
        raise CorruptArchive(f"corpus {name!r}: 'group_labels' must be an object")
    return Corpus(name=corpus_name, pages=pages, group_labels=group_labels)
