"""Frozen web pages: byte-exact HTTP exchange sets with deterministic storage.

Pages are ingested from HAR 1.2 captures or built synthetically, then stored
under an archive root. Each page is one ``<page_id>/manifest.json``; the
bodies live in a content-addressed blob store that every page under the root
shares, ``<root>/blobs/<sha256>``, one file per distinct body named by the
hex SHA-256 of its bytes (as git stores objects). Bodies are kept decoded
(no gzip, no chunking) so size accounting and transforms operate on plain
bytes. A manifest names each body by its digest only, so loading reads
nothing but ``<root>/<page_id>/manifest.json`` and ``<root>/blobs/<hex>``,
and loads fail closed on any digest or length mismatch.

Page ids and corpus names (``<root>/corpora/<name>.json``) are single path
components, and every stored name is reached through a directory opened by
_open_dir: the root may be a symbolic link, but nothing below it may be, so
a linked page directory, ``blobs/``, ``corpora/`` or file reads as missing,
and a store refuses a linked page directory or ``blobs/``.

Stores are atomic. Each blob and each manifest is written under a
writer-unique temporary name and moved into place with os.replace, blobs
first and the manifest last, so a reader sees a page's previous manifest or
its whole new one, and a blob's final name never holds partial bytes. They
are not fsync'd: atomic against a writer that fails or is killed, not
durable across power loss. Blobs are never garbage-collected: re-storing a
page with changed bodies leaves its old blobs in place.

A body stored just as load_page read it is instead hard-linked to the blob
it was read from, so one file may be a blob of two roots (an archive and
its run's variants). Wasef's own code never writes a blob in place: it only
ever replaces one whole, by write_atomic, so the link cannot change the
other root's blob through wasef. A program that writes into a stored blob
in place would change both; a store handed to one (the temporary store of
a subprocess transform) must therefore hold no links, and blobs under a
run's ``variants/`` must not be edited by hand. A garbage collector must
work per root, by the names that root's manifests hold, never by link
count.
"""

from __future__ import annotations

import base64
import binascii
import errno
import hashlib
import json
import logging
import os
import re
import stat
import threading
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
BLOBS_DIR = "blobs"
_BLOB_REF = f"../{BLOBS_DIR}/"  # a manifest's body_file is this plus the digest
_SHA256_RE = re.compile(r"[0-9a-f]{64}")
_OLD_BODY_FILE_RE = re.compile(r"bodies/[0-9]+\.bin")  # the per-page layout blobs replaced
_NOT_IN_PAGE_ID_RE = re.compile(r"[/\\\x00]")
_LINE_BREAK_RE = re.compile(r"[\r\n\x00]")  # would end or cut a replayed header line
_TOKEN_RE = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # RFC 9110 section 5.6.2: a field name


@dataclass
class ArchivedExchange:
    """One frozen HTTP exchange. The body is stored decoded."""

    method: str
    url: str
    status: int
    headers: list[tuple[str, str]]
    body: bytes
    content_type: str
    # (body, its hex SHA-256, the blob file load_page read and verified it
    # from or None). sha256() reuses the digest, and store_page links the
    # blob, only while ``body`` is still that very object, since callers may
    # reassign ``body``.
    digest_cache: tuple[bytes, str, str | None] | None = field(default=None, compare=False, repr=False)

    def sha256(self) -> str:
        """Hex SHA-256 of the body, computed at most once per body object."""
        cache = self.digest_cache
        if cache is None or cache[0] is not self.body:
            cache = self.digest_cache = (self.body, hashlib.sha256(self.body).hexdigest(), None)
        return cache[1]


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


# A canonical URL: normalize_url returns it unchanged, and urljoin and
# urlsplit from Python 3.10 to 3.14 parse it alike. Group 1 is the host,
# which is also urlsplit's netloc.
_SEGMENT = r"(?!\.\.?(?:[/?]|\Z))[A-Za-z0-9._~-]+"  # neither "." nor ".."
_PATH_AND_QUERY = rf"/(?:{_SEGMENT}/)*(?:{_SEGMENT})?(?:\?[A-Za-z0-9._~=&+,!$'()*/-]+)?"
CANONICAL_URL_RE = re.compile(rf"https?://([a-z0-9][a-z0-9.-]*){_PATH_AND_QUERY}")
_ROOT_RELATIVE_RE = re.compile(_PATH_AND_QUERY)  # "/css/s1.css"; never "//host"


def normalize_url(raw: str, base: str | None = None) -> str:
    """Canonicalize a URL: lowercase scheme/host, drop default ports and
    fragments, keep query and path percent-encoding byte-exact.
    Idempotent: a normalized URL normalizes to itself.

    Relative references are resolved against ``base`` when given.
    Raises MalformedUrl when the result has no scheme or host, or the host
    contains whitespace.

    Two shapes skip urllib, and together they are every reference of the
    fixture and benchmark pages: a raw URL that is already canonical
    (CANONICAL_URL_RE) comes back as it is, and a root-relative reference
    ("/css/s1.css") against a canonical base becomes the base's
    ``scheme://host`` followed by the reference. Canonical means lowercase
    http or https; a lowercase host with no port or userinfo; a path of
    non-empty segments of letters, digits and "._~-", none of them "." or
    "..", with an optional final "/"; and an optional non-empty query of
    plain characters. So there is no whitespace or control character, no
    "%", ";", ":" past the scheme, "@", "\\", "#", bracket or non-ASCII
    character, nothing that any urlsplit or urljoin from Python 3.10 to 3.14
    strips, splits, decodes or resolves differently, and
    tests/test_urls.py checks that both shapes give what urllib gives. Every
    other input, and any raw URL or base that is not a str, takes urllib
    (_normalize_url).
    """
    if type(raw) is str and (base is None or type(base) is str):
        base_match = None if base is None else CANONICAL_URL_RE.fullmatch(base)
        if base is None or base_match:
            if CANONICAL_URL_RE.fullmatch(raw):
                return raw
            if base_match and _ROOT_RELATIVE_RE.fullmatch(raw):
                return base[: base_match.end(1)] + raw
    return _normalize_url(raw, base)


def _normalize_url(raw: str, base: str | None = None) -> str:
    """normalize_url through urljoin and urlsplit, for every input."""
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
    if not scheme or not hostname or any(ch.isspace() for ch in hostname):
        raise MalformedUrl(raw)
    host = hostname.lower()
    if ":" in host:  # bare IPv6 address needs its brackets back
        host = f"[{host}]"
    userinfo = ""
    if "@" in parts.netloc:
        userinfo = parts.netloc.rsplit("@", 1)[0] + "@"
    if port is not None and port != _DEFAULT_PORTS.get(scheme):
        host = f"{host}:{port}"
    # Whitespace before a dropped fragment or empty query would end the
    # result; trim it as the raw URL's own trailing whitespace is trimmed.
    query = parts.query.rstrip()
    path = parts.path if query else parts.path.rstrip()
    return urlunsplit((scheme, userinfo + host, path, query, ""))


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
    status-200 entry with an HTML content type. Bytes that are not UTF-8,
    text that is not JSON, or a log, entry, request, response or
    startedDateTime of the wrong shape raises BodyDecodeError naming the
    entry (-1 for the document itself).
    """
    if isinstance(har_text, bytes):
        try:
            har_text = har_text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BodyDecodeError(-1, f"HAR is not UTF-8: {exc}") from None
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
        har_page = _har_shape(har_page, dict, "log.pages[]", -1)
        recorded_at = _har_shape(har_page.get("startedDateTime", ""), str, "log.pages[].startedDateTime", -1)
        if recorded_at:
            break

    for index, entry in enumerate(entries):
        entry = _har_shape(entry, dict, "entry", index)
        request = _har_shape(entry.get("request", {}), dict, "request", index)
        response = _har_shape(entry.get("response", {}), dict, "response", index)
        started = _har_shape(entry.get("startedDateTime", ""), str, "startedDateTime", index)
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
            name = _har_shape(header.get("name", ""), str, "header name", index)
            value = _har_shape(header.get("value", ""), str, "header value", index)
            if not _is_header_line(name, value):
                raise BodyDecodeError(
                    index,
                    f"header {name!r} has an empty name or holds CR, LF or NUL,"
                    " or a name that is not an RFC 9110 token",
                )
            headers.append((name, value))
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
        if not recorded_at:
            recorded_at = started

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


def _is_header_line(name: str, value: str) -> bool:
    """Whether an archived header goes out as exactly one well-formed header
    line: its name is an RFC 9110 token (one or more of the characters
    ``!#$%&'*+-.^_`|~``, digits and ASCII letters, so never empty and never
    holding ``:``, a space, CR, LF or NUL), and its value holds no CR, LF or
    NUL."""
    return _TOKEN_RE.fullmatch(name) is not None and not _LINE_BREAK_RE.search(value)


def page_id_problem(page_id) -> str | None:
    """Why ``page_id`` cannot name a page directory, or None when it can. A
    page id is one path component: a non-empty string other than ``.`` and
    ``..``, holding no ``/``, ``\\`` or NUL."""
    if not isinstance(page_id, str) or page_id in ("", ".", "..") or _NOT_IN_PAGE_ID_RE.search(page_id):
        return f"page id {page_id!r} is not a single path component"
    return None


def are_group_labels(value) -> bool:
    """Whether ``value`` can label a corpus's pages: an object mapping page
    ids to label strings."""
    return isinstance(value, dict) and all(
        isinstance(page_id, str) and isinstance(label, str) for page_id, label in value.items()
    )


def _ensure_dir(path: str) -> None:
    """os.makedirs(path, exist_ok=True) in one syscall when the parent exists
    (5 ms less per 1000-page store than os.makedirs)."""
    try:
        os.mkdir(path)
    except FileExistsError:
        pass
    except FileNotFoundError:
        os.makedirs(path, exist_ok=True)


def write_atomic(path: str, data: bytes, dir_fd: int | None = None) -> None:
    """Write ``data`` to a temporary name unique to this process and thread,
    then os.replace it to ``path``: ``path`` holds its old bytes or all of the
    new ones. The temporary file is removed when a step fails, and a
    symbolic link at its name is not written through. With ``dir_fd``,
    ``path`` and the temporary name are relative to that open directory."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o666, dir_fd=dir_fd)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path, src_dir_fd=dir_fd, dst_dir_fd=dir_fd)
    except OSError:
        try:
            os.unlink(tmp, dir_fd=dir_fd)
        except OSError:
            pass
        raise


def _is_blob_of(blobs_fd: int, name: str, size: int) -> bool:
    """Whether ``name`` in the open directory ``blobs_fd`` is a regular file
    of ``size`` bytes, not a symbolic link."""
    try:
        there = os.lstat(name, dir_fd=blobs_fd)
    except OSError:
        return False
    return stat.S_ISREG(there.st_mode) and there.st_size == size


def _put_blob(ex: ArchivedExchange, blobs_fd: int, name: str) -> None:
    """Put ``ex``'s body at its blob name ``name`` in the open directory
    ``blobs_fd`` unless a regular file of the body's length is there. While
    the body is still the object load_page read, first hard-link the blob it
    was read from (never following a symbolic link). Whether that links,
    fails (EXDEV, EPERM, EMLINK, ...) or finds the name taken (a concurrent
    store, or a symbolic link), the body is then written with write_atomic
    unless the name now holds such a file."""
    if _is_blob_of(blobs_fd, name, len(ex.body)):
        return
    cache = ex.digest_cache
    if cache is not None and cache[0] is ex.body and cache[2] is not None:
        try:
            os.link(cache[2], name, dst_dir_fd=blobs_fd, follow_symlinks=False)
        except OSError:
            pass  # what is at the name now is checked below
        if _is_blob_of(blobs_fd, name, len(ex.body)):
            return
    write_atomic(name, ex.body, dir_fd=blobs_fd)


def store_page(page: ArchivedPage, root_dir: str | Path) -> str:
    """Write a page under ``root_dir`` and return the page id.

    Each body goes to ``<root_dir>/blobs/<sha256>`` unless a regular file of
    its length is there already (_put_blob); then
    ``<root_dir>/<page_id>/manifest.json`` lists the exchanges in order, each naming its body as
    ``body_file: ../blobs/<sha256>`` with ``body_sha256`` and ``body_len``.
    A body that is still the object load_page read becomes a hard link to
    the blob it was read from (see _put_blob), so a stored blob may be one
    file shared with the archive. Wasef only ever replaces a blob whole, by
    write_atomic, so that is safe within wasef; a root that another program
    may write into in place must be stored from exchanges whose
    digest_cache names no blob (see the module docstring). Every file
    written goes to a temporary name and is moved into place with
    os.replace, the manifest last, so a failed store leaves the page's
    previous version loadable. A blob already there is trusted as is
    (load_page verifies it), and blobs no manifest names any more are never
    removed. Re-storing the same page produces identical bytes. The manifest
    is written without indentation, since CPython's C JSON encoder runs only
    when ``indent`` is None. A page id that is not one path component, a
    symbolic link at ``<root_dir>/<page_id>`` or ``<root_dir>/blobs``, or a
    failed write raises StorageError. Both directories are opened once,
    without following a link, and every file is reached through them, so a
    store writes nothing outside the root.
    """
    problem = page_id_problem(page.page_id)
    if problem:
        raise StorageError(f"cannot store page: {problem}")
    root = os.fspath(root_dir)
    page_fd = blobs_fd = None
    try:
        _ensure_dir(os.path.join(root, page.page_id))
        _ensure_dir(os.path.join(root, BLOBS_DIR))
        page_fd = _open_dir(root, page.page_id)
        blobs_fd = _open_dir(root, BLOBS_DIR)
        manifest_exchanges = []
        for ex in page.exchanges.values():
            digest = ex.sha256()
            _put_blob(ex, blobs_fd, digest)
            manifest_exchanges.append(
                {
                    "method": ex.method,
                    "url": ex.url,
                    "status": ex.status,
                    "headers": [[name, value] for name, value in ex.headers],
                    "content_type": ex.content_type,
                    "body_file": _BLOB_REF + digest,
                    "body_sha256": digest,
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
        write_atomic(
            MANIFEST_NAME,
            (json.dumps(manifest, ensure_ascii=False) + "\n").encode("utf-8"),
            dir_fd=page_fd,
        )
    except OSError as exc:
        raise StorageError(f"cannot store page {page.page_id}: {exc}") from exc
    finally:
        for fd in (page_fd, blobs_fd):
            if fd is not None:
                os.close(fd)
    return page.page_id


# What _open_stored raises when no regular file, or a symbolic link, is there.
_NOT_A_FILE = (errno.ENOENT, errno.ENOTDIR, errno.EISDIR, errno.ELOOP)


def _open_dir(root: str | Path, directory: str) -> int:
    """A descriptor of the directory ``<root>/<directory>``, which may not be
    a symbolic link; the caller closes it."""
    return os.open(os.path.join(root, directory), os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)


def _open_in(dir_fd: int, name: str):
    """Open ``name`` in the open directory ``dir_fd``, not through a symbolic
    link, for unbuffered binary reading. O_NONBLOCK makes a FIFO open and
    read as empty instead of waiting for a writer."""
    return open(name, "rb", buffering=0,
                opener=lambda path, flags: os.open(path, flags | os.O_NOFOLLOW | os.O_NONBLOCK, dir_fd=dir_fd))


def _open_stored(root: str | Path, directory: str, name: str):
    """Open ``<root>/<directory>/<name>``, two path components of which
    neither may be a symbolic link, for unbuffered binary reading."""
    dir_fd = _open_dir(root, directory)
    try:
        return _open_in(dir_fd, name)
    finally:
        os.close(dir_fd)


def manifest_size(root_dir: str | Path, page_id: str) -> int | None:
    """The byte size of the manifest load_page reads for ``page_id``, or None
    unless that is a regular file: a cheap test that the page is archived."""
    if page_id_problem(page_id):
        return None
    try:
        with _open_stored(root_dir, page_id, MANIFEST_NAME) as fh:
            info = os.fstat(fh.fileno())
    except OSError:
        return None
    return info.st_size if stat.S_ISREG(info.st_mode) else None


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # type(): a bool is not a count


def _is_headers(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str) and isinstance(pair[1], str)
        and _is_header_line(*pair)
        for pair in value
    )


# Every manifest field: its check, and what a value must be to pass it.
_PAGE_FIELDS = {
    "page_id": (_is_str, "a string"),
    "root_url": (_is_str, "a string"),
    "recorded_at": (_is_str, "a string"),
    "source": (_is_str, "a string"),
    "exchanges": (lambda value: isinstance(value, list), "a list"),
}
_ENTRY_FIELDS = {
    "method": (_is_str, "a string"),
    "url": (_is_str, "a string"),
    "status": (lambda value: type(value) is int, "an integer"),
    "headers": (
        _is_headers,
        "a list of [name, value] string pairs, each name an RFC 9110 token, with no CR, LF or NUL",
    ),
    "content_type": (_is_str, "a string"),
    "body_file": (_is_str, "a string"),
    "body_sha256": (lambda value: isinstance(value, str) and _SHA256_RE.fullmatch(value) is not None,
                    "64 lowercase hex digits"),
    "body_len": (_is_count, "a non-negative integer"),
}


def _check_fields(obj: dict, fields: dict, where: str) -> None:
    for key, (check, what) in fields.items():
        if key not in obj:
            raise CorruptArchive(f"{where} lacks {key!r}")
        if not check(obj[key]):
            raise CorruptArchive(f"{where} {key} is not {what}")


def load_page(page_id: str, root_dir: str | Path) -> ArchivedPage:
    """Load ``<root_dir>/<page_id>/manifest.json`` and its bodies from
    ``<root_dir>/blobs/``, verifying every body's length and digest.

    Every manifest field must be present and of its type (a body_sha256 is
    64 lowercase hex digits), and every body_file must be exactly
    ``../blobs/<body_sha256>``; anything else raises CorruptArchive, as do a
    page id that is not one path component, and a manifest or blob that is
    missing or reached through a symbolic link below the root. Only that one
    name per body is ever read, so a manifest cannot lead a load outside the
    blob store. Archives in
    the old per-page ``bodies/<n>.bin`` layout are not read: their CorruptArchive
    says to store the pages again. A length or digest mismatch raises
    ChecksumMismatch. Each exchange keeps its verified digest and its blob's
    path, so storing it again neither hashes nor writes it again.
    """
    problem = page_id_problem(page_id)
    if problem:
        raise CorruptArchive(problem)
    root = os.fspath(root_dir)
    try:
        with _open_stored(root, page_id, MANIFEST_NAME) as fh:
            manifest = json.loads(fh.readall().decode("utf-8"))
    except OSError as exc:
        if exc.errno in _NOT_A_FILE:
            raise CorruptArchive(f"{page_id}: {MANIFEST_NAME} is missing or not a regular file") from None
        raise CorruptArchive(f"{page_id}: unreadable manifest: {exc}") from None
    except ValueError as exc:  # invalid JSON or UTF-8
        raise CorruptArchive(f"{page_id}: unreadable manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise CorruptArchive(f"{page_id}: manifest is not an object")
    _check_fields(manifest, _PAGE_FIELDS, f"{page_id}: manifest")
    problem = page_id_problem(manifest["page_id"])
    if problem:
        raise CorruptArchive(f"{page_id}: manifest page_id: {problem}")

    blob_prefix = os.path.join(root, BLOBS_DIR, "")
    exchanges: dict[tuple[str, str], ArchivedExchange] = {}
    blobs_fd = None  # <root>/blobs, opened once, for the first blob read
    try:
        for index, entry in enumerate(manifest["exchanges"]):
            where = f"{page_id}: exchange {index}"
            if not isinstance(entry, dict):
                raise CorruptArchive(f"{where} is not an object")
            _check_fields(entry, _ENTRY_FIELDS, where)
            digest, body_file = entry["body_sha256"], entry["body_file"]
            if body_file != _BLOB_REF + digest:
                if _OLD_BODY_FILE_RE.fullmatch(body_file):
                    raise CorruptArchive(
                        f"{page_id}: stored in the old per-page bodies/<n>.bin layout, which is no "
                        f"longer read; store the page again to move its bodies to {BLOBS_DIR}/<sha256>"
                    )
                raise CorruptArchive(f"{where} body_file {body_file!r} is outside the blob store; "
                                     f"it must be '{_BLOB_REF}<body_sha256>'")
            try:
                if blobs_fd is None:
                    blobs_fd = _open_dir(root, BLOBS_DIR)
                with _open_in(blobs_fd, digest) as fh:
                    body = fh.readall()
            except OSError as exc:
                if exc.errno in _NOT_A_FILE:
                    raise CorruptArchive(f"{where}: blob {BLOBS_DIR}/{digest} is missing or not a regular file") from None
                raise StorageError(f"{where}: cannot read blob {BLOBS_DIR}/{digest}: {exc}") from exc
            if len(body) != entry["body_len"]:
                raise ChecksumMismatch(
                    f"{where}: blob {BLOBS_DIR}/{digest} is {len(body)} bytes, manifest says {entry['body_len']}"
                )
            if hashlib.sha256(body).hexdigest() != digest:
                raise ChecksumMismatch(f"{where}: digest mismatch for blob {BLOBS_DIR}/{digest}")
            exchanges[(entry["method"], entry["url"])] = ArchivedExchange(
                method=entry["method"],
                url=entry["url"],
                status=entry["status"],
                headers=[(name, value) for name, value in entry["headers"]],
                body=body,
                content_type=entry["content_type"],
                digest_cache=(body, digest, blob_prefix + digest),
            )
    finally:
        if blobs_fd is not None:
            os.close(blobs_fd)

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
    if page_id_problem(corpus.name):
        raise StorageError(f"cannot save corpus: name {corpus.name!r} is not a single path component")
    corpora_dir = Path(root_dir) / "corpora"
    try:
        corpora_dir.mkdir(parents=True, exist_ok=True)
        path = corpora_dir / f"{corpus.name}.json"
        payload = {
            "name": corpus.name,
            "pages": corpus.pages,
            "group_labels": corpus.group_labels,
        }
        write_atomic(str(path), (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
    except OSError as exc:
        raise StorageError(f"cannot save corpus {corpus.name}: {exc}") from exc
    return path


def load_corpus(name: str, root_dir: str | Path) -> Corpus:
    if page_id_problem(name):
        raise CorruptArchive(f"corpus name {name!r} is not a single path component")
    try:
        with _open_stored(root_dir, "corpora", f"{name}.json") as fh:
            payload = json.loads(fh.readall().decode("utf-8"))
    except OSError as exc:
        if exc.errno in _NOT_A_FILE:
            raise CorruptArchive(f"corpus {name!r} not found under {root_dir}") from None
        raise CorruptArchive(f"corpus {name!r} unreadable: {exc}") from None
    except ValueError as exc:  # invalid JSON or UTF-8
        raise CorruptArchive(f"corpus {name!r} unreadable: {exc}") from None
    if not isinstance(payload, dict):
        raise CorruptArchive(f"corpus {name!r}: not a JSON object")
    corpus_name, pages = payload.get("name"), payload.get("pages")
    group_labels = payload.get("group_labels") or {}
    if not isinstance(corpus_name, str):
        raise CorruptArchive(f"corpus {name!r}: 'name' must be a string")
    if not isinstance(pages, list) or not all(isinstance(page_id, str) for page_id in pages):
        raise CorruptArchive(f"corpus {name!r}: 'pages' must be a list of page ids")
    for page_id in pages:
        problem = page_id_problem(page_id)
        if problem:
            raise CorruptArchive(f"corpus {name!r}: {problem}")
    if not are_group_labels(group_labels):
        raise CorruptArchive(f"corpus {name!r}: 'group_labels' must map page ids to label strings")
    return Corpus(name=corpus_name, pages=pages, group_labels=group_labels)
