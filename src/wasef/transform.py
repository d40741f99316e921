"""Page-simplification transforms: archive-to-archive rewrites picked by name.

Every transform is a pure function from an ArchivedPage to a new
ArchivedPage, so each one sees identical frozen input and re-running it is
byte-deterministic. Five built-ins ship with the registry; custom transforms
register through register_transform().
"""

from __future__ import annotations

import logging
import math
import re
import subprocess
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import urlsplit

from . import jsscan
from .archive import ArchivedExchange, ArchivedPage, is_js_content_type
from .errors import TransformFailed, UnknownTransform
from .pagemodel import HtmlIndex, decode_body, html_index

log = logging.getLogger(__name__)

_NAME_RE = re.compile(r"^[a-z0-9_-]+$")

# Appended to every thinned image body; its length is the transform's
# declared rounding overhead.
DOWNSCALE_MARKER = b"#thinned-marker#"


@dataclass
class TransformSpec:
    name: str
    params: dict[str, str] = field(default_factory=dict)
    version: str = "1"


@dataclass
class VariantPage:
    base_page_id: str
    transform: TransformSpec
    page: ArchivedPage
    provenance: dict


def _apply_edits(text: str, edits: list[tuple[int, int, str]]) -> str:
    """Replace each (start, end, new) span of text in one forward pass,
    dropping an edit that starts inside the one kept before it.

    Precondition: edits are disjoint or nested. Script spans are raw-text
    elements and handler edits are non-script start tags, so the only nesting
    is a handler edit inside a removed script, and it is dropped."""
    parts = []
    pos = 0
    for start, end, new in sorted(edits, key=lambda edit: (edit[0], -edit[1])):
        if start < pos:
            continue
        parts += (text[pos:start], new)
        pos = end
    parts.append(text[pos:])
    return "".join(parts)


def _rebuild_page(page: ArchivedPage, dropped_urls: set[str], replaced_bodies: dict[str, bytes]) -> ArchivedPage:
    exchanges: dict[tuple[str, str], ArchivedExchange] = {}
    for (method, url), ex in page.exchanges.items():
        if url in dropped_urls and url != page.root_url:
            continue
        body = replaced_bodies.get(url, ex.body)
        unchanged = body == ex.body  # then keep the original object, whose digest and blob are known
        exchanges[(method, url)] = ArchivedExchange(
            method=ex.method,
            url=ex.url,
            status=ex.status,
            headers=list(ex.headers),
            body=ex.body if unchanged else body,
            content_type=ex.content_type,
            digest_cache=ex.digest_cache if unchanged else None,
        )
    return ArchivedPage(
        page_id=page.page_id,
        root_url=page.root_url,
        exchanges=exchanges,
        recorded_at=page.recorded_at,
        source=page.source,
    )


def _script_exchange_urls(page: ArchivedPage) -> set[str]:
    return {url for (_, url), ex in page.exchanges.items() if is_js_content_type(ex.content_type)}


# --- built-in transforms ---------------------------------------------------


def _identity(page: ArchivedPage, params: dict[str, str]) -> ArchivedPage:
    return _rebuild_page(page, set(), {})


def _root_index(page: ArchivedPage) -> HtmlIndex:
    return html_index(page.root_exchange().body, page.root_url)


def _js_strip(page: ArchivedPage, params: dict[str, str]) -> ArchivedPage:
    """Remove every script element and inline handler attribute, and drop
    script exchanges from the archive."""
    index = _root_index(page)
    removals = [(span.start, span.end, "") for span in index.script_spans]
    new_text = _apply_edits(index.text, removals + list(index.handler_edits))
    dropped = {span.url for span in index.script_spans if span.url is not None}
    dropped |= _script_exchange_urls(page)
    return _rebuild_page(page, dropped, {page.root_url: new_text.encode(index.codec)})


def _js_block_thirdparty(page: ArchivedPage, params: dict[str, str]) -> ArchivedPage:
    """Remove external script elements whose host differs from the root host
    (exact host comparison), and drop their exchanges."""
    root_host = urlsplit(page.root_url).hostname or ""
    index = _root_index(page)
    removals = []
    dropped = set()
    for span in index.script_spans:
        if span.url is not None and (urlsplit(span.url).hostname or "") != root_host:
            removals.append((span.start, span.end, ""))
            dropped.add(span.url)
    new_text = _apply_edits(index.text, removals)
    return _rebuild_page(page, dropped, {page.root_url: new_text.encode(index.codec)})


def _js_dce(page: ArchivedPage, params: dict[str, str]) -> ArchivedPage:
    """Delete top-level function declarations from archived scripts when the
    name is never referenced outside its own body, iterating to a fixpoint.

    References are counted lexically over every script (external and inline)
    plus the inline handler values the root's index records
    (HtmlIndex.handler_text), the same handlers the similarity scorer
    reads; no pattern is run over the document here. Names that only appear
    inside strings still count as references, so the pass only ever
    under-deletes.
    """
    index = _root_index(page)
    inline_texts = [index.text[span.start:span.end] for span in index.script_spans if not span.src]

    script_texts: dict[str, tuple[str, str]] = {}  # url -> (text, codec)
    for (_, url), ex in page.exchanges.items():
        if is_js_content_type(ex.content_type):
            script_texts[url] = decode_body(ex.body)

    # Tokens of the inline scripts, handlers and every script as it stands. A
    # function is dead when its own body holds every token of its name.
    tokens = jsscan.token_counts("\n".join([*inline_texts, *index.handler_text]))
    indexes = {url: jsscan.index(text) for url, (text, _) in script_texts.items()}
    for ix in indexes.values():
        tokens.update(ix.tokens)
    changed = True
    while changed:
        changed = False
        for url, (text, codec) in script_texts.items():
            doomed = [
                (start, end, "")
                for name, start, end in indexes[url].function_spans
                if tokens[name] == jsscan.token_counts(text[start:end])[name]
            ]
            if doomed:
                text = _apply_edits(text, doomed)
                script_texts[url] = (text, codec)
                tokens.subtract(indexes[url].tokens)
                indexes[url] = jsscan.index(text)
                tokens.update(indexes[url].tokens)
                changed = True

    replaced = {url: text.encode(codec) for url, (text, codec) in script_texts.items()}
    return _rebuild_page(page, set(), replaced)


def downscale_quality(params: dict[str, str]) -> float:
    """img-downscale's ``quality`` param as a float: the fraction of image
    bytes to keep, 0.5 when absent. Anything but a number in (0, 1] raises
    ValueError. Config validation and the transform both read it here."""
    raw = params.get("quality", "0.5")
    try:
        quality = float(raw)
    except ValueError:
        quality = math.nan
    if not 0.0 < quality <= 1.0:
        raise ValueError(f"quality must be in (0, 1], got {raw!r}")
    return quality


def _img_downscale(page: ArchivedPage, params: dict[str, str]) -> ArchivedPage:
    """Thin each image body to ceil(quality * len) bytes plus a fixed marker.

    The output is not a decodable image; the pipeline measures bytes, not
    pixels. Bodies that would not shrink are left untouched so the variant
    never grows.
    """
    quality = downscale_quality(params)
    replaced = {}
    for (_, url), ex in page.exchanges.items():
        if not ex.content_type.startswith("image/"):
            continue
        keep = math.ceil(quality * len(ex.body))
        thinned = ex.body[:keep] + DOWNSCALE_MARKER
        if len(thinned) < len(ex.body):
            replaced[url] = thinned
    return _rebuild_page(page, set(), replaced)


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class _TransformEntry:
    name: str
    description: str
    param_schema: dict
    fn: object


_REGISTRY: dict[str, _TransformEntry] = {}


def register_transform(name: str, description: str, fn, param_schema: dict | None = None) -> None:
    """Add a transform to the registry. Names are lowercase [a-z0-9_-] and
    must be unique."""
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid transform name {name!r}")
    if name in _REGISTRY:
        raise ValueError(f"transform {name!r} is already registered")
    _REGISTRY[name] = _TransformEntry(name, description, dict(param_schema or {}), fn)


def list_transforms() -> list[tuple[str, str, dict]]:
    """Registered transforms in registration order (built-ins first)."""
    return [(e.name, e.description, dict(e.param_schema)) for e in _REGISTRY.values()]


def register_subprocess_transform(
    name: str,
    command: list[str],
    description: str = "external transform",
    timeout_seconds: float = 120.0,
) -> None:
    """Register an out-of-process transform.

    Contract: the command reads the stored page directory path from stdin,
    writes the variant page directory path to stdout, and exits 0 on
    success. Transform params are exported as WASEF_PARAM_<key> environment
    variables. Pages are stored in the archive layout (see ``archive``): the
    page directory holds only manifest.json, and its bodies are blobs under
    the directory's parent, the archive root. The variant directory must sit
    in an archive root too. For each body it changes, the command writes the
    new bytes as ``<root>/blobs/<sha256>`` (the hex SHA-256 of those bytes)
    and sets the manifest entry's ``body_file`` to ``../blobs/<sha256>``,
    ``body_sha256`` to the digest and ``body_len`` to the length; unchanged
    entries can point at the blobs already there. Copying the page
    directory to a sibling directory is thus a valid identity transform.
    """
    from .archive import load_page, store_page  # local import avoids a cycle

    def fn(page: ArchivedPage, params: dict[str, str]) -> ArchivedPage:
        import os

        with tempfile.TemporaryDirectory(prefix="wasef-xform-") as tmp:
            # The command may write into the store's blobs in place, so none
            # may be a hard link to the archive's (see ``archive``).
            exchanges = {key: replace(ex, digest_cache=None) for key, ex in page.exchanges.items()}
            store_page(replace(page, exchanges=exchanges), tmp)
            env = dict(os.environ)
            for key, value in params.items():
                env[f"WASEF_PARAM_{key.upper()}"] = value
            proc = subprocess.run(
                command,
                input=str(Path(tmp) / page.page_id) + "\n",
                capture_output=True,
                text=True,
                timeout=timeout_seconds,
                env=env,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[:400]}")
            lines = [line for line in proc.stdout.splitlines() if line.strip()]
            if not lines:
                raise RuntimeError("subprocess printed no variant directory path")
            variant_dir = Path(lines[-1].strip())
            return load_page(variant_dir.name, variant_dir.parent)

    register_transform(name, description, fn)


def apply_transform(spec: TransformSpec, page: ArchivedPage) -> VariantPage:
    """Run one named transform over a page, producing a variant page whose
    id is ``<base_page_id>:<transform name>``.

    Raises UnknownTransform for unregistered names and TransformFailed
    (carrying the cause) when the transform itself errors; callers treat the
    latter as a per-page skip, not an abort.
    """
    entry = _REGISTRY.get(spec.name)
    if entry is None:
        raise UnknownTransform(f"no transform named {spec.name!r}")
    try:
        new_page = entry.fn(page, dict(spec.params))
    except Exception as exc:
        raise TransformFailed(f"{spec.name} failed on {page.page_id}: {exc}") from exc
    if new_page.root_url != page.root_url:
        raise TransformFailed(f"{spec.name} changed the root URL of {page.page_id}")
    if not any(url == new_page.root_url for (_, url) in new_page.exchanges):
        raise TransformFailed(f"{spec.name} dropped the root document of {page.page_id}")
    new_page.page_id = f"{page.page_id}:{spec.name}"
    provenance = {
        "bytes_removed": page.total_bytes() - new_page.total_bytes(),
        "resources_dropped": len(page.exchanges) - len(new_page.exchanges),
        "notes": f"{spec.name} v{spec.version}",
    }
    return VariantPage(
        base_page_id=page.page_id,
        transform=spec,
        page=new_page,
        provenance=provenance,
    )


register_transform("identity", "no-op baseline; the variant equals the original", _identity)
register_transform("js-strip", "remove all script elements and inline handler attributes", _js_strip)
register_transform(
    "js-block-thirdparty",
    "remove external scripts hosted off the root host",
    _js_block_thirdparty,
)
register_transform(
    "js-dce",
    "delete top-level functions never referenced outside their own body",
    _js_dce,
)
register_transform(
    "img-downscale",
    "thin image bodies to a fraction of their size",
    _img_downscale,
    {"quality": "fraction of image bytes to keep, in (0, 1]; default 0.5"},
)
