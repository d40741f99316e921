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
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

from . import jsscan
from .archive import ArchivedExchange, ArchivedPage, is_js_content_type
from .errors import TransformFailed, UnknownTransform
from .pagemodel import ON_ATTR_RE, HtmlIndex, decode_body, html_index

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


def _apply_edits(text: str, removals: list[tuple[int, int]], replacements: list[tuple[int, int, str]]) -> str:
    """Apply span edits back-to-front; replacements nested inside a removed
    span are dropped."""
    removal_spans = sorted(removals)
    edits: list[tuple[int, int, str]] = [(s, e, "") for s, e in removals]
    for start, end, new in replacements:
        if any(s <= start and end <= e for s, e in removal_spans):
            continue
        edits.append((start, end, new))
    edits.sort(key=lambda edit: edit[0], reverse=True)
    for start, end, new in edits:
        text = text[:start] + new + text[end:]
    return text


def _rebuild_page(page: ArchivedPage, new_root_body: bytes | None, dropped_urls: set[str],
                  replaced_bodies: dict[str, bytes] | None = None) -> ArchivedPage:
    replaced_bodies = replaced_bodies or {}
    exchanges: dict[tuple[str, str], ArchivedExchange] = {}
    for (method, url), ex in page.exchanges.items():
        if url in dropped_urls and url != page.root_url:
            continue
        body = ex.body
        if url == page.root_url and new_root_body is not None:
            body = new_root_body
        elif url in replaced_bodies:
            body = replaced_bodies[url]
        exchanges[(method, url)] = ArchivedExchange(
            method=ex.method,
            url=ex.url,
            status=ex.status,
            headers=list(ex.headers),
            body=body,
            content_type=ex.content_type,
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
    return _rebuild_page(page, None, set())


def _root_index(page: ArchivedPage) -> HtmlIndex:
    return html_index(page.root_exchange().body, page.root_url)


def _js_strip(page: ArchivedPage, params: dict[str, str]) -> ArchivedPage:
    """Remove every script element and inline handler attribute, and drop
    script exchanges from the archive."""
    index = _root_index(page)
    removals = [(span.start, span.end) for span in index.script_spans]
    new_text = _apply_edits(index.text, removals, list(index.handler_edits))
    dropped = {span.url for span in index.script_spans if span.url is not None}
    return _rebuild_page(page, new_text.encode(index.codec), dropped | _script_exchange_urls(page))


def _js_block_thirdparty(page: ArchivedPage, params: dict[str, str]) -> ArchivedPage:
    """Remove external script elements whose host differs from the root host
    (exact host comparison), and drop their exchanges."""
    root_host = urlsplit(page.root_url).hostname or ""
    index = _root_index(page)
    removals = []
    dropped = set()
    for span in index.script_spans:
        if span.url is not None and (urlsplit(span.url).hostname or "") != root_host:
            removals.append((span.start, span.end))
            dropped.add(span.url)
    if not removals:
        return _rebuild_page(page, None, set())
    new_text = _apply_edits(index.text, removals, [])
    return _rebuild_page(page, new_text.encode(index.codec), dropped)


def _js_dce(page: ArchivedPage, params: dict[str, str]) -> ArchivedPage:
    """Delete top-level function declarations from archived scripts when the
    name is never referenced outside its own body, iterating to a fixpoint.

    References are counted lexically over every script (external and inline)
    plus inline handler attributes; names that only appear inside strings
    still count as references, so the pass only ever under-deletes.
    """
    index = _root_index(page)
    inline_texts = [index.text[span.start:span.end] for span in index.script_spans if not span.src]
    handler_text = " ".join(match.group(1) for match in ON_ATTR_RE.finditer(index.text))

    script_texts: dict[str, tuple[str, str]] = {}  # url -> (text, codec)
    for (_, url), ex in page.exchanges.items():
        if is_js_content_type(ex.content_type):
            script_texts[url] = decode_body(ex.body)

    # A name's references are counted as tokens: over the inline scripts and
    # handlers, plus every script as it stands, minus the function's own body.
    base_tokens = jsscan.token_counts("\n".join(inline_texts + [handler_text]))
    indexes = {url: jsscan.index(text) for url, (text, _) in script_texts.items()}
    changed = True
    while changed:
        changed = False
        for url, (text, codec) in script_texts.items():
            doomed = []
            for name, start, end in indexes[url].function_spans:
                outside = (
                    base_tokens[name]
                    + sum(ix.tokens[name] for ix in indexes.values())
                    - jsscan.count_references(name, text[start:end])
                )
                if outside == 0:
                    doomed.append((start, end))
            if doomed:
                for start, end in sorted(doomed, reverse=True):
                    text = text[:start] + text[end:]
                script_texts[url] = (text, codec)
                indexes[url] = jsscan.index(text)
                changed = True

    replaced = {url: text.encode(codec) for url, (text, codec) in script_texts.items()}
    return _rebuild_page(page, None, set(), replaced)


def _img_downscale(page: ArchivedPage, params: dict[str, str]) -> ArchivedPage:
    """Thin each image body to ceil(quality * len) bytes plus a fixed marker.

    The output is not a decodable image; the pipeline measures bytes, not
    pixels. Bodies that would not shrink are left untouched so the variant
    never grows.
    """
    quality = float(params.get("quality", "0.5"))
    if not 0.0 < quality <= 1.0:
        raise ValueError(f"quality must be in (0, 1], got {quality}")
    replaced = {}
    for (_, url), ex in page.exchanges.items():
        if not ex.content_type.startswith("image/"):
            continue
        keep = math.ceil(quality * len(ex.body))
        thinned = ex.body[:keep] + DOWNSCALE_MARKER
        if len(thinned) < len(ex.body):
            replaced[url] = thinned
    return _rebuild_page(page, None, set(), replaced)


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
    variables.
    """
    from .archive import load_page, store_page  # local import avoids a cycle

    def fn(page: ArchivedPage, params: dict[str, str]) -> ArchivedPage:
        import os

        with tempfile.TemporaryDirectory(prefix="wasef-xform-") as tmp:
            store_page(page, tmp)
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
