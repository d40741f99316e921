"""Report emission: CSV tables, a summaries JSON, and one self-contained
static HTML file with inline SVG ECDF and bar-chart panels.

Output is byte-deterministic: fixed row ordering, fixed palette, and floats
printed with Python's shortest round-trip representation.

Every indented JSON file (results.json, similarity.json, summaries.json)
is written by write_json, whose text is byte for byte json.dumps(value,
indent=2). That call runs the json module's pure-Python encoder, since its C
encoder knows no indentation; write_json gets the same bytes from the C
encoder instead. A container that holds scalars alone (str, int, float,
bool or None, exactly those types) is one C call whose item separator is
",\n" plus the indentation of its depth. A list of such containers, all
non-empty and all dicts or all lists (paint timelines, ECDF points,
similarity rows), is one C call at the items' depth plus one str.replace of
the separator between two of them: with ensure_ascii no encoded string
holds a raw newline, so a closing bracket followed by ",\n" occurs nowhere
else. Any other list is written item by item, and any other dict as runs of
scalar items, one C call each, between its other items. Anything else (a
non-str key, a subclass, any other type) or an interpreter without the C
encoder leaves the whole value to json.dumps(value, indent=2).

deltas.csv and similarity.csv are joined line by line from the numbers as
_fmt writes them, which never need quoting, and the page ids, solutions
and metrics, each distinct one quoted once by csv.writer itself, so quoting
stays the csv module's on every Python version.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import operator
from dataclasses import dataclass, field
from html import escape
from pathlib import Path

from .archive import write_atomic
from .errors import StorageError
from .similarity import SimilarityScores
from .stats import DeltaRecord, DistributionSummary, DELTA_METRICS, ecdf, summary_to_dict

PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

_PANEL_W = 460
_PANEL_H = 280
_MARGIN = {"left": 64, "right": 16, "top": 28, "bottom": 42}


@dataclass
class ReportBundle:
    experiment_id: str
    config_snapshot: dict
    summaries: list[DistributionSummary]
    similarity_table: list[tuple[str, str, SimilarityScores]]
    skip_report: list[tuple[str, str, str]]
    deltas: list[DeltaRecord] = field(default_factory=list)


def _fmt(value) -> str:
    """Shortest decimal that round-trips; integers stay integral."""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


_text = functools.partial(escape, quote=False)  # a data string (page id, solution, ...) as HTML text


def write_text(text: str, path: str | Path) -> Path:
    """Atomically write a UTF-8 output file, creating its directory; OSError becomes StorageError."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(str(path), text.encode("utf-8"))
    except OSError as exc:
        raise StorageError(f"cannot write {path.name}: {exc}") from exc
    return path


# --- indented JSON -----------------------------------------------------------

_SCALARS = frozenset({str, int, float, bool, type(None)})
_KEYS = frozenset({str})
_SEQUENCES = frozenset({list, tuple})


class _Unsupported(Exception):
    """A value that only json.dumps writes."""


def _refuse(value):
    raise _Unsupported


@functools.cache
def _encoder(depth: int):
    """The C encoder that separates items as json.dumps(indent=2) does at
    this depth. It is handed only scalars and containers of scalars, which
    cannot hold themselves, so it keeps no markers."""
    return json.encoder.c_make_encoder(
        None, _refuse, json.encoder.encode_basestring_ascii, None, ": ", ",\n" + "  " * depth, False, False, True
    )


def _items(container, depth: int) -> str:
    """The items of a container of scalars, separated for this depth."""
    return "".join(_encoder(depth)(container, 0))[1:-1]


def _brackets(rows) -> str | None:
    """The brackets of rows' items, "{}" or "[]", when rows (a list) holds
    non-empty containers of scalars alone, all dicts or all lists and
    tuples; else None."""
    kinds = set(map(type, rows))
    if not all(rows):
        return None
    if kinds <= _SEQUENCES:
        return "[]" if _SCALARS.issuperset(map(type, itertools.chain.from_iterable(rows))) else None
    if kinds == {dict} and _KEYS.issuperset(map(type, itertools.chain.from_iterable(rows))):
        values = itertools.chain.from_iterable(map(dict.values, rows))
        return "{}" if _SCALARS.issuperset(map(type, values)) else None
    return None


def _indented(value, depth: int) -> str:
    """json.dumps(value, indent=2) for value nested depth levels deep (its
    first line unindented), or _Unsupported."""
    kind = type(value)
    if kind in _SCALARS:
        return "".join(_encoder(0)(value, 0))
    outer = "\n" + "  " * depth
    inner = outer + "  "
    if kind is dict:
        if not value:
            return "{}"
        parts, scalars = [], {}  # each run of scalar items is one C call
        for key, item in value.items():
            if type(key) is not str:
                raise _Unsupported
            if type(item) in _SCALARS:
                scalars[key] = item
                continue
            if scalars:
                parts.append(_items(scalars, depth + 1))
                scalars = {}
            parts.append(json.encoder.encode_basestring_ascii(key) + ": " + _indented(item, depth + 1))
        if scalars:
            parts.append(_items(scalars, depth + 1))
        return "{" + inner + ("," + inner).join(parts) + outer + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if _SCALARS.issuperset(map(type, value)):
            return "[" + inner + _items(value, depth + 1) + outer + "]"
        brackets = _brackets(value)
        if brackets is None:
            return "[" + inner + ("," + inner).join([_indented(item, depth + 1) for item in value]) + outer + "]"
        opening, closing = brackets
        deeper = inner + "  "
        rows = _items(value, depth + 2)[1:-1].replace(
            closing + "," + deeper + opening, inner + closing + "," + inner + opening + deeper
        )
        return "[" + inner + opening + deeper + rows + inner + closing + outer + "]"
    raise _Unsupported


def write_json(value, path: str | Path) -> Path:
    """Write value as indented JSON and a newline: exactly json.dumps(value,
    indent=2) + "\n" (see the module docstring for how)."""
    text = None
    if json.encoder.c_make_encoder is not None:
        try:
            text = _indented(value, 0)
        except (_Unsupported, RecursionError):  # json.dumps raises its own error for a cycle
            pass
    if text is None:
        text = json.dumps(value, indent=2)
    return write_text(text + "\n", path)


# --- CSV -----------------------------------------------------------------------


class _CsvFields(dict):
    """value -> the value as csv.writer writes it as one field of a row of
    several (a lone empty field is written quoted), each distinct value
    written once."""

    def __init__(self):
        super().__init__()
        self._text = io.StringIO()
        self._writer = csv.writer(self._text, lineterminator="\n")

    def __missing__(self, value) -> str:
        self._text.seek(0)
        self._text.truncate()
        self._writer.writerow((value, ""))
        field = self[value] = self._text.getvalue()[:-2]
        return field


def emit_csv(bundle: ReportBundle, out_dir: str | Path) -> list[Path]:
    """Write deltas.csv and similarity.csv, plus skips.csv when there are
    skips, with stable lexicographic row order. Without skips, a skips.csv
    an earlier run left in out_dir is removed."""
    out = Path(out_dir)
    rows = sorted(bundle.deltas, key=operator.attrgetter("page_id", "solution", "metric"))
    quoted = _CsvFields()
    lines = [
        f"{quoted[r.page_id]},{quoted[r.solution]},{quoted[r.metric]},"
        f"{_fmt(r.original_value)},{_fmt(r.variant_value)},{_fmt(r.delta)}\n"
        for r in rows
    ]
    paths = [write_text("page_id,solution,metric,original,variant,delta\n" + "".join(lines), out / "deltas.csv")]
    sim_rows = sorted(bundle.similarity_table, key=operator.itemgetter(0, 1))
    lines = [
        f"{quoted[page_id]},{quoted[solution]},{_fmt(scores.structural)},{_fmt(scores.functional or 0.0)}\n"
        for page_id, solution, scores in sim_rows
    ]
    paths.append(write_text("page_id,solution,structural,functional\n" + "".join(lines), out / "similarity.csv"))
    if bundle.skip_report:
        lines = [
            f"{quoted[page_id]},{quoted[solution]},{quoted[reason]}\n"
            for page_id, solution, reason in sorted(bundle.skip_report)
        ]
        paths.append(write_text("page_id,solution,reason\n" + "".join(lines), out / "skips.csv"))
    else:
        try:
            (out / "skips.csv").unlink(missing_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot remove skips.csv: {exc}") from exc
    return paths


def emit_summaries(bundle: ReportBundle, out_dir: str | Path) -> Path:
    payload = {
        "experiment_id": bundle.experiment_id,
        "config": bundle.config_snapshot,
        "summaries": [summary_to_dict(s) for s in bundle.summaries],
    }
    return write_json(payload, Path(out_dir) / "summaries.json")


# --- SVG helpers -------------------------------------------------------------


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


class _Svg:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">'
        ]

    def line(self, x1, y1, x2, y2, stroke="#444", width=1.0):
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def polyline(self, coords: str, stroke):
        """coords: the points as "x,y" pairs, space-separated."""
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'
        )

    def rect(self, x, y, w, h, fill):
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" fill="{fill}"/>'
        )

    def text(self, x, y, content, anchor="start", fill="#222", size=11):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" fill="{fill}" '
            f'font-size="{size}">{content}</text>'
        )

    def render(self) -> str:
        return "".join(self.parts) + "</svg>"


def _axes(svg: _Svg, title: str, x_lo, x_hi, y_lo, y_hi, x_label, y_label):
    left, right = _MARGIN["left"], _PANEL_W - _MARGIN["right"]
    top, bottom = _MARGIN["top"], _PANEL_H - _MARGIN["bottom"]
    svg.text(_PANEL_W / 2, 16, title, anchor="middle", size=13)
    svg.line(left, bottom, right, bottom)
    svg.line(left, top, left, bottom)
    for tick in _ticks(x_lo, x_hi):
        x = left + (tick - x_lo) / (x_hi - x_lo or 1.0) * (right - left)
        svg.line(x, bottom, x, bottom + 4)
        svg.text(x, bottom + 16, _tick_label(tick), anchor="middle", size=9)
    for tick in _ticks(y_lo, y_hi):
        y = bottom - (tick - y_lo) / (y_hi - y_lo or 1.0) * (bottom - top)
        svg.line(left - 4, y, left, y)
        svg.text(left - 7, y + 3, _tick_label(tick), anchor="end", size=9)
    svg.text(_PANEL_W / 2, _PANEL_H - 6, x_label, anchor="middle", size=10)
    svg.text(12, top - 8, y_label, anchor="start", size=10)
    return left, right, top, bottom


def _ecdf_panel(title: str, series: list[tuple[str, list[tuple[float, float]]]], x_label: str) -> str:
    """One ECDF panel: one step polyline per labeled series plus a legend."""
    svg = _Svg(_PANEL_W, _PANEL_H)
    xs = [v for _, points in series for v, _ in points] or [0.0]
    x_lo, x_hi = min(xs + [0.0]), max(xs + [0.0])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    left, right, top, bottom = _axes(svg, title, x_lo, x_hi, 0.0, 1.0, x_label, "P(X &#8804; x)")

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(p):
        return bottom - p * (bottom - top)

    floor, end = f"{sy(0.0):.2f}", f"{sx(x_hi):.2f}"
    for index, (label, points) in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        # A step line from (first x, 0): at each point's x it rises from the
        # level before to the point's own, then it runs flat to x_hi. Each x
        # and each level is formatted once.
        xs = [f"{sx(v):.2f}" for v, _ in points]
        levels = [floor] + [f"{sy(p):.2f}" for _, p in points]
        steps = " ".join([f"{x},{below} {x},{level}" for x, below, level in zip(xs, levels, levels[1:])])
        svg.polyline(f"{xs[0]},{floor} {steps} {end},{levels[-1]}", color)
        legend_y = top + 12 * index
        svg.rect(right - 104, legend_y, 10, 10, color)
        svg.text(right - 90, legend_y + 9, label, size=10)
    return svg.render()


def _bar_panel(title: str, bars: list[tuple[str, float, float, float]], y_label: str) -> str:
    """Mean bars with ci95 whiskers; bars are (label, mean, lo, hi)."""
    svg = _Svg(_PANEL_W, _PANEL_H)
    values = [v for _, mean, lo, hi in bars for v in (mean, lo, hi)] or [0.0]
    y_lo, y_hi = min(values + [0.0]), max(values + [0.0])
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    left, right, top, bottom = _axes(svg, title, 0.0, 1.0, y_lo, y_hi, "", y_label)

    def sy(v):
        return bottom - (v - y_lo) / (y_hi - y_lo) * (bottom - top)

    n = max(len(bars), 1)
    slot = (right - left) / n
    bar_w = slot * 0.55
    zero_y = sy(max(0.0, y_lo))
    for index, (label, mean, lo, hi) in enumerate(bars):
        color = PALETTE[index % len(PALETTE)]
        x = left + slot * index + (slot - bar_w) / 2
        y_top = min(sy(mean), zero_y)
        svg.rect(x, y_top, bar_w, abs(sy(mean) - zero_y), color)
        cx = x + bar_w / 2
        svg.line(cx, sy(lo), cx, sy(hi), stroke="#222", width=1.2)
        svg.line(cx - 4, sy(lo), cx + 4, sy(lo), stroke="#222", width=1.2)
        svg.line(cx - 4, sy(hi), cx + 4, sy(hi), stroke="#222", width=1.2)
        svg.text(cx, bottom + 28, label, anchor="middle", size=9)
    return svg.render()


def emit_html(bundle: ReportBundle, out_dir: str | Path) -> Path:
    """Write one self-contained report.html: per-metric delta ECDF panels,
    per-metric mean bars with ci95 whiskers (per solution and group), and
    similarity score panels. No external assets; deterministic bytes."""
    metric_names = [name for name, _ in DELTA_METRICS]
    by_metric: dict[str, list[DistributionSummary]] = {name: [] for name in metric_names}
    for summary in bundle.summaries:
        by_metric.setdefault(summary.metric, []).append(summary)

    sections = []
    for metric in metric_names:
        summaries = by_metric.get(metric, [])
        if not summaries:
            continue
        combined = sorted(
            (s for s in summaries if s.group is None), key=lambda s: s.solution
        )
        grouped = sorted(
            (s for s in summaries if s.group is not None),
            key=lambda s: (s.solution, s.group),
        )
        ecdf_series = [(_text(s.solution), s.ecdf) for s in combined]
        bars = [
            (_text(s.solution if s.group is None else f"{s.solution}/{s.group}"), s.mean, s.ci95[0], s.ci95[1])
            for s in combined + grouped
        ]
        panels = _ecdf_panel(f"delta {metric} ECDF", ecdf_series, f"delta {metric}")
        panels += _bar_panel(f"mean delta {metric} (95% CI)", bars, f"delta {metric}")
        sections.append(f"<section><h2>{metric}</h2><div class='row'>{panels}</div></section>")

    sim_by_solution: dict[str, tuple[list[float], list[float]]] = {}
    for page_id, solution, scores in bundle.similarity_table:
        struct, func = sim_by_solution.setdefault(solution, ([], []))
        struct.append(scores.structural)
        func.append(scores.functional or 0.0)
    if sim_by_solution:
        struct_series = [
            (_text(solution), ecdf(values[0]))
            for solution, values in sorted(sim_by_solution.items())
        ]
        func_series = [
            (_text(solution), ecdf(values[1]))
            for solution, values in sorted(sim_by_solution.items())
        ]
        panels = _ecdf_panel("structural similarity ECDF", struct_series, "score")
        panels += _ecdf_panel("functional similarity ECDF", func_series, "score")
        sections.append(f"<section><h2>similarity</h2><div class='row'>{panels}</div></section>")

    skip_rows = "".join(
        f"<tr><td>{_text(p)}</td><td>{_text(s)}</td><td>{_text(r)}</td></tr>"
        for p, s, r in sorted(bundle.skip_report)
    )
    skips_html = (
        f"<section><h2>skips</h2><table><tr><th>page</th><th>solution</th>"
        f"<th>reason</th></tr>{skip_rows}</table></section>"
        if bundle.skip_report
        else ""
    )

    config_json = _text(json.dumps(bundle.config_snapshot, indent=2, sort_keys=True))
    html = (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>experiment {bundle.experiment_id}</title>"
        "<style>body{font-family:sans-serif;margin:24px;color:#222}"
        "h1{font-size:20px}h2{font-size:16px;margin:18px 0 6px}"
        ".row svg{margin:4px 8px 4px 0}"
        "table{border-collapse:collapse}td,th{border:1px solid #bbb;padding:3px 8px;font-size:12px}"
        "pre{background:#f5f5f5;padding:8px;font-size:11px}</style></head><body>"
        f"<h1>experiment {bundle.experiment_id}</h1>"
        "<p>Delta is original minus variant; positive bars mean the solution improved "
        "the metric. Confidence intervals use the normal approximation "
        "(1.96 standard errors).</p>"
        + "".join(sections)
        + skips_html
        + f"<section><h2>configuration snapshot</h2><pre>{config_json}</pre></section>"
        "</body></html>"
    )
    return write_text(html, Path(out_dir) / "report.html")


def write_bundle(bundle: ReportBundle, out_dir: str | Path) -> dict[str, Path]:
    """Emit every report artifact into out_dir."""
    paths = {}
    for p in emit_csv(bundle, out_dir):
        paths[p.name] = p
    paths["summaries.json"] = emit_summaries(bundle, out_dir)
    paths["report.html"] = emit_html(bundle, out_dir)
    return paths
