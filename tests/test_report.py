import csv
import hashlib
import io
import json
import math
import os
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from wasef.archive import store_page
from wasef.errors import StorageError
from wasef.experiment import config_from_dict, run_experiment
from wasef.report import ReportBundle, emit_csv, emit_html, emit_summaries, write_bundle, write_json, write_text
from wasef.similarity import SimilarityScores
from wasef.stats import DeltaRecord, summarize_deltas

from conftest import page_from_parts


def sample_deltas(pages=("p1", "p2"), solutions=("strip",)):
    records = []
    for page_index, page_id in enumerate(pages):
        for solution in solutions:
            for metric_index, metric in enumerate(
                ["fcp", "speed_index", "plt", "page_size", "request_count", "js_processing"]
            ):
                original = 5.0 + metric_index
                variant = original - (1.0 + page_index * 0.5)
                records.append(
                    DeltaRecord(page_id, solution, metric, original, variant, original - variant)
                )
    return records


def sample_bundle(pages=("p1", "p2"), solutions=("strip",), skips=()):
    deltas = sample_deltas(pages, solutions)
    similarity_table = [
        (page_id, solution, SimilarityScores(0.9, 1.0, 0.8, 0.7, functional=0.75))
        for page_id in pages
        for solution in solutions
    ]
    return ReportBundle(
        experiment_id="abc123",
        config_snapshot={"seed": 0, "network": {"name": "3g"}},
        summaries=summarize_deltas(deltas),
        similarity_table=similarity_table,
        skip_report=list(skips),
        deltas=deltas,
    )


class TestCsv:
    def test_row_cardinality(self, tmp_path):
        emit_csv(sample_bundle(), tmp_path)
        lines = (tmp_path / "deltas.csv").read_text().strip().split("\n")
        assert lines[0] == "page_id,solution,metric,original,variant,delta"
        assert len(lines) - 1 == 2 * 1 * 6 == 12

    def test_similarity_csv_header_and_rows(self, tmp_path):
        emit_csv(sample_bundle(), tmp_path)
        lines = (tmp_path / "similarity.csv").read_text().strip().split("\n")
        assert lines[0] == "page_id,solution,structural,functional"
        assert len(lines) - 1 == 2

    def test_no_skips_no_file(self, tmp_path):
        emit_csv(sample_bundle(), tmp_path)
        assert not (tmp_path / "skips.csv").exists()

    def test_skips_file_when_present(self, tmp_path):
        emit_csv(sample_bundle(skips=[("p9", "strip", "kaput")]), tmp_path)
        assert "p9,strip,kaput" in (tmp_path / "skips.csv").read_text()

    def test_skips_file_bytes_equal_csv_writer(self, tmp_path):
        skips = [
            ("p1", "strip", "a, b"),
            ("p1", "thin", 'said "no"'),
            ("p2", "strip", "line\r\nbreak"),
            ("p2", "thin", "cr\ronly"),
            ("p3", "strip", "lf\nonly"),
            ("p3", "thin", ""),
        ]
        emit_csv(sample_bundle(skips=reversed(skips)), tmp_path)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["page_id", "solution", "reason"])
        writer.writerows(skips)
        assert (tmp_path / "skips.csv").read_bytes() == expected.getvalue().encode("utf-8")

    def test_skips_file_of_an_earlier_bundle_is_removed(self, tmp_path):
        emit_csv(sample_bundle(skips=[("p9", "strip", "kaput")]), tmp_path)
        paths = emit_csv(sample_bundle(), tmp_path)
        assert not (tmp_path / "skips.csv").exists()
        assert [p.name for p in paths] == ["deltas.csv", "similarity.csv"]

    def test_run_with_a_comma_in_its_page_id_reads_back_with_csv_reader(self, tmp_path):
        page = page_from_parts("<html><body><p>shop</p><script>var a = 1;</script></body></html>",
                               assets=[("/p.png", "image/png", b"\x89PNG" * 100)])
        page.page_id = "shop,home"
        store_page(page, tmp_path / "archive")
        config = config_from_dict({
            "archive_dir": str(tmp_path / "archive"),
            "out_dir": str(tmp_path / "out"),
            "corpus": {"name": "c", "pages": ["shop,home"]},
            "solutions": ["identity", "js-strip", "img-downscale"],
        })
        config.solutions[2].params["quality"] = "2"  # refused by config_from_dict; fails the transform
        result = run_experiment(config)
        assert result.exit_code == 3

        def rows(name):
            with open(tmp_path / "out" / "report" / name, newline="") as fh:
                return list(csv.reader(fh))

        deltas, similarity, skips = rows("deltas.csv"), rows("similarity.csv"), rows("skips.csv")
        assert len(deltas) == 1 + 6 and all(len(row) == 6 for row in deltas)
        assert len(similarity) == 1 + 2 and all(len(row) == 4 for row in similarity)
        assert {row[0] for row in deltas[1:] + similarity[1:]} == {"shop,home"}
        ((page_id, solution, reason),) = result.bundle.skip_report
        assert skips == [["page_id", "solution", "reason"], ["shop,home", "img-downscale", reason]]
        assert "shop,home" in reason and "(0, 1]" in reason

    def test_reemission_is_byte_identical(self, tmp_path):
        bundle = sample_bundle()
        emit_csv(bundle, tmp_path / "a")
        emit_csv(bundle, tmp_path / "b")
        for name in ("deltas.csv", "similarity.csv"):
            a = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
            b = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
            assert a == b

    def test_rows_sorted_lexicographically(self, tmp_path):
        emit_csv(sample_bundle(pages=("pz", "pa")), tmp_path)
        lines = (tmp_path / "deltas.csv").read_text().strip().split("\n")[1:]
        keys = [tuple(line.split(",")[:3]) for line in lines]
        assert keys == sorted(keys)


class TestHtml:
    def test_one_polyline_per_solution_in_metric_panel(self, tmp_path):
        bundle = sample_bundle(solutions=("a", "b", "c"))
        bundle.similarity_table = []  # isolate the metric panels
        path = emit_html(bundle, tmp_path)
        html = path.read_text()
        svgs = re.findall(r"<svg.*?</svg>", html, flags=re.S)
        plt_ecdf = [s for s in svgs if "delta plt ECDF" in s]
        assert len(plt_ecdf) == 1
        assert plt_ecdf[0].count("<polyline") == 3

    def test_zero_variance_error_bar_rendered(self, tmp_path):
        deltas = [
            DeltaRecord("p1", "s", "plt", 5.0, 3.0, 2.0),
            DeltaRecord("p2", "s", "plt", 5.0, 3.0, 2.0),
        ]
        bundle = ReportBundle("x", {}, summarize_deltas(deltas), [], [], deltas)
        html = emit_html(bundle, tmp_path).read_text()
        bars = re.findall(r'<line x1="([\d.]+)" y1="([\d.]+)" x2="\1" y2="([\d.]+)"', html)
        assert any(y1 == y2 for _, y1, y2 in bars)  # zero-height whisker exists

    def test_self_contained_and_deterministic(self, tmp_path):
        bundle = sample_bundle()
        first = emit_html(bundle, tmp_path / "a").read_bytes()
        second = emit_html(bundle, tmp_path / "b").read_bytes()
        assert first == second
        text = first.decode()
        assert "http-equiv" not in text
        assert "<img" not in text and "src=" not in text  # no external assets

    def test_skips_table(self, tmp_path):
        html = emit_html(sample_bundle(skips=[("p9", "s", "boom")]), tmp_path).read_text()
        assert "<td>p9</td>" in html

    def test_data_strings_are_escaped(self, tmp_path):
        deltas = sample_deltas(pages=("p<1", "p2"), solutions=("x<y&z",))
        bundle = ReportBundle(
            experiment_id="abc123",
            config_snapshot={"solutions": [{"name": "x<y&z"}], "note": "a > b"},
            summaries=summarize_deltas(deltas, {"p<1": "<g&1>"}),
            similarity_table=[("p<1", "x<y&z", SimilarityScores(0.9, 1.0, 0.8, 0.7, functional=0.75))],
            skip_report=[("p<1", "x<y&z", "bad <script> & worse")],
            deltas=deltas,
        )
        html = emit_html(bundle, tmp_path).read_text()
        assert "x<y&z" not in html and "<g&1>" not in html and "<script>" not in html
        assert "<td>p&lt;1</td><td>x&lt;y&amp;z</td><td>bad &lt;script&gt; &amp; worse</td>" in html
        assert "x&lt;y&amp;z/&lt;g&amp;1&gt;" in html  # a grouped bar label
        assert '"name": "x&lt;y&amp;z"' in html and '"note": "a &gt; b"' in html
        assert "P(X &#8804; x)" in html  # fixed labels stay as they are


class TestSummariesJson:
    def test_numbers_recomputable_from_deltas(self, tmp_path):
        bundle = sample_bundle(pages=("p1", "p2", "p3"))
        path = emit_summaries(bundle, tmp_path)
        payload = json.loads(path.read_text())
        by_key = {(s["metric"], s["solution"], s["group"]): s for s in payload["summaries"]}
        # Independent re-derivation: medians recomputed from the raw deltas.
        values = sorted(r.delta for r in bundle.deltas if r.metric == "plt")
        mid = len(values) // 2
        expected_median = (
            values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2
        )
        assert abs(by_key[("plt", "strip", None)]["median"] - expected_median) < 1e-9

    def test_config_snapshot_embedded(self, tmp_path):
        payload = json.loads(emit_summaries(sample_bundle(), tmp_path).read_text())
        assert payload["config"] == {"seed": 0, "network": {"name": "3g"}}
        assert payload["experiment_id"] == "abc123"


def test_failed_replace_leaves_the_earlier_file_intact(tmp_path, monkeypatch):
    path = write_text("first\n", tmp_path / "report" / "deltas.csv")
    assert path.read_bytes() == b"first\n"

    def failing_replace(src, dst, **dir_fds):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(StorageError, match="deltas.csv"):
        write_text("second\n", path)
    assert path.read_bytes() == b"first\n"
    assert os.listdir(path.parent) == ["deltas.csv"]  # no temporary file left


def test_write_bundle_emits_everything(tmp_path):
    paths = write_bundle(sample_bundle(skips=[("p", "s", "r")]), tmp_path)
    assert set(paths) == {"deltas.csv", "similarity.csv", "skips.csv", "summaries.json", "report.html"}
    for path in paths.values():
        assert path.is_file()


# --- the indented JSON writer against json.dumps ------------------------------


class Int(int):
    def __repr__(self):
        return "Int()"


class Float(float):
    def __repr__(self):
        return "Float()"


# Brackets, quotes, backslashes, line breaks and non-ASCII: what an encoded
# string must keep apart from the structure around it.
_TEXT = st.text(st.sampled_from(list('[]{}",:\\\n\r\t ab\x00\x7fé€\U0001f600')), max_size=6) | st.text(max_size=4)
_NUMBERS = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300]),
)
_SCALARS = st.one_of(st.none(), _NUMBERS, _TEXT)
_ODD_SCALARS = st.one_of(st.builds(Int, st.integers()), st.builds(Float, st.floats()))
_KEYS = st.one_of(_TEXT, st.integers(), st.floats(), st.booleans(), st.none())
# Number tables such as paint timelines and ECDF points, and row tables such
# as similarity.json's; empty rows included.
_TABLES = st.one_of(
    st.lists(st.lists(_NUMBERS, max_size=3) | st.tuples(_NUMBERS, _NUMBERS), max_size=5),
    st.lists(st.dictionaries(_TEXT, _SCALARS, max_size=3), max_size=4),
    st.lists(st.lists(_SCALARS, min_size=1, max_size=3), max_size=4),
)
_VALUES = st.recursive(
    st.one_of(_SCALARS, _TABLES, st.just([]), st.just({}), st.just(())),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(_KEYS, st.one_of(children, _ODD_SCALARS), max_size=3),
        st.lists(st.one_of(children, _ODD_SCALARS), max_size=3),
    ),
    max_leaves=24,
)


@settings(max_examples=250, deadline=None)
@given(_VALUES, st.booleans())
@example([{"page_id": "p", "fcp": 0.5, "paint_timeline": [(0.5, 0.25), (1.0, 1.0)]}, {"paint_timeline": []}], False)
@example({"ecdf": [[-1.5, 0.5], [2, 1.0]], "ci95": [math.nan, math.inf]}, False)
@example(["a],\n  [b", ["]"], {"k": "}"}], False)
@example({1: [1], None: {}, 2.5: ()}, False)
@example([Int(1), Float(2.0), [Int(3)]], False)
@example([[1, 2], [3, 4]], True)
def test_write_json_writes_exactly_what_json_dumps_writes(tmp_path_factory, value, without_c_encoder):
    path = tmp_path_factory.getbasetemp() / "indented" / "value.json"
    with mock.patch.object(json.encoder, "c_make_encoder", None if without_c_encoder else json.encoder.c_make_encoder):
        write_json(value, path)
    assert path.read_bytes().decode("utf-8") == json.dumps(value, indent=2) + "\n"


def test_tables_of_scalars_do_not_need_json_dumps(tmp_path, monkeypatch):
    """results.json, similarity.json and summaries.json take the C encoder."""

    def refused(*args, **kwargs):
        raise AssertionError("json.dumps called")

    value = {
        "config": {"pages": ["a", "b"], "labels": {"a": "x"}, "coefficients": [1.0, 1e-06]},
        "rows": [{"page_id": "a", "plt": 1.5, "paint_timeline": [(0.1, 0.5), (0.2, 1.0)]}, {"paint_timeline": []}],
        "similarity": [{"page_id": "a", "functional": None}, {"page_id": "b", "functional": 0.5}],
    }
    expected = json.dumps(value, indent=2) + "\n"
    monkeypatch.setattr(json, "dumps", refused)
    assert write_json(value, tmp_path / "v.json").read_text(encoding="utf-8") == expected


def test_a_circular_value_raises_as_json_dumps_does(tmp_path):
    value = [1]
    value.append({"self": value})
    with pytest.raises(ValueError, match="Circular reference"):
        write_json(value, tmp_path / "v.json")
    assert not (tmp_path / "v.json").exists()


# --- the CSV lines against csv.writer -----------------------------------------

_CSV_TEXT = st.text(st.sampled_from(list(',"\r\n \'\tab;é')), max_size=5)


def _csv_text(header, rows) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return text.getvalue()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_CSV_TEXT, _CSV_TEXT, _CSV_TEXT, st.floats(), st.floats()), max_size=8),
    st.lists(st.tuples(_CSV_TEXT, _CSV_TEXT, st.floats(), st.one_of(st.none(), st.floats(), st.integers())), max_size=8),
)
@example([("", "", "", 1.0, 2.0), ("a,b", 'q"', "\r", 0.0, -0.0)], [("", "\n", 1.0, None), (" ", "x", 0.5, 3)])
def test_csv_files_are_what_csv_writer_writes(tmp_path_factory, deltas, similarity_rows):
    out = tmp_path_factory.getbasetemp() / "csv"
    records = [DeltaRecord(p, s, m, o, v, o - v) for p, s, m, o, v in deltas]
    table = [(p, s, SimilarityScores(structural, 0.0, 0.0, 0.0, functional=functional))
             for p, s, structural, functional in similarity_rows]
    emit_csv(ReportBundle("x", {}, [], table, [], records), out)
    expected_deltas = _csv_text(
        "page_id,solution,metric,original,variant,delta",
        [(r.page_id, r.solution, r.metric, repr(r.original_value), repr(r.variant_value), repr(r.delta))
         for r in sorted(records, key=lambda r: (r.page_id, r.solution, r.metric))],
    )
    expected_similarity = _csv_text(
        "page_id,solution,structural,functional",
        [(p, s, repr(scores.structural), repr(scores.functional or 0.0))
         for p, s, scores in sorted(table, key=lambda r: (r[0], r[1]))],
    )
    assert (out / "deltas.csv").read_bytes().decode("utf-8") == expected_deltas  # keeps a lone \r
    assert (out / "similarity.csv").read_bytes().decode("utf-8") == expected_similarity
