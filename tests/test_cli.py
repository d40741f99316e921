import concurrent.futures
import hashlib
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wasef
import wasef.experiment
import wasef.jsscan
import wasef.pagemodel
import wasef.report
import wasef.similarity
import wasef.stats
from wasef.archive import load_page, store_page
from wasef.cli import main
from wasef.errors import ConfigError
from wasef.experiment import config_from_dict, load_config, read_results, read_similarity, run_experiment
from wasef.fixtures import make_fixtures
from wasef.loadsim import DEVICE_PROFILES, NETWORK_PROFILES, simulate_load
from wasef.pagemodel import parse_page
from wasef.similarity import score_graphs
from wasef.transform import _REGISTRY, TransformSpec, apply_transform, register_subprocess_transform

from conftest import page_from_parts
from test_extension import COPY_SCRIPT


def root_blob(archive: Path, page_id: str) -> Path:
    """The blob that holds a stored page's root document."""
    manifest = json.loads((archive / page_id / "manifest.json").read_text())
    entry = next(e for e in manifest["exchanges"] if e["url"] == manifest["root_url"])
    return archive / "blobs" / entry["body_sha256"]


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestFixtures:
    def test_seeded_determinism(self, tmp_path):
        make_fixtures(tmp_path / "a", 12, seed=7)
        make_fixtures(tmp_path / "b", 12, seed=7)
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        make_fixtures(tmp_path / "a", 4, seed=7)
        make_fixtures(tmp_path / "b", 4, seed=8)
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")

    def test_count_one_has_valid_root(self, tmp_path):
        corpus = make_fixtures(tmp_path, 1, seed=3)
        assert len(corpus.pages) == 1
        page = load_page(corpus.pages[0], tmp_path)
        assert page.root_exchange().content_type == "text/html"
        parse_page(page)

    def test_degenerate_classes_present(self, tmp_path):
        corpus = make_fixtures(tmp_path, 8, seed=5)
        zero_visual_count = 0
        for pid in corpus.pages:
            graph = parse_page(load_page(pid, tmp_path))
            if graph.zero_visual:
                zero_visual_count += 1
        # zero_visual, script_only, and image-only-with-missing? image_only has
        # visual weight, so exactly the two script/empty classes are blank.
        assert zero_visual_count >= 2

    def test_js_heavy_page_exceeds_one_second_of_js(self, tmp_path):
        corpus = make_fixtures(tmp_path, 3, seed=9, profile="js_heavy")
        for pid in corpus.pages:
            graph = parse_page(load_page(pid, tmp_path))
            metrics = simulate_load(graph, NETWORK_PROFILES["3g"], DEVICE_PROFILES["lowend"])
            assert metrics.js_processing_seconds > 1.0

    def test_group_labels_assigned(self, tmp_path):
        corpus = make_fixtures(tmp_path, 4, seed=2)
        assert set(corpus.group_labels.values()) == {"landing", "internal"}


class TestConfig:
    def _raw(self, archive, out, pages):
        return {
            "archive_dir": str(archive),
            "out_dir": str(out),
            "corpus": {"name": "t", "pages": pages},
            "solutions": ["identity", "js-strip"],
            "network": "3g",
            "device": "lowend",
        }

    def test_missing_field(self, tmp_path):
        with pytest.raises(ConfigError, match="archive_dir"):
            config_from_dict({"out_dir": "x", "corpus": "c", "solutions": ["identity"]})

    def test_missing_page_named(self, tmp_path):
        raw = self._raw(tmp_path, tmp_path / "out", ["ghost-page"])
        with pytest.raises(ConfigError, match="ghost-page"):
            config_from_dict(raw)

    def test_empty_corpus(self, tmp_path):
        raw = self._raw(tmp_path, tmp_path / "out", [])
        with pytest.raises(ConfigError, match="empty"):
            config_from_dict(raw)

    @pytest.mark.parametrize("group_labels", [["landing"], "landing", 3])
    def test_inline_group_labels_must_be_an_object(self, tmp_path, group_labels):
        corpus = make_fixtures(tmp_path, 1, seed=1)
        raw = self._raw(tmp_path, tmp_path / "out", corpus.pages)
        raw["corpus"]["group_labels"] = group_labels
        with pytest.raises(ConfigError, match="group_labels"):
            config_from_dict(raw)

    @pytest.mark.parametrize("label", [["x"], 3, None])
    def test_inline_group_label_that_is_not_a_string_exits_2_with_one_line(self, tmp_path, capsys, label):
        corpus = make_fixtures(tmp_path / "archive", 1, seed=1)
        raw = self._raw(tmp_path / "archive", tmp_path / "out", corpus.pages)
        raw["corpus"]["group_labels"] = {corpus.pages[0]: label}
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: corpus.group_labels:") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("page_id", ["", ".", "..", "a/b", "a\\b", "a\x00b"])
    def test_inline_page_id_must_be_one_path_component(self, tmp_path, page_id):
        raw = self._raw(tmp_path, tmp_path / "out", [page_id])
        with pytest.raises(ConfigError, match="single path component") as exc_info:
            config_from_dict(raw)
        assert exc_info.value.field == "corpus.pages"

    def test_page_outside_the_archive_is_a_config_error(self, tmp_path):
        corpus = make_fixtures(tmp_path / "elsewhere", 1, seed=1)
        (tmp_path / "archive").mkdir()
        raw = self._raw(tmp_path / "archive", tmp_path / "out", [f"../elsewhere/{corpus.pages[0]}"])
        with pytest.raises(ConfigError, match="single path component") as exc_info:
            config_from_dict(raw)
        assert exc_info.value.field == "corpus.pages"

    def test_malformed_named_corpus_is_a_config_error(self, tmp_path):
        (tmp_path / "corpora").mkdir()
        (tmp_path / "corpora" / "c1.json").write_text(json.dumps({"pages": ["p1"]}), encoding="utf-8")
        raw = self._raw(tmp_path, tmp_path / "out", [])
        raw["corpus"] = "c1"
        with pytest.raises(ConfigError, match="corpus"):
            config_from_dict(raw)

    def test_identity_implied_when_absent(self, tmp_path):
        corpus = make_fixtures(tmp_path, 1, seed=1)
        raw = self._raw(tmp_path, tmp_path / "out", corpus.pages)
        raw["solutions"] = ["js-strip"]
        config = config_from_dict(raw)
        assert [s.name for s in config.solutions] == ["identity", "js-strip"]

    @pytest.mark.parametrize(
        "solutions",
        [
            [{"name": "img-downscale", "params": {"quality": "0.2"}},
             {"name": "img-downscale", "params": {"quality": "0.9"}}],
            ["identity", "js-strip", "identity"],
        ],
    )
    def test_duplicate_solution_names(self, tmp_path, solutions):
        corpus = make_fixtures(tmp_path, 1, seed=1)
        raw = self._raw(tmp_path, tmp_path / "out", corpus.pages)
        raw["solutions"] = solutions
        with pytest.raises(ConfigError, match="named more than once") as info:
            config_from_dict(raw)
        assert info.value.field == "solutions"

    def test_unknown_network_profile(self, tmp_path):
        corpus = make_fixtures(tmp_path, 1, seed=1)
        raw = self._raw(tmp_path, tmp_path / "out", corpus.pages)
        raw["network"] = "5g"
        with pytest.raises(ConfigError, match="network"):
            config_from_dict(raw)

    def test_inline_profiles(self, tmp_path):
        corpus = make_fixtures(tmp_path, 1, seed=1)
        raw = self._raw(tmp_path, tmp_path / "out", corpus.pages)
        raw["network"] = {"bandwidth_bytes_per_sec": 1e6, "rtt_seconds": 0.1}
        raw["device"] = {"js_exec_bytes_per_sec": 5e5}
        config = config_from_dict(raw)
        assert config.network.bandwidth_bytes_per_sec == 1e6
        assert config.device.js_exec_bytes_per_sec == 5e5

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("network", {"bandwidth_bytes_per_sec": -100, "rtt_seconds": 0.1}, "network"),
            ("network", {"bandwidth_bytes_per_sec": "nan", "rtt_seconds": 0.1}, "network"),
            ("network", {"bandwidth_bytes_per_sec": 0, "rtt_seconds": 0.1}, "network"),
            ("network", {"bandwidth_bytes_per_sec": 1e6, "rtt_seconds": -0.1}, "network"),
            ("network", {"bandwidth_bytes_per_sec": 1e6, "rtt_seconds": 0.1, "max_connections_per_host": 0},
             "network"),
            ("network", {"bandwidth_bytes_per_sec": 1e6, "rtt_seconds": 0.1, "max_connections_per_host": 2.7},
             "network"),
            ("device", {"js_exec_bytes_per_sec": 0}, "device"),
            ("device", {"html_parse_bytes_per_sec": -1}, "device"),
            ("device", {"cost_coefficients": {"a": 1}}, "device.cost_coefficients"),
            ("device", {"cost_coefficients": [1.0]}, "device.cost_coefficients"),
            ("solutions", [{"name": "identity", "params": [1]}], "solutions[0].params"),
            ("solutions", [{"name": ["x"]}], "solutions[0].name"),
            ("solutions", ["identity", {"name": "js-strip", "version": 2}], "solutions[1].version"),
            ("network", {"bandwidth_bytes_per_sec": True, "rtt_seconds": 0.1}, "network"),
            ("network", {"bandwidth_bytes_per_sec": "1e6", "rtt_seconds": 0.1}, "network"),
            ("network", {"bandwidth_bytes_per_sec": 1e6, "rtt_seconds": "0.1"}, "network"),
            ("network", {"bandwidth_bytes_per_sec": 1e6, "rtt_seconds": False}, "network"),
            ("device", {"js_exec_bytes_per_sec": True}, "device"),
            ("device", {"html_parse_bytes_per_sec": "2e6"}, "device"),
            ("solutions", [{"name": "img-downscale", "params": {"quality": [0.2]}}], "solutions[0].params"),
            ("solutions", ["identity", {"name": "img-downscale", "params": {"quality": {"q": 0.2}}}],
             "solutions[1].params"),
            ("solutions", [{"name": "img-downscale", "params": {"quality": None}}], "solutions[0].params"),
            ("solutions", [{"name": "img-downscale", "params": {"quality": True}}], "solutions[0].params"),
            ("seed", True, "seed"),
            ("min_page_bytes", True, "min_page_bytes"),
            ("device", {"cost_coefficients": [float("inf"), 1]}, "device.cost_coefficients"),
            ("device", {"cost_coefficients": [1.0, float("nan")]}, "device.cost_coefficients"),
            ("solutions", [{"name": "img-downscale", "params": {"quality": 2}}], "solutions[0].params"),
            ("solutions", ["identity", {"name": "img-downscale", "params": {"quality": "abc"}}],
             "solutions[1].params"),
            ("solutions", [{"name": "img-downscale", "params": {"quality": float("inf")}}], "solutions[0].params"),
        ],
    )
    def test_malformed_inline_value_names_its_field(self, tmp_path, key, value, field):
        corpus = make_fixtures(tmp_path, 1, seed=1)
        raw = self._raw(tmp_path, tmp_path / "out", corpus.pages)
        raw[key] = value
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.field == field

    @pytest.mark.parametrize("bandwidth", [-100, "nan", True, "1e6"])
    def test_bad_inline_bandwidth_exits_2_with_one_line(self, tmp_path, capsys, bandwidth):
        corpus = make_fixtures(tmp_path / "archive", 1, seed=1)
        raw = self._raw(tmp_path / "archive", tmp_path / "out", corpus.pages)
        raw["network"] = {"bandwidth_bytes_per_sec": bandwidth, "rtt_seconds": 0.1}
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: network:") and len(err.splitlines()) == 1
        assert "bandwidth_bytes_per_sec" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("quality", [[0.2], {"q": 0.2}, None, 2, "abc", float("inf")])
    def test_non_scalar_param_exits_2_before_any_pair(self, tmp_path, capsys, quality):
        corpus = make_fixtures(tmp_path / "archive", 1, seed=1)
        raw = self._raw(tmp_path / "archive", tmp_path / "out", corpus.pages)
        raw["solutions"] = [{"name": "img-downscale", "params": {"quality": quality}}]
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: solutions[0].params: quality") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_scalar_params_are_kept_as_text(self, tmp_path):
        corpus = make_fixtures(tmp_path, 1, seed=1)
        raw = self._raw(tmp_path, tmp_path / "out", corpus.pages)
        raw["solutions"] = [{"name": "img-downscale", "params": {"quality": 0.25, "note": "x", "n": 3}}]
        [_, spec] = config_from_dict(raw).solutions
        assert spec.params == {"quality": "0.25", "note": "x", "n": "3"}

    def test_corpus_by_name(self, tmp_path):
        make_fixtures(tmp_path, 2, seed=1, corpus_name="fixtures")
        raw = {
            "archive_dir": str(tmp_path),
            "out_dir": str(tmp_path / "out"),
            "corpus": "fixtures",
            "solutions": ["identity"],
        }
        assert len(config_from_dict(raw).corpus.pages) == 2


class TestRunExperiment:
    def test_single_page_two_solutions(self, tmp_path):
        page = page_from_parts(
            '<html><body><p>one two</p><script src="a.js"></script><img src="i.png"></body></html>',
            assets=[
                ("/a.js", "application/javascript", b"function f(){return 1;}\nf();"),
                ("/i.png", "image/png", b"\x01" * 5000),
            ],
        )
        store_page(page, tmp_path / "archive")
        config = config_from_dict(
            {
                "archive_dir": str(tmp_path / "archive"),
                "out_dir": str(tmp_path / "out"),
                "corpus": {"name": "one", "pages": [page.page_id]},
                "solutions": ["identity", "js-strip"],
            }
        )
        result = run_experiment(config)
        assert result.exit_code == 0
        assert len(result.records) == 2
        rows = json.loads((tmp_path / "out" / "results.json").read_text())
        assert {row["solution"] for row in rows} == {"identity", "js-strip"}
        assert len(result.bundle.deltas) == 6  # one non-baseline solution
        assert (tmp_path / "out" / "report" / "report.html").is_file()
        assert (tmp_path / "out" / "report" / "deltas.csv").is_file()
        variants = tmp_path / "out" / "variants"
        assert (variants / f"{page.page_id}:js-strip" / "manifest.json").is_file()

    def test_unchanged_variants_reuse_the_pages_evaluation(self, tmp_path, monkeypatch):
        # No third-party script, no dead function and no image: only js-strip
        # and the subprocess copy (new body objects) change anything.
        page = page_from_parts(
            '<html><body><p>one two</p><button name="b" onclick="f()">b</button>'
            '<script src="a.js"></script></body></html>',
            assets=[("/a.js", "application/javascript", b"function f(){return 1;}\nf();")],
        )
        store_page(page, tmp_path / "archive")
        copy_path = tmp_path / "copy_transform.py"
        copy_path.write_text(COPY_SCRIPT)
        solutions = ["identity", "js-strip", "js-block-thirdparty", "js-dce", "img-downscale", "ext-copy"]
        config = config_from_dict(
            {
                "archive_dir": str(tmp_path / "archive"),
                "out_dir": str(tmp_path / "out"),
                "corpus": {"name": "one", "pages": [page.page_id]},
                "solutions": solutions,
            }
        )
        calls = {"parse": 0, "simulate": 0, "score": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(wasef.pagemodel, "parse_page", counted("parse", parse_page))
        monkeypatch.setattr(wasef.experiment, "simulate_load", counted("simulate", simulate_load))
        monkeypatch.setattr(wasef.similarity, "score_graphs", counted("score", score_graphs))
        register_subprocess_transform("ext-copy", [sys.executable, str(copy_path)], "test copy")
        try:
            result = run_experiment(config)  # one page: evaluated in this process
            monkeypatch.undo()
            fresh_metrics, fresh_scores = {}, {}
            for name in solutions:
                graph = parse_page(apply_transform(TransformSpec(name=name), page).page)
                fresh_metrics[name] = simulate_load(graph, NETWORK_PROFILES["3g"], DEVICE_PROFILES["lowend"])
                fresh_scores[name] = score_graphs(parse_page(page), graph)
        finally:
            _REGISTRY.pop("ext-copy")
        assert result.exit_code == 0
        # The root, js-strip and ext-copy are parsed; the four unchanged
        # solutions share one simulation and one score.
        assert calls == {"parse": 3, "simulate": 3, "score": 3}
        metrics = {solution: m for _, solution, m in result.records}
        scores = {solution: s for _, solution, s in result.bundle.similarity_table}
        assert metrics == fresh_metrics and scores == fresh_scores
        assert metrics["ext-copy"] == metrics["identity"] != metrics["js-strip"]
        assert scores["ext-copy"] == scores["identity"]
        for objects in (metrics.values(), scores.values(), [m.paint_timeline for m in metrics.values()]):
            assert len({id(obj) for obj in objects}) == len(solutions)
        for name in solutions:
            assert (tmp_path / "out" / "variants" / f"{page.page_id}:{name}" / "manifest.json").is_file()

    def test_failure_isolated_as_skip(self, tmp_path):
        corpus = make_fixtures(tmp_path / "archive", 2, seed=4)
        config = config_from_dict(
            {
                "archive_dir": str(tmp_path / "archive"),
                "out_dir": str(tmp_path / "out"),
                "corpus": {"name": "two", "pages": corpus.pages},
                "solutions": ["identity", "img-downscale"],
            }
        )
        # config_from_dict refuses this quality, so set it after validation
        # to make the transform fail on every page.
        config.solutions[1].params["quality"] = "99"
        result = run_experiment(config)
        # identity still evaluates, so this is a partial failure, not total.
        assert result.exit_code == 3
        assert len(result.bundle.skip_report) == 2
        assert len(result.records) == 2
        good = config_from_dict(
            {
                "archive_dir": str(tmp_path / "archive"),
                "out_dir": str(tmp_path / "out2"),
                "corpus": {"name": "two", "pages": corpus.pages},
                "solutions": ["identity", {"name": "img-downscale", "params": {"quality": "0.4"}}],
            }
        )
        assert run_experiment(good).exit_code == 0

    def test_total_failure_when_nothing_evaluates(self, tmp_path):
        corpus = make_fixtures(tmp_path / "archive", 1, seed=4)
        config = config_from_dict(
            {
                "archive_dir": str(tmp_path / "archive"),
                "out_dir": str(tmp_path / "out"),
                "corpus": {"name": "one", "pages": corpus.pages},
                "solutions": ["identity"],
            }
        )
        # Corrupt the only page after validation so every load fails.
        root_blob(tmp_path / "archive", corpus.pages[0]).unlink()
        result = run_experiment(config)
        assert result.exit_code == 4
        assert result.records == []

    def test_rerun_with_fewer_pages_keeps_only_its_own_variants(self, tmp_path):
        corpus = make_fixtures(tmp_path / "archive", 2, seed=4)
        raw = {
            "archive_dir": str(tmp_path / "archive"),
            "out_dir": str(tmp_path / "out"),
            "corpus": {"name": "two", "pages": corpus.pages},
            "solutions": ["identity", "js-strip"],
        }
        assert run_experiment(config_from_dict(raw)).exit_code == 0
        raw["corpus"]["pages"] = corpus.pages[:1]
        assert run_experiment(config_from_dict(raw)).exit_code == 0

        variants = tmp_path / "out" / "variants"
        manifests = sorted(variants.glob("*/manifest.json"))
        rows = json.loads((tmp_path / "out" / "results.json").read_text())
        assert [path.parent.name for path in manifests] == [f"{r['page_id']}:{r['solution']}" for r in rows]
        assert len(rows) == 2
        named = {entry["body_sha256"] for path in manifests for entry in json.loads(path.read_text())["exchanges"]}
        assert {blob.name for blob in (variants / "blobs").iterdir()} == named


class TestWorkerPool:
    """Pages run in a forked pool of one worker per usable CPU, at most one
    per page; the parent merges, logs the skips and writes every file."""

    def _config(self, archive, out, pages):
        return config_from_dict({
            "archive_dir": str(archive),
            "out_dir": str(out),
            "corpus": {"name": "pool", "pages": pages},
            "solutions": ["identity", "js-strip", "img-downscale"],
        })

    def test_a_page_that_fails_to_load_is_skipped_and_logged_by_the_parent(self, tmp_path, monkeypatch, caplog):
        pools = []  # the worker count of each pool started

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                pools.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        corpus = make_fixtures(tmp_path / "archive", 5, seed=3)
        broken = corpus.pages[1]
        root_blob(tmp_path / "archive", broken).unlink()
        outcomes = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            caplog.clear()
            result = run_experiment(self._config(tmp_path / "archive", tmp_path / f"out{len(cpus)}", corpus.pages))
            warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
            outcomes.append((result, warnings))
        (pooled, pooled_warnings), (serial, serial_warnings) = outcomes
        assert pools == [2]  # the one-CPU run started none
        assert pooled.exit_code == serial.exit_code == 3
        assert [skip[:2] for skip in pooled.bundle.skip_report] == [(broken, "*")]
        assert pooled.bundle.skip_report == serial.bundle.skip_report
        assert len(pooled_warnings) == 1 and broken in pooled_warnings[0]
        assert pooled_warnings == serial_warnings
        assert pooled.records == serial.records and len(pooled.records) == 4 * 3

    def test_pages_go_out_largest_first_and_merge_in_corpus_order(self, tmp_path, monkeypatch, caplog):
        submitted = []  # each pool's pages, in the order they were handed out

        class SpyPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, pages, **kwargs):
                submitted.append(list(pages))
                return super().map(fn, pages, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        archive_dir = tmp_path / "archive"
        fixture_pages = make_fixtures(archive_dir, 5, seed=3).pages
        # Two pages whose manifests are the same size: same-length hosts, bodies and URLs.
        twins = [store_page(page_from_parts(f"<p>{host[0]}</p>", host=host), archive_dir)
                 for host in ("a.test", "b.test")]
        broken = fixture_pages[1]
        root_blob(archive_dir, broken).unlink()

        def size(page_id):
            return (archive_dir / page_id / "manifest.json").stat().st_size

        assert size(twins[0]) == size(twins[1])
        smallest_first = sorted(fixture_pages + twins, key=lambda page_id: (size(page_id), page_id))
        twins.sort(key=smallest_first.index)
        largest_first = sorted(smallest_first, key=size, reverse=True)  # stable: ties keep corpus order
        assert largest_first.index(twins[0]) + 1 == largest_first.index(twins[1])
        assert largest_first != smallest_first[::-1]

        outcomes = []
        for cpus in ({0}, {0, 1}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            caplog.clear()
            out = tmp_path / f"out{len(cpus)}"
            result = run_experiment(self._config(archive_dir, out, smallest_first))
            warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
            outcomes.append((result.records, result.bundle.skip_report, warnings, result.exit_code,
                             (out / "results.json").read_bytes()))
        assert submitted == [largest_first, largest_first]  # the one-CPU run started no pool
        assert outcomes[0] == outcomes[1] == outcomes[2]
        records, skip_report, warnings, exit_code, _ = outcomes[0]
        assert [page_id for page_id, _, _ in records[::3]] == sorted(set(smallest_first) - {broken})
        assert [skip[:2] for skip in skip_report] == [(broken, "*")]
        assert len(warnings) == 1 and broken in warnings[0] and exit_code == 3

    @pytest.mark.parametrize("cpus, pages", [({0}, 4), ({0, 1}, 1)])
    def test_one_worker_starts_no_process(self, tmp_path, monkeypatch, cpus, pages):
        def no_process(*args, **kwargs):
            raise AssertionError("a one-worker run started a process")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process)
        monkeypatch.setattr(os, "fork", no_process)
        corpus = make_fixtures(tmp_path / "archive", pages, seed=3)
        config = self._config(tmp_path / "archive", tmp_path / "out", corpus.pages)
        assert run_experiment(config).exit_code == 0
        assert wasef.experiment.evaluate(config)[1] == 0

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_an_error_that_is_not_a_skip_escapes_the_run(self, tmp_path, monkeypatch, cpus):
        corpus = make_fixtures(tmp_path / "archive", 4, seed=3)
        real_load_page = wasef.experiment.load_page

        def failing_load_page(page_id, archive_dir):
            if page_id == corpus.pages[2]:
                raise RuntimeError(f"cannot read {page_id}")
            return real_load_page(page_id, archive_dir)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(wasef.experiment, "load_page", failing_load_page)
        with pytest.raises(RuntimeError, match=f"cannot read {corpus.pages[2]}"):
            run_experiment(self._config(tmp_path / "archive", tmp_path / "out", corpus.pages))


class TestCliSurface:
    def test_fixtures_inspect_evaluate_report_round_trip(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        assert main(["fixtures", "--out", str(archive), "--count", "4", "--seed", "3"]) == 0
        corpus_pages = json.loads((archive / "corpora" / "fixtures.json").read_text())["pages"]
        capsys.readouterr()

        assert main(["inspect", "--archive", str(archive), "--page", corpus_pages[0]]) == 0
        graph = json.loads(capsys.readouterr().out)
        assert graph["root_url"].startswith("http://site-000")

        results = tmp_path / "results.json"
        code = main(
            [
                "evaluate", "--archive", str(archive), "--corpus", "fixtures",
                "--solutions", "identity,js-strip", "--network", "3g",
                "--device", "lowend", "--out", str(results),
            ]
        )
        assert code == 0
        assert len(json.loads(results.read_text())) == 8
        capsys.readouterr()

        assert main(["report", "--results", str(results), "--out", str(tmp_path / "rep")]) == 0
        assert (tmp_path / "rep" / "report.html").is_file()

    def test_transform_and_similarity_commands(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        main(["fixtures", "--out", str(archive), "--count", "1", "--seed", "5"])
        pid = json.loads((archive / "corpora" / "fixtures.json").read_text())["pages"][0]
        capsys.readouterr()

        assert main(["transform", "--archive", str(archive), "--page", pid, "--solution", "js-strip"]) == 0
        out = capsys.readouterr().out
        assert f"{pid}:js-strip" in out
        assert load_page(f"{pid}:js-strip", archive).root_url

        assert main(["similarity", "--archive", str(archive), "--page", pid, "--solution", "identity"]) == 0
        scores = json.loads(capsys.readouterr().out)
        assert scores["structural"] == 1.0 and scores["functional"] == 1.0

    def test_corpus_transform_empties_the_script_cache_before_each_page(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        corpus = make_fixtures(archive, 3, seed=9, profile="js_heavy")
        assert main(["transform", "--archive", str(archive), "--corpus", "fixtures",
                     "--solution", "js-dce", "--out", str(tmp_path / "variants")]) == 0
        after_corpus = wasef.jsscan.index.cache_info().currsize
        wasef.jsscan.index.cache_clear()
        apply_transform(TransformSpec(name="js-dce"), load_page(corpus.pages[-1], archive))
        assert after_corpus == wasef.jsscan.index.cache_info().currsize > 0

    def test_transform_list(self, capsys):
        assert main(["transform", "--list", "--archive", "unused"]) == 0
        out = capsys.readouterr().out
        assert "identity" in out and "img-downscale" in out

    def test_run_command_and_exit_codes(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        make_fixtures(archive, 2, seed=6)
        config_path = tmp_path / "exp.json"
        config_path.write_text(
            json.dumps(
                {
                    "archive_dir": str(archive),
                    "out_dir": str(tmp_path / "out"),
                    "corpus": "fixtures",
                    "solutions": ["identity", "js-dce"],
                }
            )
        )
        assert main(["run", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err

    def test_rerun_without_skips_removes_the_earlier_skips_csv(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        make_fixtures(archive, 2, seed=6)
        raw = {
            "archive_dir": str(archive),
            "out_dir": str(tmp_path / "out"),
            "corpus": "fixtures",
            "solutions": ["identity", "js-dce"],
        }
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({**raw, "min_page_bytes": 10**9}))
        assert main(["run", "--config", str(config_path)]) == 4  # every page below the floor
        assert (tmp_path / "out" / "report" / "skips.csv").is_file()
        config_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert not (tmp_path / "out" / "report" / "skips.csv").exists()

    def test_non_string_group_label_exits_2_with_one_line(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        corpus = make_fixtures(archive, 2, seed=6)
        corpus_path = archive / "corpora" / "fixtures.json"
        payload = json.loads(corpus_path.read_text())
        payload["group_labels"] = {corpus.pages[0]: ["x"]}
        corpus_path.write_text(json.dumps(payload))
        config_path = tmp_path / "exp.json"
        config_path.write_text(
            json.dumps(
                {
                    "archive_dir": str(archive),
                    "out_dir": str(tmp_path / "out"),
                    "corpus": "fixtures",
                    "solutions": ["identity"],
                }
            )
        )
        assert main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "group_labels" in err and "Traceback" not in err

    def test_env_var_archive_default(self, tmp_path, capsys, monkeypatch):
        archive = tmp_path / "archive"
        make_fixtures(archive, 1, seed=2)
        pid = json.loads((archive / "corpora" / "fixtures.json").read_text())["pages"][0]
        monkeypatch.setenv("WASEF_ARCHIVE", str(archive))
        assert main(["inspect", "--page", pid]) == 0
        capsys.readouterr()
        monkeypatch.delenv("WASEF_ARCHIVE")
        assert main(["inspect", "--page", pid]) == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"out_dir": "x"}))
        assert main(["run", "--config", str(config_path)]) == 2


SINGLE_PATH_SOLUTIONS = ["identity", "js-strip", "js-dce"]


@pytest.fixture(scope="module")
def single_path_run(tmp_path_factory):
    """A six-page archive and the files `wasef run` wrote for it."""
    root = tmp_path_factory.mktemp("single_path")
    make_fixtures(root / "archive", 6, seed=3)
    config_path = root / "exp.json"
    config_path.write_text(json.dumps({
        "archive_dir": str(root / "archive"),
        "out_dir": str(root / "run"),
        "corpus": "fixtures",
        "solutions": SINGLE_PATH_SOLUTIONS,
    }))
    assert main(["run", "--config", str(config_path)]) == 0
    return root


def evaluate(archive, out, solutions=SINGLE_PATH_SOLUTIONS):
    return main(["evaluate", "--archive", str(archive), "--corpus", "fixtures",
                 "--solutions", ",".join(solutions), "--out", str(out)])


class TestSinglePath:
    def test_evaluate_writes_the_results_run_writes(self, single_path_run, tmp_path):
        assert evaluate(single_path_run / "archive", tmp_path / "results.json") == 0
        run_results = (single_path_run / "run" / "results.json").read_bytes()
        assert (tmp_path / "results.json").read_bytes() == run_results

    def test_report_reproduces_the_csvs_run_writes(self, single_path_run, tmp_path):
        run = single_path_run / "run"
        assert main(["report", "--results", str(run / "results.json"),
                     "--similarity", str(run / "similarity.json"), "--out", str(tmp_path)]) == 0
        for name in ("deltas.csv", "similarity.csv"):
            assert (tmp_path / name).read_bytes() == (run / "report" / name).read_bytes()
        rows = json.loads((run / "results.json").read_text())
        summaries = json.loads((tmp_path / "summaries.json").read_text())
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()[:12]
        assert summaries["experiment_id"] == digest
        assert summaries["config"] == {"results": "results.json", "baseline": "identity"}

    def test_similarity_prints_the_rows_run_writes(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        corpus = make_fixtures(archive, 4, seed=3)
        solutions = ["identity", "js-strip", "js-block-thirdparty", "js-dce", "img-downscale"]
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "archive_dir": str(archive),
            "out_dir": str(tmp_path / "run"),
            "corpus": "fixtures",
            "solutions": solutions,
        }))
        assert main(["run", "--config", str(config_path)]) == 0
        rows = json.loads((tmp_path / "run" / "similarity.json").read_text())
        assert len(rows) == len(corpus.pages) * len(solutions)
        assert any(row["structural"] < 1.0 for row in rows) and any(row["functional"] < 1.0 for row in rows)
        capsys.readouterr()
        for row in rows:
            assert main(["similarity", "--archive", str(archive), "--page", row["page_id"],
                         "--solution", row["solution"]]) == 0
            assert json.loads(capsys.readouterr().out) == row

    def test_evaluate_without_identity_exits_0(self, single_path_run, tmp_path):
        assert evaluate(single_path_run / "archive", tmp_path / "results.json", ["js-strip"]) == 0
        rows = json.loads((tmp_path / "results.json").read_text())
        assert {row["solution"] for row in rows} == {"js-strip"} and len(rows) == 6

    def test_evaluate_with_a_solution_named_twice_is_a_config_error(self, single_path_run, tmp_path, capsys):
        assert evaluate(single_path_run / "archive", tmp_path / "results.json", ["js-strip", "js-strip"]) == 2
        assert "solutions: solution 'js-strip' is named more than once" in capsys.readouterr().err
        assert not (tmp_path / "results.json").exists()

    def test_evaluate_skips_a_page_that_fails_to_load(self, tmp_path, caplog):
        corpus = make_fixtures(tmp_path / "archive", 6, seed=3)
        broken = corpus.pages[2]
        root_blob(tmp_path / "archive", broken).unlink()
        assert evaluate(tmp_path / "archive", tmp_path / "results.json") == 3
        rows = json.loads((tmp_path / "results.json").read_text())
        assert {row["page_id"] for row in rows} == set(corpus.pages) - {broken}
        assert len(rows) == 5 * len(SINGLE_PATH_SOLUTIONS)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert any(broken in message for message in warnings)

    def test_evaluate_neither_scores_nor_bundles(self, single_path_run, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("evaluate reached a stage whose output it never writes")

        for module, name in ((wasef.similarity, "score_graphs"), (wasef.stats, "compute_deltas"),
                             (wasef.report, "write_bundle")):
            monkeypatch.setattr(module, name, never)
        assert evaluate(single_path_run / "archive", tmp_path / "results.json") == 0
        run_results = (single_path_run / "run" / "results.json").read_bytes()
        assert (tmp_path / "results.json").read_bytes() == run_results
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.json"]

    def test_transform_of_a_page_whose_root_blob_is_gone_exits_2(self, tmp_path, capsys):
        corpus = make_fixtures(tmp_path / "archive", 2, seed=3)
        root_blob(tmp_path / "archive", corpus.pages[1]).unlink()
        code = main(["transform", "--archive", str(tmp_path / "archive"), "--corpus", "fixtures",
                     "--solution", "js-strip", "--out", str(tmp_path / "variants")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and corpus.pages[1] in captured.err
        assert captured.out.splitlines()[0].startswith(f"{corpus.pages[0]}:js-strip bytes_removed=")


METRICS_ROW = {
    "page_id": "p", "solution": "identity", "fcp_seconds": 1.0, "plt_seconds": 2.0,
    "speed_index_seconds": 1.5, "js_processing_seconds": 0.1, "page_size_bytes": 100,
    "request_count": 2, "cpu_proxy_seconds": 0.2, "energy_proxy_units": 0.3,
    "memory_proxy_bytes": 100, "paint_timeline": [[1.0, 0.5], [2.0, 1.0]],
}
SCORES_ROW = {"page_id": "p", "solution": "identity", "structural": 1.0, "functional": 1.0}


def _without(row, key):
    return {k: v for k, v in row.items() if k != key}


# (field, what the bad file holds); None means the file does not exist and
# "dir" that the path is a directory.
BAD_REPORT_INPUTS = {
    "results-missing": ("results", None),
    "results-directory": ("results", "dir"),
    "results-invalid-json": ("results", "[{"),
    "results-not-a-list": ("results", {"page_id": "p"}),
    "results-row-not-an-object": ("results", [["p", "identity"]]),
    "results-missing-page-id": ("results", [_without(METRICS_ROW, "page_id")]),
    "results-missing-metric": ("results", [_without(METRICS_ROW, "plt_seconds")]),
    "results-mistyped-metric": ("results", [{**METRICS_ROW, "fcp_seconds": "1.0"}]),
    "results-boolean-metric": ("results", [{**METRICS_ROW, "request_count": True}]),
    "results-mistyped-solution": ("results", [{**METRICS_ROW, "solution": 3}]),
    "results-mistyped-timeline": ("results", [{**METRICS_ROW, "paint_timeline": [1.0, 2.0]}]),
    "similarity-missing": ("similarity", None),
    "similarity-invalid-json": ("similarity", "nope"),
    "similarity-not-a-list": ("similarity", "null"),
    "similarity-row-not-an-object": ("similarity", ["p"]),
    "similarity-missing-structural": ("similarity", [_without(SCORES_ROW, "structural")]),
    "similarity-mistyped-functional": ("similarity", [{**SCORES_ROW, "functional": "high"}]),
}


class TestReportInputErrors:
    @pytest.mark.parametrize("case", sorted(BAD_REPORT_INPUTS))
    def test_bad_input_is_a_config_error(self, case, tmp_path, capsys):
        field, content = BAD_REPORT_INPUTS[case]
        paths = {"results": tmp_path / "results.json", "similarity": tmp_path / "similarity.json"}
        paths["results"].write_text(json.dumps([METRICS_ROW]))
        paths["similarity"].write_text(json.dumps([SCORES_ROW]))
        bad = paths[field]
        bad.unlink()
        if content == "dir":
            bad.mkdir()
        elif isinstance(content, str):
            bad.write_text(content)
        elif content is not None:
            bad.write_text(json.dumps(content))
        reader = {"results": read_results, "similarity": read_similarity}[field]
        with pytest.raises(ConfigError) as info:
            reader(bad)
        assert info.value.field == field
        code = main(["report", "--results", str(paths["results"]), "--similarity",
                     str(paths["similarity"]), "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {field}: ") and "Traceback" not in err

    def test_good_rows_read_back(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps([METRICS_ROW]))
        [(page_id, solution, metrics)] = read_results(path)
        assert (page_id, solution, metrics.request_count) == ("p", "identity", 2)
        assert metrics.paint_timeline == [(1.0, 0.5), (2.0, 1.0)]
        path = tmp_path / "similarity.json"
        path.write_text(json.dumps([SCORES_ROW]))
        [(_, _, scores)] = read_similarity(path)
        assert (scores.structural, scores.functional, scores.text_sim) == (1.0, 1.0, 0.0)


class TestCliInputErrors:
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_har_is_a_config_error(self, kind, tmp_path, capsys):
        har = tmp_path / "capture.har"
        if kind == "directory":
            har.mkdir()
        code = main(["import-har", "--har", str(har), "--archive", str(tmp_path / "archive")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: har: ") and "Traceback" not in err

    def test_har_that_is_not_utf8_exits_2_with_one_line(self, tmp_path, capsys):
        har = tmp_path / "capture.har"
        har.write_bytes(b'{"log": {"entries": []}}\xff')
        code = main(["import-har", "--har", str(har), "--archive", str(tmp_path / "archive")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_unwritable_results_path_is_a_storage_error(self, single_path_run, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert evaluate(single_path_run / "archive", tmp_path / "file" / "results.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write results.json") and "Traceback" not in err

    def test_fixture_count_below_one(self, tmp_path, capsys):
        with pytest.raises(ConfigError) as info:
            make_fixtures(tmp_path / "a", 0, seed=1)
        assert info.value.field == "count"
        assert main(["fixtures", "--out", str(tmp_path / "b"), "--count", "0"]) == 2
        assert capsys.readouterr().err.startswith("config error: count: ")


class TestLoadConfigFile:
    def test_round_trip(self, tmp_path):
        archive = tmp_path / "archive"
        make_fixtures(archive, 1, seed=1)
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "archive_dir": str(archive),
                    "out_dir": str(tmp_path / "out"),
                    "corpus": "fixtures",
                    "solutions": ["identity"],
                    "parallelism": 2,
                    "seed": 5,
                }
            )
        )
        config = load_config(path)
        assert config.seed == 5

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


class TestServeCommand:
    def test_serving_line_reaches_a_pipe(self, tmp_path):
        make_fixtures(tmp_path, 1, seed=2)
        pid = json.loads((tmp_path / "corpora" / "fixtures.json").read_text())["pages"][0]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(wasef.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "wasef.cli", "serve", "--archive", str(tmp_path),
             "--page", pid, "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 5.0)
            assert ready, "no serving line within 5 s"
            line = proc.stdout.readline().decode()
            assert line.startswith(f"serving {pid} on http://127.0.0.1:")
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()

    @pytest.mark.parametrize(
        "bad",
        [
            ["--bind", "127.0.0.1:99999"],
            ["--bind", "127.0.0.1:-1"],
            ["--bandwidth", "-5"],
            ["--bandwidth", "nan"],
            ["--bandwidth", "1000", "--rtt-ms", "-50"],
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, bad):
        corpus = make_fixtures(tmp_path, 1, seed=2)

        def interrupt(seconds):  # a server that did start stops at once
            raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", interrupt)
        code = main(["serve", "--archive", str(tmp_path), "--page", corpus.pages[0], *bad])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_rtt_without_bandwidth_exits_2_naming_the_flag(self, tmp_path, capsys, monkeypatch):
        corpus = make_fixtures(tmp_path, 1, seed=2)

        def interrupt(seconds):  # a server that did start stops at once
            raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", interrupt)
        code = main(["serve", "--archive", str(tmp_path), "--page", corpus.pages[0], "--rtt-ms", "200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error: --rtt-ms:") and len(captured.err.splitlines()) == 1
        assert captured.out == ""  # no server started


class TestPageIdArguments:
    @pytest.mark.parametrize("command", ["serve", "inspect"])
    @pytest.mark.parametrize("page_id", ["../x", "..", "a/b"])
    def test_page_outside_the_archive_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, command, page_id):
        def interrupt(seconds):  # a server that did start stops at once
            raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", interrupt)
        corpus = make_fixtures(tmp_path / "elsewhere", 1, seed=2)
        (tmp_path / "archive").mkdir()
        if page_id == "../x":
            page_id = f"../elsewhere/{corpus.pages[0]}"  # a real page, one level up
        code = main([command, "--archive", str(tmp_path / "archive"), "--page", page_id])
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1 and "single path component" in captured.err
        assert captured.out == ""


# Python's json module writes NaN and the infinities and reads integers of
# any size; none of them converts to a finite float.
NOT_FINITE = {"nan": float("nan"), "infinity": float("inf"), "minus-infinity": float("-inf"), "400-digits": 10**400}


class TestNumbersThatAreNotFinite:
    @pytest.mark.parametrize("place", ["metric", "timeline"])
    @pytest.mark.parametrize("value", sorted(NOT_FINITE))
    def test_report_exits_2_with_one_line(self, tmp_path, capsys, value, place):
        rows = [{**METRICS_ROW, "page_id": f"p{k}", "solution": s} for k in range(3) for s in ("identity", "js-strip")]
        if place == "metric":
            rows[-1]["fcp_seconds"] = NOT_FINITE[value]
        else:
            rows[-1]["paint_timeline"] = [[1.0, 0.5], [NOT_FINITE[value], 1.0]]
        results, similarity = tmp_path / "results.json", tmp_path / "similarity.json"
        results.write_text(json.dumps(rows))
        similarity.write_text(json.dumps([SCORES_ROW]))
        with pytest.raises(ConfigError) as info:
            read_results(results)
        assert info.value.field == "results"
        code = main(["report", "--results", str(results), "--similarity", str(similarity),
                     "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert code == 2 and len(err.splitlines()) == 1
        field = "fcp_seconds" if place == "metric" else "paint_timeline"
        assert err.startswith("config error: results: ") and f"row 5: '{field}'" in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "originals, variants, what",
        [
            # 1.5e308 - (-1.5e308) overflows to inf in compute_deltas.
            ([1.5e308, 1.0, 1.0], [-1.5e308, 1.0, 1.0], "page 'p0', solution 'js-strip': the fcp delta"),
            # Two deltas of 1.7e308 overflow fmean's sum; their median is inf.
            ([1.7e308, 1.7e308, 1.0], [0.0, 0.0, 1.0], "fcp under js-strip: a value or statistic"),
        ],
        ids=["delta", "summary"],
    )
    def test_report_on_finite_rows_that_overflow_exits_2_with_one_line(self, tmp_path, capsys, originals, variants, what):
        rows = [
            {**METRICS_ROW, "page_id": f"p{k}", "solution": solution, "fcp_seconds": fcp}
            for k, pair in enumerate(zip(originals, variants))
            for solution, fcp in zip(("identity", "js-strip"), pair)
        ]
        results = tmp_path / "results.json"
        results.write_text(json.dumps(rows))
        assert len(read_results(results)) == 6  # every number is finite
        code = main(["report", "--results", str(results), "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {what} is not finite\n"
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("network", {"bandwidth_bytes_per_sec": 10**400, "rtt_seconds": 0.1}, "network"),
            ("network", {"bandwidth_bytes_per_sec": 1e6, "rtt_seconds": 10**400}, "network"),
            ("device", {"js_exec_bytes_per_sec": 10**400}, "device"),
            ("device", {"html_parse_bytes_per_sec": 10**400}, "device"),
            ("device", {"cost_coefficients": [10**400, 1e-6]}, "device.cost_coefficients"),
            ("device", {"cost_coefficients": [1.0, -(10**400)]}, "device.cost_coefficients"),
        ],
    )
    def test_oversized_integer_in_an_inline_profile_exits_2_with_one_line(self, tmp_path, capsys, key, value, field):
        corpus = make_fixtures(tmp_path / "archive", 1, seed=1)
        raw = {
            "archive_dir": str(tmp_path / "archive"),
            "out_dir": str(tmp_path / "out"),
            "corpus": {"name": "t", "pages": corpus.pages},
            "solutions": ["identity"],
            key: value,
        }
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.field == field
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()
