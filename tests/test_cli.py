import hashlib
import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest

import wasef
from wasef.archive import load_page, store_page
from wasef.cli import main
from wasef.errors import ConfigError
from wasef.experiment import config_from_dict, load_config, run_experiment
from wasef.fixtures import make_fixtures
from wasef.loadsim import DEVICE_PROFILES, NETWORK_PROFILES, simulate_load
from wasef.pagemodel import parse_page

from conftest import page_from_parts


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

    def test_failure_isolated_as_skip(self, tmp_path):
        corpus = make_fixtures(tmp_path / "archive", 2, seed=4)
        config = config_from_dict(
            {
                "archive_dir": str(tmp_path / "archive"),
                "out_dir": str(tmp_path / "out"),
                "corpus": {"name": "two", "pages": corpus.pages},
                "solutions": ["identity", {"name": "img-downscale", "params": {"quality": "99"}}],
            }
        )
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
        manifest = tmp_path / "archive" / corpus.pages[0] / "bodies" / "0.bin"
        manifest.unlink()
        result = run_experiment(config)
        assert result.exit_code == 4
        assert result.records == []


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
        assert config.parallelism == 2
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
