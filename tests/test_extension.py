"""The two extension points: in-process registration and the subprocess
transform contract (stdin = page directory, stdout = variant directory)."""

import json
import os
import sys
import textwrap

import pytest

from wasef.archive import store_page
from wasef.errors import TransformFailed
from wasef.experiment import config_from_dict, run_experiment
from wasef.fixtures import make_fixtures
from wasef.transform import (
    _REGISTRY,
    TransformSpec,
    apply_transform,
    register_subprocess_transform,
    register_transform,
)

from conftest import page_from_parts

COPY_SCRIPT = textwrap.dedent(
    """
    import os, shutil, sys
    page_dir = sys.stdin.readline().strip()
    out_dir = page_dir + "-variant"
    shutil.copytree(page_dir, out_dir)
    marker = os.environ.get("WASEF_PARAM_MARKER", "")
    if marker:
        with open(os.path.join(out_dir, "marker.txt"), "w") as fh:
            fh.write(marker)
    print(out_dir)
    """
)

FAIL_SCRIPT = "import sys; sys.stderr.write('deliberate failure'); sys.exit(3)"


@pytest.fixture()
def scripts(tmp_path):
    copy_path = tmp_path / "copy_transform.py"
    copy_path.write_text(COPY_SCRIPT)
    fail_path = tmp_path / "fail_transform.py"
    fail_path.write_text(FAIL_SCRIPT)
    return copy_path, fail_path


def test_subprocess_identity_round_trip(scripts):
    copy_path, _ = scripts
    register_subprocess_transform("ext-copy", [sys.executable, str(copy_path)], "test copy")
    try:
        page = page_from_parts(
            "<html><body><p>external</p></body></html>",
            assets=[("/a.css", "text/css", b"body{}")],
        )
        variant = apply_transform(TransformSpec(name="ext-copy", params={"marker": "hi"}), page)
        assert variant.page.page_id == f"{page.page_id}:ext-copy"
        assert variant.page.root_url == page.root_url
        for key, ex in page.exchanges.items():
            assert variant.page.exchanges[key].body == ex.body
    finally:
        _REGISTRY.pop("ext-copy")


def test_subprocess_failure_becomes_transform_failed(scripts):
    _, fail_path = scripts
    register_subprocess_transform("ext-fail", [sys.executable, str(fail_path)], "test fail")
    try:
        page = page_from_parts("<html><body>x</body></html>")
        with pytest.raises(TransformFailed, match="deliberate failure"):
            apply_transform(TransformSpec(name="ext-fail"), page)
    finally:
        _REGISTRY.pop("ext-fail")


def test_subprocess_failure_isolated_in_pipeline(scripts, tmp_path):
    _, fail_path = scripts
    register_subprocess_transform("ext-fail2", [sys.executable, str(fail_path)], "test fail")
    try:
        corpus = make_fixtures(tmp_path / "archive", 2, seed=3)
        config = config_from_dict(
            {
                "archive_dir": str(tmp_path / "archive"),
                "out_dir": str(tmp_path / "out"),
                "corpus": {"name": "c", "pages": corpus.pages},
                "solutions": ["identity", "ext-fail2"],
            }
        )
        result = run_experiment(config)
        # identity still evaluated everywhere; the broken solution is skipped.
        assert result.exit_code == 3
        assert len(result.records) == 2
        assert all(s[1] == "ext-fail2" for s in result.bundle.skip_report)
    finally:
        _REGISTRY.pop("ext-fail2")


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_transform_registered_at_run_time_reaches_every_worker(tmp_path, monkeypatch, cpus):
    def strip_again(page, params):  # nested, so a worker can only inherit it, never unpickle it
        return apply_transform(TransformSpec(name="js-strip"), page).page

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    corpus = make_fixtures(tmp_path / "archive", 4, seed=3)
    config = config_from_dict(
        {
            "archive_dir": str(tmp_path / "archive"),
            "out_dir": str(tmp_path / "out"),
            "corpus": {"name": "four", "pages": corpus.pages},
            "solutions": ["identity", "js-strip", "ext-late"],
        }
    )
    register_transform("ext-late", "registered after import", strip_again)
    try:
        result = run_experiment(config)
    finally:
        _REGISTRY.pop("ext-late")
    assert result.exit_code == 0
    metrics = {(page_id, solution): m for page_id, solution, m in result.records}
    assert all(metrics[page_id, "ext-late"] == metrics[page_id, "js-strip"] for page_id in corpus.pages)


def test_size_filter_excludes_without_failing(tmp_path):
    small = page_from_parts("<html><body>tiny</body></html>", host="small.test")
    big = page_from_parts(
        "<html><body>large page body</body></html>",
        assets=[("/blob.bin", "application/octet-stream", b"\x00" * 50000)],
        host="big.test",
    )
    store_page(small, tmp_path / "archive")
    store_page(big, tmp_path / "archive")
    config = config_from_dict(
        {
            "archive_dir": str(tmp_path / "archive"),
            "out_dir": str(tmp_path / "out"),
            "corpus": {"name": "c", "pages": [small.page_id, big.page_id]},
            "solutions": ["identity"],
            "min_page_bytes": 10000,
        }
    )
    result = run_experiment(config)
    assert result.exit_code == 0  # the filter is configuration, not failure
    assert {r[0] for r in result.records} == {big.page_id}
    assert any("below size floor" in reason for _, _, reason in result.bundle.skip_report)
