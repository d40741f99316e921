"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them). Expected values are computed by independent
oracles inside each test: closed-form arithmetic, regex rescans, and
sort-and-formula statistics."""

import copy
import hashlib
import http.client
import json
import math
import os
import random
import re
import statistics
import time

import pytest

from wasef.archive import load_page, normalize_url
from wasef.experiment import config_from_dict, evaluate, run_experiment, write_results
from wasef.fixtures import make_fixtures
from wasef.loadsim import (
    DEVICE_PROFILES,
    NETWORK_PROFILES,
    DeviceProfile,
    NetworkProfile,
    simulate_load,
)
from wasef.pagemodel import (
    KIND_IFRAME,
    KIND_IMAGE,
    KIND_SCRIPT_SYNC,
    KIND_STYLESHEET,
    graph_to_dict,
    parse_page,
)
from wasef.replay import ShapingConfig, serve
from wasef.similarity import score_graphs, structural_similarity
from wasef.stats import DELTA_METRICS, ecdf, summarize
from wasef.transform import TransformSpec, apply_transform

from conftest import make_graph, page_from_parts

BW = 200000.0
RTT = 0.4
PRATE = 1e9
NET_3G = NETWORK_PROFILES["3g"]
LOWEND = DEVICE_PROFILES["lowend"]
FAST_DEV = DeviceProfile(js_exec_bytes_per_sec=PRATE, html_parse_bytes_per_sec=PRATE, name="fast")
TOL = 1e-9


def _report(number, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {name} {detail}"


def _root_done(root_bytes):
    return RTT + root_bytes / BW


def _oracle_graphs():
    """25 hand-constructed graphs with at most 3 non-overlapping resources
    (single host; multi-resource cases use a 1-connection limit so fetches
    serialize) plus their closed-form FCP and PLT."""
    cases = []

    for root in (10000, 20000, 50000):  # root only: zero-visual
        g = make_graph(root)
        t = _root_done(root) + root / PRATE
        cases.append((f"root-{root}", g, 6, t, t))

    for root in (10000, 30000, 60000):  # root + text
        g = make_graph(root, [("text", 12, 0.0)])
        cases.append((f"text-{root}", g, 6, _root_done(root), _root_done(root) + root / PRATE))

    g = make_graph(20000, [("text", 11, 0.0), (KIND_IMAGE, 80000, 0.0, "a.png")])
    cases.append(("page-a", g, 6, _root_done(20000), _root_done(20000) + RTT + 80000 / BW))

    for size in (40000, 150000):  # image only: paint == fetch completion
        g = make_graph(20000, [(KIND_IMAGE, size, 0.0, "i.png")])
        done = _root_done(20000) + RTT + size / BW
        cases.append((f"img-{size}", g, 6, done, done))

    for css in (5000, 10000, 30000):  # stylesheet gates the following text
        g = make_graph(20000, [(KIND_STYLESHEET, css, 0.0, "s.css"), ("text", 8, 0.0)])
        css_done = _root_done(20000) + RTT + css / BW
        cases.append((f"css-{css}", g, 6, css_done, css_done))

    for script in (20000, 50000, 100000):  # sync script: fetch + exec, zero-visual
        g = make_graph(20000, [(KIND_SCRIPT_SYNC, script, 0.0, "s.js")])
        t = _root_done(20000) + RTT + script / BW + script / 100000.0 + 20000 / PRATE
        cases.append((f"sync-{script}", g, "js100k", t, t))

    for a, b in ((80000, 40000), (20000, 100000), (60000, 60000)):  # 2 images, 1 conn
        g = make_graph(20000, [(KIND_IMAGE, a, 0.0, "a.png"), (KIND_IMAGE, b, 0.0, "b.png")])
        first = _root_done(20000) + RTT + a / BW
        cases.append((f"2img-{a}-{b}", g, 1, first, first + RTT + b / BW))

    for a, b, c in ((30000, 50000, 20000), (10000, 10000, 10000)):  # 3 images, 1 conn
        g = make_graph(
            20000,
            [(KIND_IMAGE, a, 0.0, "a.png"), (KIND_IMAGE, b, 0.0, "b.png"), (KIND_IMAGE, c, 0.0, "c.png")],
        )
        first = _root_done(20000) + RTT + a / BW
        cases.append((f"3img-{a}", g, 1, first, first + 2 * RTT + (b + c) / BW))

    g = make_graph(20000, [(KIND_STYLESHEET, 10000, 0.0, "s.css"), (KIND_IMAGE, 30000, 0.0, "i.png")])
    css_done = _root_done(20000) + RTT + 10000 / BW
    img_done = css_done + RTT + 30000 / BW  # serialized on one connection
    cases.append(("css-img", g, 1, img_done, img_done))

    g = make_graph(20000, [("text", 9, 0.0), (KIND_STYLESHEET, 10000, 0.0, "s.css")])
    cases.append(
        ("text-then-css", g, 6, _root_done(20000), _root_done(20000) + RTT + 10000 / BW)
    )

    g = make_graph(20000, [(KIND_IFRAME, 50000, 0.0, "f.html")])
    done = _root_done(20000) + RTT + 50000 / BW
    cases.append(("iframe", g, 6, done, done))

    g = make_graph(20000, [(KIND_IMAGE, 0, 0.0, "gone.png")])
    g.resources[1].missing = True
    done = _root_done(20000) + RTT
    cases.append(("missing-img", g, 6, done, done))

    g = make_graph(20000, [("text", 7, 0.0), (KIND_IMAGE, 40000, 20000.0, "late.png")])
    issue = _root_done(20000) + 20000 / PRATE  # parser reaches the tag at doc end
    cases.append(("late-img", g, 6, _root_done(20000), issue + RTT + 40000 / BW))

    assert len(cases) == 25
    return cases


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for name, graph, conn, want_fcp, want_plt in _oracle_graphs():
        if conn == "js100k":
            net, dev = NET_3G, DeviceProfile(js_exec_bytes_per_sec=100000.0, html_parse_bytes_per_sec=PRATE)
        else:
            net = NetworkProfile(BW, RTT, conn, "oracle")
            dev = FAST_DEV
        m = simulate_load(graph, net, dev)
        err = max(abs(m.fcp_seconds - want_fcp), abs(m.plt_seconds - want_plt))
        worst = max(worst, err)
        assert err <= TOL, f"{name}: fcp {m.fcp_seconds} vs {want_fcp}, plt {m.plt_seconds} vs {want_plt}"
    elapsed = time.perf_counter() - started
    _report(1, "oracle equivalence on 25 closed-form graphs",
            worst <= TOL and elapsed < 1.0, f"(max err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_metric_ordering(fixtures200):
    started = time.perf_counter()
    violations = 0
    checked = 0
    for pid in fixtures200.corpus.pages:
        graph = fixtures200.graphs[pid]
        metrics = simulate_load(graph, NET_3G, LOWEND)
        if graph.zero_visual:
            continue
        checked += 1
        if not (metrics.fcp_seconds <= metrics.speed_index_seconds + TOL
                and metrics.speed_index_seconds <= metrics.plt_seconds + TOL):
            violations += 1
    elapsed = time.perf_counter() - started
    _report(2, "fcp <= speed_index <= plt over seeded fixtures",
            violations == 0 and checked >= 150 and elapsed < 10.0,
            f"({checked} non-zero-visual pages, {violations} violations, {elapsed:.2f}s)")


def test_criterion_03_monotonicity(fixtures200):
    half = NetworkProfile(BW / 2, RTT, 6, "3g-half")
    bandwidth_violations = 0
    for pid in fixtures200.corpus.pages:
        base = fixtures200.metrics[pid]
        slow = simulate_load(fixtures200.graphs[pid], half, LOWEND)
        if (slow.fcp_seconds < base.fcp_seconds - TOL
                or slow.plt_seconds < base.plt_seconds - TOL
                or slow.speed_index_seconds < base.speed_index_seconds - TOL):
            bandwidth_violations += 1

    deletion_violations = 0
    deletions = 0
    for pid in fixtures200.corpus.pages:
        base_plt = fixtures200.metrics[pid].plt_seconds
        graph = fixtures200.graphs[pid]
        for index in range(1, len(graph.resources)):
            reduced = copy.deepcopy(graph)
            del reduced.resources[index]
            deletions += 1
            if simulate_load(reduced, NET_3G, LOWEND).plt_seconds > base_plt + TOL:
                deletion_violations += 1
    _report(3, "bandwidth and resource-removal monotonicity",
            bandwidth_violations == 0 and deletion_violations == 0,
            f"({deletions} single-resource deletions, "
            f"{bandwidth_violations}+{deletion_violations} violations)")


def test_criterion_04_identity_baseline(fixtures200):
    spec = TransformSpec(name="identity")
    for pid in fixtures200.corpus.pages:
        page = fixtures200.pages[pid]
        variant = apply_transform(spec, page)
        vm = simulate_load(parse_page(variant.page), NET_3G, LOWEND)
        base = fixtures200.metrics[pid]
        for metric, fieldname in DELTA_METRICS:
            assert getattr(base, fieldname) - getattr(vm, fieldname) == 0, (pid, metric)
        scores = score_graphs(fixtures200.graphs[pid], parse_page(variant.page))
        assert scores.structural == 1.0, pid
        assert scores.functional == 1.0, pid
    _report(4, "identity transform: all deltas 0, similarity 1.0",
            True, f"({len(fixtures200.corpus.pages)} pages)")


def _oracle_strip(html: str) -> str:
    html = re.sub(r"<script\b[^>]*>.*?</script\s*>", "", html, flags=re.S | re.I)
    return re.sub(r"""\s+on\w+\s*=\s*"[^"]*\"""", "", html)


def _oracle_strip_delta(page) -> int:
    """Independent prediction of the js-strip page-size delta: bytes of every
    referenced external script plus the root document shrinkage (script
    markup and handler attributes)."""
    html = page.root_exchange().body.decode()
    urls = set()
    for match in re.finditer(r"""<script\b[^>]*\bsrc=["']([^"']+)["']""", html, flags=re.I):
        urls.add(normalize_url(match.group(1), base=page.root_url))
    script_bytes = 0
    for url in urls:
        ex = page.lookup(url)
        if ex is not None:
            script_bytes += len(ex.body)
    shrink = len(html.encode()) - len(_oracle_strip(html).encode())
    return script_bytes + shrink


def test_criterion_05_transform_contracts(fixtures200):
    strip = TransformSpec(name="js-strip")
    dce = TransformSpec(name="js-dce")
    strip_checked = 0
    dce_checked = 0
    for pid in fixtures200.corpus.pages:
        page = fixtures200.pages[pid]
        html = page.root_exchange().body.decode()
        if "<script" not in html:
            continue
        variant = apply_transform(strip, page)
        vm = simulate_load(parse_page(variant.page), NET_3G, LOWEND)
        assert vm.js_processing_seconds == 0.0, pid
        base = fixtures200.metrics[pid]
        actual = base.page_size_bytes - vm.page_size_bytes
        expected = _oracle_strip_delta(page)
        assert actual == expected, (pid, actual, expected)
        strip_checked += 1

        once = apply_transform(dce, page)
        twice = apply_transform(dce, once.page)
        for key, ex in once.page.exchanges.items():
            assert twice.page.exchanges[key].body == ex.body, (pid, "dce not idempotent")
        # Rescan check: a wrongly deleted function would leave dangling
        # references; every deleted name must have zero occurrences left.
        variant_sources = [
            ex.body.decode("utf-8", errors="replace")
            for ex in once.page.exchanges.values()
        ]
        for (method, url), ex in page.exchanges.items():
            if not url.endswith(".js"):
                continue
            original_names = set(re.findall(r"function\s+([\w$]+)\s*\(", ex.body.decode()))
            kept = once.page.exchanges[(method, url)].body.decode()
            kept_names = set(re.findall(r"function\s+([\w$]+)\s*\(", kept))
            for name in original_names - kept_names:
                occurrences = sum(
                    len(re.findall(rf"(?<![\w$]){re.escape(name)}(?![\w$])", src))
                    for src in variant_sources
                )
                assert occurrences == 0, (pid, name)
        dce_checked += 1
    _report(5, "js-strip exact size delta and zero JS; js-dce idempotent and safe",
            strip_checked > 100 and dce_checked > 100,
            f"({strip_checked} pages checked)")


def test_criterion_06_similarity_bounds(fixtures200):
    solutions = ["identity", "js-strip", "js-block-thirdparty", "js-dce", "img-downscale"]
    pairs = 0
    for pid in fixtures200.corpus.pages[:20]:
        page = fixtures200.pages[pid]
        for name in solutions:
            variant = apply_transform(TransformSpec(name=name), page)
            scores = score_graphs(fixtures200.graphs[pid], parse_page(variant.page))
            values = [scores.structural, scores.functional, *scores.components]
            assert all(0.0 <= v <= 1.0 for v in values), (pid, name, values)
            pairs += 1

    # Nested-deletion triples: the fuller variant never scores below the
    # emptier one on the set-based components.
    original = page_from_parts(
        '<html><body><p>alpha beta gamma delta</p><img src="a.png"><img src="b.png">'
        "</body></html>",
        assets=[("/a.png", "image/png", b"1"), ("/b.png", "image/png", b"2")],
    )
    fuller = page_from_parts(
        '<html><body><p>alpha beta gamma</p><img src="a.png"></body></html>',
        assets=[("/a.png", "image/png", b"1")],
    )
    emptier = page_from_parts("<html><body><p>alpha</p></body></html>")
    g0, g1, g2 = parse_page(original), parse_page(fuller), parse_page(emptier)
    s1 = structural_similarity(g0, g1)
    s2 = structural_similarity(g0, g2)
    monotone = s2.text_sim <= s1.text_sim and s2.image_sim <= s1.image_sim
    _report(6, "similarity scores bounded and deletion-monotone",
            monotone, f"({pairs} scored pairs)")


def test_criterion_07_statistics_oracle():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(2, 60)
        values = [rng.uniform(-100, 100) for _ in range(n)]

        # Independent sort-and-formula oracle.
        ordered = sorted(values)
        mid = n // 2
        want_median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        want_mean = sum(values) / n
        sd = math.sqrt(sum((v - want_mean) ** 2 for v in values) / (n - 1))
        half = 1.96 * sd / math.sqrt(n)

        summary = summarize(values)
        worst = max(
            worst,
            abs(summary.median - want_median),
            abs(summary.mean - want_mean),
            abs(summary.ci95[0] - (want_mean - half)),
            abs(summary.ci95[1] - (want_mean + half)),
        )
        points = dict(ecdf(values))
        for value in ordered:
            want_p = sum(1 for v in values if v <= value) / n
            worst = max(worst, abs(points[value] - want_p))
    example = summarize([1, 2, 3, 4, 5])
    assert abs(example.ci95[0] - 1.6140707088743667) <= TOL
    assert abs(example.ci95[1] - 4.385929291125633) <= TOL
    _report(7, "median/mean/ci95/ECDF match the sort-and-formula oracle",
            worst <= TOL, f"(max err {worst:.2e})")


def _digests(paths):
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


def test_criterion_08_replicability(fixtures20, tmp_path, monkeypatch):
    def run(out_name, parallelism, cpus=None):
        if cpus is not None:  # the worker count follows the usable CPUs
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        config = config_from_dict(
            {
                "archive_dir": str(fixtures20.archive_dir),
                "out_dir": str(tmp_path / out_name),
                "corpus": {
                    "name": "fixtures",
                    "pages": fixtures20.corpus.pages,
                    "group_labels": fixtures20.corpus.group_labels,
                },
                "solutions": ["identity", "js-strip"],
                "network": "3g",
                "device": "lowend",
                "parallelism": parallelism,
            }
        )
        result = run_experiment(config)
        assert result.exit_code == 0
        base = tmp_path / out_name
        variants = sorted(p for p in (base / "variants").rglob("*") if p.is_file())
        assert variants
        return _digests(
            [base / "results.json", base / "report" / "deltas.csv", base / "report" / "report.html"]
        ) + [(p.relative_to(base).as_posix(), digest) for p, digest in zip(variants, _digests(variants))]

    first = run("run1", 1)
    second = run("run2", 1)
    parallel = run("run8", 8)
    _report(8, "pipeline reruns and parallelism changes are byte-identical",
            first == second == parallel, f"(digests {first[0][:12]}..)")
    one_worker = run("cpu1", 1, cpus={0})
    two_workers = run("cpu2", 1, cpus={0, 1})
    four_workers = run("cpu4", 1, cpus={0, 1, 2, 3})  # more workers than a 2-CPU host has: concurrent stores
    _report(8, "outputs and variants do not depend on the worker count",
            one_worker == two_workers == four_workers == first, f"({len(first) - 3} variant files)")


FIVE_SOLUTIONS = ["identity", "js-strip", "js-block-thirdparty", "js-dce", "img-downscale"]

# SHA-256 of the artifacts of a five-solution 3g/lowend run over the seeded
# 200-page corpus that do not name the archive path. A refactor must leave
# every one of them unchanged.
PINNED_200_PAGE_DIGESTS = {
    "results.json": "6de4db825e66c684bb21bfa68c93a92d9400769dbc169b128fe773075699e54d",
    "similarity.json": "cad20c67d3bc3ac17f5f6d8e3173c779a184447b8ccb4161f15a14bafdddb4b5",
    "report/deltas.csv": "a7eb8ffc1cd254bb746d47c293920ffee387bd2bceb4207e7f4bbe470b284243",
    "report/similarity.csv": "5a6be72aa97ad7d8fcaca69bfd6c02eb21242c282080f1c0b34854f594728d8a",
}

# SHA-256 over every file under variants/ of the same run: each file's
# relative path, then its bytes, in path order. It pins every transform's
# output bytes, blobs and manifests alike.
PINNED_200_PAGE_VARIANTS_DIGEST = "02f70ffc44b6001aa7d6aebedb1f0dd6051036d79e1267069051936dc5f60c9b"


def test_200_page_run_outputs_are_pinned(fixtures200, tmp_path):
    config = config_from_dict(
        {
            "archive_dir": str(fixtures200.archive_dir),
            "out_dir": str(tmp_path / "out"),
            "corpus": {
                "name": "fixtures",
                "pages": fixtures200.corpus.pages,
                "group_labels": fixtures200.corpus.group_labels,
            },
            "solutions": FIVE_SOLUTIONS,
            "network": "3g",
            "device": "lowend",
        }
    )
    assert run_experiment(config).exit_code == 0
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in PINNED_200_PAGE_DIGESTS
    }
    assert digests == PINNED_200_PAGE_DIGESTS


# SHA-256 of the same run's report/report.html with the archive path and the
# experiment id (a digest of a snapshot that holds that path) replaced by
# placeholders, since both differ between test sessions.
PINNED_200_PAGE_REPORT_HTML_DIGEST = "539450ed2dd6106a3f8ef339e703aecda69b8c247b46354f0d9c2e8039531160"


def test_200_page_report_is_pinned(fixtures200, tmp_path):
    config = config_from_dict(
        {
            "archive_dir": str(fixtures200.archive_dir),
            "out_dir": str(tmp_path / "out"),
            "corpus": {
                "name": "fixtures",
                "pages": fixtures200.corpus.pages,
                "group_labels": fixtures200.corpus.group_labels,
            },
            "solutions": FIVE_SOLUTIONS,
            "network": "3g",
            "device": "lowend",
        }
    )
    result = run_experiment(config)
    assert result.exit_code == 0
    html = (tmp_path / "out" / "report" / "report.html").read_text(encoding="utf-8")
    assert str(fixtures200.archive_dir) in html and result.bundle.experiment_id in html
    html = html.replace(str(fixtures200.archive_dir), "ARCHIVE").replace(result.bundle.experiment_id, "EXPERIMENT")
    assert hashlib.sha256(html.encode("utf-8")).hexdigest() == PINNED_200_PAGE_REPORT_HTML_DIGEST
    # Its ci95 floats come from statistics.stdev, whose last bit differs
    # between Python versions, so summaries.json is held to its form alone.
    text = (tmp_path / "out" / "report" / "summaries.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_200_page_evaluate_results_are_pinned(fixtures200, tmp_path):
    config = config_from_dict(
        {
            "archive_dir": str(fixtures200.archive_dir),
            "out_dir": str(tmp_path),
            "corpus": {"name": "fixtures", "pages": fixtures200.corpus.pages},
            "solutions": FIVE_SOLUTIONS,
            "network": "3g",
            "device": "lowend",
        }
    )
    records, exit_code = evaluate(config)
    assert exit_code == 0
    digest = hashlib.sha256(write_results(records, tmp_path / "results.json").read_bytes()).hexdigest()
    assert digest == PINNED_200_PAGE_DIGESTS["results.json"]


def test_200_page_variant_store_is_pinned(fixtures200, tmp_path):
    config = config_from_dict(
        {
            "archive_dir": str(fixtures200.archive_dir),
            "out_dir": str(tmp_path),
            "corpus": {"name": "fixtures", "pages": fixtures200.corpus.pages},
            "solutions": FIVE_SOLUTIONS,
            "network": "3g",
            "device": "lowend",
        }
    )
    assert run_experiment(config).exit_code == 0
    base = tmp_path / "variants"
    names = sorted(p.relative_to(base).as_posix() for p in base.rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode("utf-8"))
        digest.update((base / name).read_bytes())
    assert digest.hexdigest() == PINNED_200_PAGE_VARIANTS_DIGEST


# SHA-256 over graph_to_dict (JSON, sorted keys) of every seeded 200-page
# original and each of its five variants, in corpus then solution order. It
# pins every graph field that dict shows, the derived ones included:
# render_blocking, total_visual_weight and zero_visual.
PINNED_200_PAGE_GRAPH_DIGEST = "72e772bb100af777c84dc6fbbc58d83f4b1df777f5d91cc62c283fc19928f2f4"


def test_200_page_graphs_are_pinned(fixtures200):
    digest = hashlib.sha256()
    for page_id in fixtures200.corpus.pages:
        page = fixtures200.pages[page_id]
        variants = [apply_transform(TransformSpec(name=name), page).page for name in FIVE_SOLUTIONS]
        for graph in map(parse_page, [page, *variants]):
            digest.update(json.dumps(graph_to_dict(graph), sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == PINNED_200_PAGE_GRAPH_DIGEST


def test_criterion_09_replay_shaping():
    body = b"\x42" * 100000
    page = page_from_parts(
        "<html><body>big</body></html>",
        assets=[("/big.bin", "application/octet-stream", body)],
    )
    shaping = ShapingConfig(downlink_bytes_per_sec=200000.0, rtt_seconds=0.4, enabled=True)
    with serve(page, shaping=shaping) as server:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        started = time.perf_counter()
        conn.request("GET", "/big.bin", headers={"Host": "site.test"})
        response = conn.getresponse()
        received = response.read()
        elapsed = time.perf_counter() - started
        conn.close()
    assert received == body
    _report(9, "shaped transfer of 100 kB at 200 kB/s + 400 ms RTT in [0.7, 1.2] s",
            0.7 <= elapsed <= 1.2, f"({elapsed:.3f}s)")


def test_criterion_10_qualitative_direction(tmp_path):
    archive = tmp_path / "jsheavy"
    corpus = make_fixtures(archive, 10, seed=23, profile="js_heavy")
    deltas = {"js-block-thirdparty": {"plt": [], "js": []},
              "js-strip": {"plt": [], "js": []},
              "js-dce": {"plt": [], "js": []}}
    for pid in corpus.pages:
        page = load_page(pid, archive)
        base = simulate_load(parse_page(page), NET_3G, LOWEND)
        for name in deltas:
            variant = apply_transform(TransformSpec(name=name), page)
            vm = simulate_load(parse_page(variant.page), NET_3G, LOWEND)
            deltas[name]["plt"].append(base.plt_seconds - vm.plt_seconds)
            deltas[name]["js"].append(base.js_processing_seconds - vm.js_processing_seconds)
    block_plt = statistics.median(deltas["js-block-thirdparty"]["plt"])
    block_js = statistics.median(deltas["js-block-thirdparty"]["js"])
    strip_js = statistics.median(deltas["js-strip"]["js"])
    dce_js = statistics.median(deltas["js-dce"]["js"])
    ok = block_plt > 0 and block_js > 0 and strip_js > dce_js
    _report(10, "direction: third-party blocking helps plt/js; strip > dce on js",
            ok, f"(block plt {block_plt:.2f}s js {block_js:.2f}s; strip {strip_js:.2f}s vs dce {dce_js:.4f}s)")
