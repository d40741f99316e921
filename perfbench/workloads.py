"""One benchmark run of one workload, in a fresh interpreter.

run.py starts this file with PYTHONHASHSEED fixed and wasef's sources on the
path, in a work directory it owns and removes afterwards:

    python3 perfbench/workloads.py WORKLOAD SEED SECONDS TRACE WORKDIR SPANS_FILE

It sets the workload up several times (set-up time is the median), then
repeats whole rounds of the same operations until SECONDS have passed,
checks every output, and prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}, plus the duration of each
measured round and of each untraced reference round of a traced run.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

import wasef.archive
import wasef.experiment
from wasef.archive import Corpus, save_corpus, store_page
from wasef.fixtures import build_fixture_page, make_fixtures

import tracing
from widepages import TAG_COUNTS, build_wide_page

MIXED_PAGES = 200
SETUP_REPEATS = 5
REPLAY_SETUP_REPEATS = 3
REPLAY_CLASSES = ("rich", "js_heavy", "media", "interactive", "thirdparty")
# The replayed pages are the first five pages of make_fixtures(200, seed=11),
# whatever the run's seed: a body shorter than the loopback MSS stalls about
# 40 ms on a keep-alive connection and a longer one does not, so pages drawn
# from the run's seed moved requests/s by 9% between seeds. The run's seed
# orders the pages and each page's requests.
REPLAY_FIXTURE_SEED = 11
SERVER_START_TIMEOUT_S = 30.0
# The named 3g/lowend profiles, restated here so the PLT floor check does not
# take them from wasef.
RTT_S = 0.4
BANDWIDTH_BYTES_PER_S = 200000.0
EPS = 1e-9


def _traced_round(trace: bool, reference_times: list, round_times: list) -> bool:
    """Rounds of a traced run alternate between an untraced reference round
    and a traced one, starting untraced; trace.overhead_s compares the two."""
    return trace and len(reference_times) > len(round_times)


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


# --- pipeline workloads: mixed_corpus, wide_pages -----------------------------


@dataclass
class Archive:
    config: wasef.experiment.ExperimentConfig
    solutions: list[str]
    generated: dict[str, tuple[int, int]] = field(default_factory=dict)  # page id -> (bytes, URLs)
    manifest_bytes: dict[str, int] = field(default_factory=dict)  # page id -> sum of body_len


def _config(archive_dir: Path, out_dir: Path, corpus: str, solutions: list[str]):
    return wasef.experiment.config_from_dict(
        {
            "archive_dir": str(archive_dir),
            "out_dir": str(out_dir),
            "corpus": corpus,
            "solutions": solutions,
            "network": "3g",
            "device": "lowend",
            "parallelism": 1,
        }
    )


def setup_mixed(archive_dir: Path, out_dir: Path, seed: int) -> Archive:
    make_fixtures(archive_dir, MIXED_PAGES, seed)
    solutions = list(tracing.SOLUTIONS)
    return Archive(_config(archive_dir, out_dir, "fixtures", solutions), solutions)


def setup_wide(archive_dir: Path, out_dir: Path, seed: int) -> Archive:
    generated = {}
    for index, tag_count in enumerate(TAG_COUNTS):
        wide = build_wide_page(index, seed, tag_count)
        store_page(wide.page, archive_dir)
        generated[wide.page.page_id] = (wide.bytes_written, len(wide.urls))
    save_corpus(Corpus("wide", list(generated)), archive_dir)
    solutions = ["identity", "js-strip", "img-downscale"]
    return Archive(_config(archive_dir, out_dir, "wide", solutions), solutions, generated)


def _manifest_bytes(archive_dir: Path, page_ids) -> dict[str, int]:
    """Identity page size as the stored manifests state it, read without wasef."""
    sizes = {}
    for page_id in page_ids:
        manifest = json.loads((archive_dir / page_id / "manifest.json").read_text(encoding="utf-8"))
        sizes[page_id] = sum(entry["body_len"] for entry in manifest["exchanges"])
    return sizes


def _output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    files = [out_dir / "results.json", out_dir / "similarity.json"]
    files += sorted(p for p in (out_dir / "report").rglob("*") if p.is_file())
    for path in files:
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _pair_ok(archive: Archive, page_id: str, solution: str, results: dict, scores: dict) -> bool:
    row = results.get((page_id, solution))
    score = scores.get((page_id, solution))
    identity = results.get((page_id, "identity"))
    identity_score = scores.get((page_id, "identity"))
    if row is None or score is None or identity is None or identity_score is None:
        return False
    fcp, si, plt = row["fcp_seconds"], row["speed_index_seconds"], row["plt_seconds"]
    size = row["page_size_bytes"]
    checks = [
        fcp <= si + EPS and si <= plt + EPS,
        plt + EPS >= RTT_S + size / BANDWIDTH_BYTES_PER_S,
        size <= identity["page_size_bytes"],
    ]
    if solution == "identity":
        checks.append(size == archive.manifest_bytes[page_id])
        checks.append(score["structural"] == 1.0 and score["functional"] == 1.0)
        if page_id in archive.generated:
            checks.append((size, row["request_count"]) == archive.generated[page_id])
    elif solution == "js-strip":
        checks.append(row["js_processing_seconds"] == 0)
    elif solution == "js-dce":
        checks.append(score["functional"] == identity_score["functional"])
    return all(checks)


def _rows_by_pair(path: Path) -> dict:
    return {(row["page_id"], row["solution"]): row for row in json.loads(path.read_text(encoding="utf-8"))}


def check_pipeline_round(archive: Archive, result, out_dir: Path, digests: list[str]) -> int:
    """Failed (page, solution) pairs of one run_experiment call, judged from
    the files it wrote. A round whose outputs differ from the first round's
    fails every pair."""
    pairs = len(archive.config.corpus.pages) * len(archive.solutions)
    if result.exit_code != 0:
        return pairs
    try:
        digests.append(_output_digest(out_dir))
        if digests[-1] != digests[0]:
            return pairs
        results = _rows_by_pair(out_dir / "results.json")
        scores = _rows_by_pair(out_dir / "similarity.json")
        return sum(
            not _pair_ok(archive, page_id, solution, results, scores)
            for page_id in archive.config.corpus.pages
            for solution in archive.solutions
        )
    except (OSError, ValueError, KeyError, TypeError):  # a missing or malformed output file
        traceback.print_exc()
        return pairs


def run_pipeline(setup, seed: int, seconds: float, trace: bool, workdir: Path, spans_file: Path) -> dict:
    archive_dir, out_dir = workdir / "archive", workdir / "out"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(archive_dir, ignore_errors=True)
        started = time.perf_counter()
        archive = setup(archive_dir, out_dir, seed)
        setup_times.append(time.perf_counter() - started)
    archive.manifest_bytes = _manifest_bytes(archive_dir, archive.config.corpus.pages)
    pairs = len(archive.config.corpus.pages) * len(archive.solutions)

    tracer = tracing.Tracer()
    reference_times, round_times, digests = [], [], []
    attempted = failed = 0
    measure_start = time.perf_counter()
    while True:
        traced_round = _traced_round(trace, reference_times, round_times)
        if traced_round:
            tracing.trace_pipeline(tracer)
        shutil.rmtree(out_dir, ignore_errors=True)
        started = time.perf_counter()
        try:
            result = wasef.experiment.run_experiment(archive.config)
        except Exception:  # a crashed round fails every pair it held
            traceback.print_exc()
            result = None
        elapsed = time.perf_counter() - started
        tracer.restore()
        attempted += pairs
        failed += pairs if result is None else check_pipeline_round(archive, result, out_dir, digests)
        (round_times if traced_round or not trace else reference_times).append(elapsed)
        if not trace and len(round_times) == 1:
            peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)  # set-up and one round, however many follow
        if round_times and time.perf_counter() - measure_start >= seconds:
            break

    if trace:
        metrics = tracing.per_layer_metrics(tracer.layer_totals(), len(round_times))
        metrics.update({"replay.first_byte_ms": 0.0, "replay.body_ms": 0.0, "replay.served_mb": 0.0})
        metrics["trace.overhead_s"] = statistics.median(round_times) - statistics.median(reference_times)
        tracer.write(spans_file)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_per_s": statistics.median(pairs / t for t in round_times),
            "latency_p50_ms": statistics.median(round_times) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "round_s": round_times,
        "reference_round_s": reference_times,
    }


# --- replay_keepalive ---------------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    host: str = ""
    port: int = 0


def _start_server(archive_dir: Path, page_id: str) -> Server:
    # PYTHONUNBUFFERED: `wasef serve` prints its port without flushing.
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "wasef.cli", "serve", "--archive", str(archive_dir),
         "--page", page_id, "--bind", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    return Server(proc)


def _await_port(server: Server, deadline: float) -> None:
    """Read the `serving <page> on http://host:port` line."""
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([server.proc.stdout], [], [], max(remaining, 0))
        if not ready:
            raise RuntimeError("wasef serve did not report its address in time")
        chunk = os.read(server.proc.stdout.fileno(), 4096)
        if not chunk:
            raise RuntimeError(f"wasef serve exited: {server.proc.stderr.read().decode(errors='replace')}")
        line += chunk
    address = line.decode().split("http://", 1)[1].split()[0]
    host, _, port = address.rpartition(":")
    server.host, server.port = host, int(port)


def _stop_servers(servers: list[Server]) -> list[str]:
    """Interrupt each server (it then prints its miss log) and wait for it.
    Returns the miss-log lines."""
    for server in servers:
        if server.proc.poll() is None:
            server.proc.send_signal(signal.SIGINT)
    misses = []
    for server in servers:
        try:
            _, err = server.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            server.proc.kill()
            _, err = server.proc.communicate()
        text = err.decode(errors="replace")
        if "misses:" in text:
            misses.extend(line.strip() for line in text.splitlines()[1:] if line.strip())
    return misses


def _archived_exchanges(archive_dir: Path, page_id: str) -> list[tuple[str, str, int, bytes]]:
    """(host, path and query, status, body) per stored exchange, read without
    wasef, the root document first."""
    page_dir = archive_dir / page_id
    manifest = json.loads((page_dir / "manifest.json").read_text(encoding="utf-8"))
    exchanges = []
    for entry in sorted(manifest["exchanges"], key=lambda e: e["url"] != manifest["root_url"]):
        parts = urlsplit(entry["url"])
        path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        exchanges.append((parts.netloc, path, entry["status"], (page_dir / entry["body_file"]).read_bytes()))
    return exchanges


def setup_replay(archive_dir: Path, servers: list[Server]) -> list[str]:
    """Store one page per mixed page class and serve each with `wasef serve`
    in its own process; returns once every server answers."""
    page_ids = []
    for index, page_class in enumerate(REPLAY_CLASSES):
        page = build_fixture_page(index, REPLAY_FIXTURE_SEED, page_class)
        store_page(page, archive_dir)
        page_ids.append(page.page_id)
    started = [_start_server(archive_dir, page_id) for page_id in page_ids]
    servers.extend(started)
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    for server, page_id in zip(started, page_ids):
        _await_port(server, deadline)
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", "/index.html")
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"server for {page_id} answered {response.status}")
        finally:
            conn.close()
    return page_ids


def run_replay(seed: int, seconds: float, trace: bool, workdir: Path, spans_file: Path) -> dict:
    servers: list[Server] = []
    misses: list[str] = []
    try:
        setup_times = []
        for _ in range(REPLAY_SETUP_REPEATS):
            misses += _stop_servers(servers)
            servers.clear()
            archive_dir = workdir / f"archive{len(setup_times)}"
            started = time.perf_counter()
            page_ids = setup_replay(archive_dir, servers)
            setup_times.append(time.perf_counter() - started)

        tracer = tracing.Tracer()
        if trace:  # the servers' load_page cannot be timed from here; time a re-load of the same files
            tracer.wrap(wasef.archive, "load_page", "archive.load", lambda args, page: page.total_bytes())
            for page_id in page_ids:
                wasef.archive.load_page(page_id, archive_dir)
            tracer.restore()
        connections = [http.client.HTTPConnection(s.host, s.port, timeout=10) for s in servers]
        # Page by page, root document first, then the sub-resources in a
        # seeded order. The stall shows on back-to-back requests over one
        # connection; the first request after the connection sat idle is
        # acknowledged at once, so which request comes first must not vary.
        rng = random.Random(seed)
        plan = []
        for connection, page_id in rng.sample(list(zip(connections, page_ids)), len(page_ids)):
            root, *resources = _archived_exchanges(archive_dir, page_id)
            rng.shuffle(resources)
            plan += [(connection, exchange) for exchange in [root, *resources]]

        # Nothing is wrapped while the client runs, so every round is measured
        # alike and trace.overhead_s reads 0.
        latencies, first_byte, body_time, round_times = [], [], [], []
        attempted = failed = served = 0
        measure_start = time.perf_counter()
        try:
            while True:
                round_start = time.perf_counter()
                for conn, (host, path, status, expected) in plan:
                    attempted += 1
                    try:
                        sent = time.perf_counter()
                        conn.request("GET", path, headers={"Host": host})
                        response = conn.getresponse()
                        headed = time.perf_counter()
                        body = response.read()
                        done = time.perf_counter()
                    except (OSError, http.client.HTTPException) as exc:
                        print(f"request {host}{path} failed: {exc!r}", file=sys.stderr)
                        conn.close()
                        failed += 1
                        continue
                    if response.status != status or body != expected:
                        failed += 1
                    latencies.append(done - sent)
                    first_byte.append(headed - sent)
                    body_time.append(done - headed)
                    served += len(body)
                round_times.append(time.perf_counter() - round_start)
                if time.perf_counter() - measure_start >= seconds:
                    break
        finally:
            for conn in connections:
                conn.close()
    finally:
        misses += _stop_servers(servers)
    for url in misses:
        print(f"replay miss: {url}", file=sys.stderr)

    if trace:
        totals = tracer.layer_totals()
        metrics = tracing.per_layer_metrics({}, 1)
        load = totals.get("archive.load", {"calls": 0, "self_s": 0.0, "amount": 0.0})
        metrics["archive.load_calls"] = load["calls"]
        metrics["archive.load_s"] = load["self_s"]
        metrics["archive.load_mb"] = load["amount"] / 1e6
        metrics["replay.first_byte_ms"] = statistics.median(first_byte) * 1000.0
        metrics["replay.body_ms"] = statistics.median(body_time) * 1000.0
        metrics["replay.served_mb"] = served / len(round_times) / 1e6
        metrics["trace.overhead_s"] = 0.0
        tracer.write(spans_file)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_per_s": statistics.median(len(plan) / t for t in round_times),
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),  # the largest server
        }
    return {
        "correct": failed == 0 and not misses,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "round_s": round_times,
        "reference_round_s": [],
    }


WORKLOADS = {
    "mixed_corpus": lambda *args: run_pipeline(setup_mixed, *args),
    "wide_pages": lambda *args: run_pipeline(setup_wide, *args),
    "replay_keepalive": run_replay,
}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, workdir, spans_file = argv
    result = WORKLOADS[workload](int(seed), float(seconds), trace == "1", Path(workdir), Path(spans_file))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
