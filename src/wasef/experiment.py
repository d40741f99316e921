"""End-to-end pipeline: apply each solution to each corpus page, simulate
every variant under one network/device pair, score similarity against the
original, then emit delta statistics and report files.

The pipeline is replicable: (config, archive) fully determines every output
byte. Per-(page, solution) failures become skip entries, not aborts.

Pages are streamed: run_experiment loads and parses one page, evaluates it
under every solution, and drops it before loading the next, so only one
page's bodies are held at a time. Every reuse of a parsed root document
(pagemodel.html_index) and of a scanned script (jsscan.index) falls within
one page, which is why those caches stay small. The HTML cache is cleared
when a run starts, so each run parses its documents itself.

Evaluation is serial. ``parallelism`` is still validated and accepted but
changes nothing. A thread pool over (page, solution) pairs ran slower than
the serial loop: a 200-page, five-solution run took 3.45 s with two threads
against 1.87 s serially on a 2-vCPU host, since the work is Python
computation that holds the interpreter lock.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path

from . import pagemodel, report, similarity, stats, transform
from .archive import ArchivedPage, Corpus, load_corpus, load_page, store_page
from .errors import ConfigError, WasefError
from .loadsim import (
    DEVICE_PROFILES,
    NETWORK_PROFILES,
    DeviceProfile,
    NetworkProfile,
    PageMetrics,
    metrics_to_dict,
    simulate_load,
)
from .report import ReportBundle
from .transform import TransformSpec, apply_transform

log = logging.getLogger(__name__)


@dataclass
class ExperimentConfig:
    archive_dir: str
    out_dir: str
    corpus: Corpus
    solutions: list[TransformSpec]
    network: NetworkProfile
    device: DeviceProfile
    parallelism: int = 1  # validated; evaluation is serial whatever its value
    seed: int = 0
    min_page_bytes: int = 0  # corpus size-filter floor; 0 disables

    def snapshot(self) -> dict:
        """The result-determining configuration. Execution details
        (out_dir, parallelism) are excluded: they cannot change any output
        byte."""
        return {
            "archive_dir": str(self.archive_dir),
            "corpus": {
                "name": self.corpus.name,
                "pages": list(self.corpus.pages),
                "group_labels": dict(self.corpus.group_labels),
            },
            "solutions": [
                {"name": s.name, "params": dict(s.params), "version": s.version}
                for s in self.solutions
            ],
            "network": {
                "name": self.network.name,
                "bandwidth_bytes_per_sec": self.network.bandwidth_bytes_per_sec,
                "rtt_seconds": self.network.rtt_seconds,
                "max_connections_per_host": self.network.max_connections_per_host,
            },
            "device": {
                "name": self.device.name,
                "js_exec_bytes_per_sec": self.device.js_exec_bytes_per_sec,
                "html_parse_bytes_per_sec": self.device.html_parse_bytes_per_sec,
                "cost_coefficients": list(self.device.cost_coefficients),
            },
            "seed": self.seed,
            "min_page_bytes": self.min_page_bytes,
        }


def resolve_network(value, field: str = "network") -> NetworkProfile:
    if isinstance(value, str):
        profile = NETWORK_PROFILES.get(value)
        if profile is None:
            raise ConfigError(field, f"unknown network profile {value!r}")
        return profile
    if isinstance(value, dict):
        try:
            return NetworkProfile(
                bandwidth_bytes_per_sec=float(value["bandwidth_bytes_per_sec"]),
                rtt_seconds=float(value["rtt_seconds"]),
                max_connections_per_host=int(value.get("max_connections_per_host", 6)),
                name=str(value.get("name", "custom")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(field, f"bad inline network profile: {exc}") from None
    raise ConfigError(field, "must be a profile name or an inline object")


def resolve_device(value, field: str = "device") -> DeviceProfile:
    if isinstance(value, str):
        profile = DEVICE_PROFILES.get(value)
        if profile is None:
            raise ConfigError(field, f"unknown device profile {value!r}")
        return profile
    if isinstance(value, dict):
        try:
            coefficients = value.get("cost_coefficients", (1.0, 1e-6))
            return DeviceProfile(
                js_exec_bytes_per_sec=float(value.get("js_exec_bytes_per_sec", 100000.0)),
                html_parse_bytes_per_sec=float(value.get("html_parse_bytes_per_sec", 2000000.0)),
                name=str(value.get("name", "custom")),
                cost_coefficients=(float(coefficients[0]), float(coefficients[1])),
            )
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(field, f"bad inline device profile: {exc}") from None
    raise ConfigError(field, "must be a profile name or an inline object")


def _resolve_solutions(raw, field: str = "solutions") -> list[TransformSpec]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(field, "must be a non-empty list")
    specs: list[TransformSpec] = []
    for index, item in enumerate(raw):
        if isinstance(item, str):
            specs.append(TransformSpec(name=item))
        elif isinstance(item, dict) and item.get("name"):
            specs.append(
                TransformSpec(
                    name=str(item["name"]),
                    params={str(k): str(v) for k, v in (item.get("params") or {}).items()},
                    version=str(item.get("version", "1")),
                )
            )
        else:
            raise ConfigError(f"{field}[{index}]", "must be a name or an object with a name")
    if not any(spec.name == "identity" for spec in specs):
        specs.insert(0, TransformSpec(name="identity"))  # implied baseline
    return specs


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a config mapping (one JSON file) into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "must be a JSON object")
    for key in ("archive_dir", "out_dir", "corpus", "solutions"):
        if key not in raw:
            raise ConfigError(key, "is required")
    archive_dir = str(raw["archive_dir"])

    corpus_raw = raw["corpus"]
    if isinstance(corpus_raw, str):
        try:
            corpus = load_corpus(corpus_raw, archive_dir)
        except WasefError as exc:
            raise ConfigError("corpus", str(exc)) from None
    elif isinstance(corpus_raw, dict):
        pages = corpus_raw.get("pages")
        if not isinstance(pages, list):
            raise ConfigError("corpus.pages", "must be a list of page ids")
        group_labels = corpus_raw.get("group_labels") or {}
        if not isinstance(group_labels, dict):
            raise ConfigError("corpus.group_labels", "must be an object of page id to group")
        corpus = Corpus(
            name=str(corpus_raw.get("name", "inline")),
            pages=[str(p) for p in pages],
            group_labels={str(k): str(v) for k, v in group_labels.items()},
        )
    else:
        raise ConfigError("corpus", "must be a corpus name or an inline object")
    if not corpus.pages:
        raise ConfigError("corpus.pages", "corpus is empty")
    if len(set(corpus.pages)) != len(corpus.pages):
        raise ConfigError("corpus.pages", "page ids must be unique")
    for page_id in corpus.pages:
        if not (Path(archive_dir) / page_id / "manifest.json").is_file():
            raise ConfigError("corpus.pages", f"page {page_id!r} not found in archive")

    parallelism = raw.get("parallelism", 1)
    if not isinstance(parallelism, int) or parallelism < 1:
        raise ConfigError("parallelism", "must be a positive integer")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed", "must be an integer")
    min_page_bytes = raw.get("min_page_bytes", 0)
    if not isinstance(min_page_bytes, int) or min_page_bytes < 0:
        raise ConfigError("min_page_bytes", "must be a non-negative integer")

    return ExperimentConfig(
        archive_dir=archive_dir,
        out_dir=str(raw["out_dir"]),
        corpus=corpus,
        solutions=_resolve_solutions(raw["solutions"]),
        network=resolve_network(raw.get("network", "3g")),
        device=resolve_device(raw.get("device", "lowend")),
        parallelism=parallelism,
        seed=seed,
        min_page_bytes=min_page_bytes,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
    return config_from_dict(raw)


@dataclass
class ExperimentResult:
    bundle: ReportBundle
    records: list[tuple[str, str, PageMetrics]]
    exit_code: int
    paths: dict[str, Path]


def _evaluate_pair(
    page: ArchivedPage,
    original_graph,
    spec: TransformSpec,
    config: ExperimentConfig,
    variants_dir: Path | None,
):
    variant = apply_transform(spec, page)
    if variants_dir is not None:
        store_page(variant.page, variants_dir)
    variant_graph = pagemodel.parse_page(variant.page)
    metrics = simulate_load(variant_graph, config.network, config.device)
    scores = similarity.structural_similarity(original_graph, variant_graph)
    scores.functional = similarity.functional_similarity_graphs(
        original_graph, variant.page, variant_graph
    )
    return metrics, scores


def run_experiment(config: ExperimentConfig, write_files: bool = True) -> ExperimentResult:
    """Run the full pipeline. Exit code 0 means every page evaluated under
    every solution; 3 means partial (skips present); 4 means nothing was
    evaluated."""
    out_dir = Path(config.out_dir)
    variants_dir = out_dir / "variants" if write_files else None
    if write_files:
        out_dir.mkdir(parents=True, exist_ok=True)

    pagemodel.html_index.cache_clear()
    records: list[tuple[str, str, PageMetrics]] = []
    similarity_table = []
    skips: list[tuple[str, str, str]] = []
    filtered: set[str] = set()
    for page_id in config.corpus.pages:
        try:
            page = load_page(page_id, config.archive_dir)
            if config.min_page_bytes and page.total_bytes() < config.min_page_bytes:
                # Config-driven exclusion, reported for visibility but not a failure.
                filtered.add(page_id)
                skips.append((page_id, "*", f"below size floor {config.min_page_bytes}"))
                continue
            graph = pagemodel.parse_page(page)
        except WasefError as exc:
            skips.append((page_id, "*", str(exc)))
            continue
        for spec in config.solutions:
            try:
                metrics, scores = _evaluate_pair(page, graph, spec, config, variants_dir)
            except Exception as exc:
                skips.append((page_id, spec.name, str(exc)))
                continue
            records.append((page_id, spec.name, metrics))
            similarity_table.append((page_id, spec.name, scores))
    records.sort(key=lambda r: (r[0], r[1]))
    similarity_table.sort(key=lambda r: (r[0], r[1]))

    deltas, delta_skips = stats.compute_deltas(records)
    skips.extend(delta_skips)
    summaries = stats.summarize_deltas(deltas, config.corpus.group_labels)

    snapshot = config.snapshot()
    experiment_id = hashlib.sha256(
        json.dumps(snapshot, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    bundle = ReportBundle(
        experiment_id=experiment_id,
        config_snapshot=snapshot,
        summaries=summaries,
        similarity_table=similarity_table,
        skip_report=sorted(skips),
        deltas=deltas,
    )

    # 4: nothing evaluated at all; 3: evaluated but with failures; 0: clean.
    # Size-filter exclusions are configuration, not failures.
    failures = [s for s in skips if s[0] not in filtered]
    if not records:
        exit_code = 4
    elif failures:
        exit_code = 3
    else:
        exit_code = 0

    paths: dict[str, Path] = {}
    if write_files:
        paths["results.json"] = write_results(records, out_dir / "results.json")
        paths["similarity.json"] = write_similarity(similarity_table, out_dir / "similarity.json")
        for name, path in report.write_bundle(bundle, out_dir / "report").items():
            paths[name] = path
    return ExperimentResult(bundle=bundle, records=records, exit_code=exit_code, paths=paths)


def write_results(records: list[tuple[str, str, PageMetrics]], path: str | Path) -> Path:
    """One JSON record per (page, solution), sorted, with every metric field."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for page_id, solution, metrics in sorted(records, key=lambda r: (r[0], r[1])):
        row = {"page_id": page_id, "solution": solution}
        row.update(metrics_to_dict(metrics))
        rows.append(row)
    path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return path


def write_similarity(similarity_table, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = report.similarity_table_to_json(similarity_table)
    path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return path
