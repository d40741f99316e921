"""The one pipeline: apply each solution to each corpus page, simulate
every variant under one network/device pair, score similarity against the
original, then build delta statistics into a report bundle.

``wasef run`` is run_experiment writing every file; ``wasef evaluate`` is
run_experiment writing none, then write_results; ``wasef report`` reads the
files back (read_results, read_similarity) and calls build_bundle.

(config, archive) fully determines every output byte. Failures are skips,
each logged at WARNING where it is recorded: a page that fails to load or
parse is skipped under every solution ("*"), and a (page, solution) pair
that raises is skipped alone. The exit code counts these skips only: 0 for
none, 3 for some, 4 when nothing was evaluated. A page below min_page_bytes
is a skip too, but configuration, not a failure. A pair with no baseline or
variant record has no deltas and joins the skip report in build_bundle.

Pages are streamed, one at a time under every solution, so the HTML
(pagemodel.html_index) and script (jsscan.index) caches need hold only one
page; the HTML cache is cleared when a run starts. Evaluation is serial and
``parallelism`` changes nothing: two threads took 3.45 s against 1.87 s
serially for 200 pages and five solutions on a 2-vCPU host, since the work
is Python computation that holds the interpreter lock.
"""

from __future__ import annotations

import hashlib
import json
import logging
import shutil
from dataclasses import dataclass, fields
from pathlib import Path

from . import archive, pagemodel, report, similarity, stats
from .archive import ArchivedPage, Corpus, load_corpus, load_page, page_id_problem, store_page
from .errors import ConfigError, StorageError, WasefError
from .loadsim import (
    DEVICE_PROFILES,
    NETWORK_PROFILES,
    DeviceProfile,
    NetworkProfile,
    PageMetrics,
    simulate_load,
)
from .report import ReportBundle
from .similarity import SimilarityScores
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


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _profile_number(profile: dict, key: str, field: str, default: float | None = None) -> float:
    """``profile[key]`` as a float. A bool, a string or any other
    non-number is a ConfigError on ``field`` that names the key; a missing
    key without a default raises KeyError."""
    value = profile[key] if default is None else profile.get(key, default)
    if not _number(value):
        raise ConfigError(field, f"{key} must be a number, got {value!r}")
    return float(value)


def resolve_network(value, field: str = "network") -> NetworkProfile:
    if isinstance(value, str):
        profile = NETWORK_PROFILES.get(value)
        if profile is None:
            raise ConfigError(field, f"unknown network profile {value!r}")
        return profile
    if isinstance(value, dict):
        try:
            return NetworkProfile(
                bandwidth_bytes_per_sec=_profile_number(value, "bandwidth_bytes_per_sec", field),
                rtt_seconds=_profile_number(value, "rtt_seconds", field),
                max_connections_per_host=value.get("max_connections_per_host", 6),
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
        coefficients = value.get("cost_coefficients", [1.0, 1e-6])
        if not (
            isinstance(coefficients, list)
            and len(coefficients) == 2
            and all(map(_number, coefficients))
        ):
            raise ConfigError(f"{field}.cost_coefficients", "must be a list of two numbers")
        try:
            return DeviceProfile(
                js_exec_bytes_per_sec=_profile_number(value, "js_exec_bytes_per_sec", field, 100000.0),
                html_parse_bytes_per_sec=_profile_number(value, "html_parse_bytes_per_sec", field, 2000000.0),
                name=str(value.get("name", "custom")),
                cost_coefficients=(float(coefficients[0]), float(coefficients[1])),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(field, f"bad inline device profile: {exc}") from None
    raise ConfigError(field, "must be a profile name or an inline object")


def _resolve_solutions(raw, field: str = "solutions") -> list[TransformSpec]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(field, "must be a non-empty list")
    specs: list[TransformSpec] = []
    for index, item in enumerate(raw):
        where = f"{field}[{index}]"
        if isinstance(item, str):
            specs.append(TransformSpec(name=item))
            continue
        if not isinstance(item, dict) or "name" not in item:
            raise ConfigError(where, "must be a name or an object with a name")
        name, params, version = item["name"], item.get("params", {}), item.get("version", "1")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{where}.name", "must be a non-empty string")
        if not isinstance(params, dict):
            raise ConfigError(f"{where}.params", "must be an object")
        for key, param in params.items():
            if not (isinstance(param, str) or _number(param)):
                raise ConfigError(f"{where}.params", f"{key} must be a string or a number, got {param!r}")
        if not isinstance(version, str):
            raise ConfigError(f"{where}.version", "must be a string")
        specs.append(TransformSpec(name=name, params={str(k): str(v) for k, v in params.items()}, version=version))
    if not any(spec.name == "identity" for spec in specs):
        specs.insert(0, TransformSpec(name="identity"))  # implied baseline
    check_solutions(specs, field)
    return specs


def check_solutions(specs: list[TransformSpec], field: str = "solutions") -> None:
    """Raise ConfigError unless at least one solution is named and no name
    repeats: variants, results rows and deltas are keyed by solution name."""
    if not specs:
        raise ConfigError(field, "must name at least one transform")
    seen: set[str] = set()
    for spec in specs:
        if spec.name in seen:
            raise ConfigError(field, f"solution {spec.name!r} is named more than once")
        seen.add(spec.name)


def check_corpus(corpus: Corpus, archive_dir: str | Path) -> None:
    """Raise ConfigError unless the corpus is non-empty, unique and archived,
    and each page id is one path component."""
    if not corpus.pages:
        raise ConfigError("corpus.pages", "corpus is empty")
    if len(set(corpus.pages)) != len(corpus.pages):
        raise ConfigError("corpus.pages", "page ids must be unique")
    for page_id in corpus.pages:
        problem = page_id_problem(page_id)
        if problem:
            raise ConfigError("corpus.pages", problem)
        if not (Path(archive_dir) / page_id / "manifest.json").is_file():
            raise ConfigError("corpus.pages", f"page {page_id!r} not found in archive")


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
        if not archive.are_group_labels(group_labels):
            raise ConfigError("corpus.group_labels", "must map page ids to label strings")
        corpus = Corpus(
            name=str(corpus_raw.get("name", "inline")),
            pages=[str(p) for p in pages],
            group_labels=dict(group_labels),
        )
    else:
        raise ConfigError("corpus", "must be a corpus name or an inline object")
    check_corpus(corpus, archive_dir)

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


def _read_json(path: str | Path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(what, f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigError(what, f"invalid JSON in {path}: {exc}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(_read_json(path, "config"))


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
    return metrics, similarity.score_graphs(original_graph, variant_graph)


def _skip(skips: list, page_id: str, solution: str, reason) -> None:
    log.warning("skipped (%s, %s): %s", page_id, solution, reason)
    skips.append((page_id, solution, str(reason)))


def run_experiment(config: ExperimentConfig, write_files: bool = True) -> ExperimentResult:
    """Run the pipeline; with write_files, write results.json,
    similarity.json, the report and every variant under out_dir. The
    variants root, out_dir/variants, is emptied first, so it holds this
    run's variants only."""
    out_dir = Path(config.out_dir)
    variants_dir = out_dir / "variants" if write_files else None
    if write_files:
        try:
            shutil.rmtree(variants_dir)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise StorageError(f"cannot empty {variants_dir}: {exc}") from None
        out_dir.mkdir(parents=True, exist_ok=True)

    pagemodel.html_index.cache_clear()
    records: list[tuple[str, str, PageMetrics]] = []
    similarity_table = []
    skips: list[tuple[str, str, str]] = []
    filtered = 0
    for page_id in config.corpus.pages:
        try:
            page = load_page(page_id, config.archive_dir)
            if config.min_page_bytes and page.total_bytes() < config.min_page_bytes:
                filtered += 1
                _skip(skips, page_id, "*", f"below size floor {config.min_page_bytes}")
                continue
            graph = pagemodel.parse_page(page)
        except WasefError as exc:
            _skip(skips, page_id, "*", exc)
            continue
        for spec in config.solutions:
            try:
                metrics, scores = _evaluate_pair(page, graph, spec, config, variants_dir)
            except Exception as exc:
                _skip(skips, page_id, spec.name, exc)
                continue
            records.append((page_id, spec.name, metrics))
            similarity_table.append((page_id, spec.name, scores))
    records.sort(key=lambda r: (r[0], r[1]))
    similarity_table.sort(key=lambda r: (r[0], r[1]))

    snapshot = config.snapshot()
    bundle = build_bundle(
        records, similarity_table, skips, snapshot, snapshot, group_labels=config.corpus.group_labels
    )
    if not records:
        exit_code = 4
    elif len(skips) > filtered:
        exit_code = 3
    else:
        exit_code = 0

    paths: dict[str, Path] = {}
    if write_files:
        paths["results.json"] = write_results(records, out_dir / "results.json")
        paths["similarity.json"] = write_similarity(similarity_table, out_dir / "similarity.json")
        paths.update(report.write_bundle(bundle, out_dir / "report"))
    return ExperimentResult(bundle=bundle, records=records, exit_code=exit_code, paths=paths)


def build_bundle(
    records: list[tuple[str, str, PageMetrics]],
    similarity_table: list[tuple[str, str, SimilarityScores]],
    skips: list[tuple[str, str, str]],
    snapshot: dict,
    id_source,
    baseline: str = "identity",
    group_labels: dict[str, str] | None = None,
) -> ReportBundle:
    """Deltas against the baseline, their summaries, and an experiment id
    that digests the JSON value id_source. Pairs without deltas join skips."""
    deltas, delta_skips = stats.compute_deltas(records, baseline_solution=baseline)
    summaries = stats.summarize_deltas(deltas, group_labels)
    experiment_id = hashlib.sha256(
        json.dumps(id_source, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    return ReportBundle(
        experiment_id=experiment_id,
        config_snapshot=snapshot,
        summaries=summaries,
        similarity_table=similarity_table,
        skip_report=sorted(skips + delta_skips),
        deltas=deltas,
    )


def transform_pages(spec: TransformSpec, page_ids, archive_dir, out_dir):
    """Apply one solution to each page; store each variant and yield it."""
    for page_id in page_ids:
        variant = apply_transform(spec, load_page(page_id, archive_dir))
        store_page(variant.page, out_dir)
        yield variant


def _pairs(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(pair, list) and len(pair) == 2 and all(map(_number, pair)) for pair in value
    )


# Per file: the class a row holds, a check for each field after page_id and
# solution in file order, and defaults for the fields a row may omit.
_TABLES = {
    "results": (
        PageMetrics,
        {**dict.fromkeys((f.name for f in fields(PageMetrics)), _number), "paint_timeline": _pairs},
        {"paint_timeline": []},
    ),
    "similarity": (
        SimilarityScores,
        {
            "structural": _number,
            "functional": lambda value: value is None or _number(value),
            **dict.fromkeys(("text_sim", "image_sim", "element_sim"), _number),
        },
        {"functional": None, "text_sim": 0.0, "image_sim": 0.0, "element_sim": 0.0},
    ),
}


def _rows(table: list[tuple[str, str, object]], what: str) -> list[dict]:
    names = _TABLES[what][1]
    return [{"page_id": p, "solution": s, **{n: getattr(value, n) for n in names}} for p, s, value in table]


def result_rows(records: list[tuple[str, str, PageMetrics]]) -> list[dict]:
    """One results.json row per record, in the order given."""
    return _rows(records, "results")


def similarity_rows(similarity_table: list[tuple[str, str, SimilarityScores]]) -> list[dict]:
    """One similarity.json row per entry, in the order given."""
    return _rows(similarity_table, "similarity")


def write_results(records: list[tuple[str, str, PageMetrics]], path: str | Path) -> Path:
    """One JSON row per (page, solution), sorted, with every metric field."""
    return report.write_json(result_rows(sorted(records, key=lambda r: (r[0], r[1]))), path)


def write_similarity(similarity_table, path: str | Path) -> Path:
    return report.write_json(similarity_rows(sorted(similarity_table, key=lambda r: (r[0], r[1]))), path)


def _read_rows(path: str | Path, what: str) -> list[tuple]:
    """The (page, solution, value) entries of a results.json or
    similarity.json file. Any other content raises ConfigError(what, ...)."""
    cls, checks, defaults = _TABLES[what]
    rows = _read_json(path, what)
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ConfigError(what, f"{path}: must be a JSON list of row objects")
    table = []
    for index, row in enumerate(rows):
        row = {**defaults, **row}
        bad = [key for key in ("page_id", "solution") if not isinstance(row.get(key), str)]
        bad += [key for key, check in checks.items() if key not in row or not check(row[key])]
        if bad:
            raise ConfigError(what, f"{path}: row {index}: {bad[0]!r} is missing or mistyped")
        table.append((row["page_id"], row["solution"], cls(**{key: row[key] for key in checks})))
    return table


def read_results(path: str | Path) -> list[tuple[str, str, PageMetrics]]:
    """The inverse of write_results, in file order."""
    records = _read_rows(path, "results")
    for _, _, metrics in records:
        metrics.paint_timeline = [(t, vc) for t, vc in metrics.paint_timeline]
    return records


def read_similarity(path: str | Path) -> list[tuple[str, str, SimilarityScores]]:
    """The inverse of write_similarity, in file order."""
    return _read_rows(path, "similarity")
