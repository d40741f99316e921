"""The one pipeline: apply each solution to each corpus page, simulate
every variant under one network/device pair, score similarity against the
original, then build delta statistics into a report bundle.

One per-page function (_evaluate_page) loads, size-filters and parses a
page, then per solution transforms, stores (run only), parses, simulates
and scores (run only) the variant. ``wasef run`` (run_experiment) bundles
and writes every file; ``wasef evaluate`` (evaluate) keeps the metrics
alone; ``wasef report`` bundles the files run wrote (read_results,
read_similarity).

Many solutions leave many pages as they are (js-block-thirdparty on a page
with no third-party script, identity always). A variant is unchanged when
it has the page's root URL and exchange keys, in order, and each of its
exchanges holds the page's own body object with the same content type:
everything parse_page reads. An unchanged variant is still stored, but it
is not parsed: it takes the page's own graph, which is simulated and
scored against itself once per page, and each later unchanged solution
gets a copy of those metrics and scores. The output bytes are those of a
fresh evaluation.

Pages are independent, so both map _evaluate_page over the corpus through
one helper (_pair_rows). With more than one usable CPU it runs in a new
pool of forked workers, one per usable CPU (os.sched_getaffinity) and never
more than there are pages, each task a chunk of len(pages) // (4 * workers)
pages or one. The pool takes the pages largest stored manifest first, ties
in corpus order, so that a large page late in the corpus does not keep one
worker busy while the others sit idle. Forking lets workers inherit
transforms registered at run time. With one usable CPU or one page, or
where fork is not offered, the pages run in this process, in corpus order,
and no process is started. Whatever the dispatch order, the parent merges
the rows and logs the skips in corpus order and keeps sorting, bundling and
writing, so every output byte is the same whatever the worker count.

(config, archive) fully determines every output byte. Failures are skips,
each logged at WARNING by the parent as it merges the page's result: a
page that fails to load or parse is skipped under every solution ("*"),
and a (page, solution) pair that raises is skipped alone. The exit code
counts these skips only: 0 for none, 3 for some, 4 when nothing was
evaluated. A page below min_page_bytes is a skip too, but configuration,
not a failure. A pair with no baseline or variant record has no deltas and
joins the skip report in build_bundle.

Each worker takes its pages one at a time under every solution, so the
HTML (pagemodel.html_index) and script (jsscan.index) caches, one per
worker, need hold only one page. The HTML cache is cleared before a run's
pages start, so forked workers start with it empty; the script cache is
emptied before each page, so it holds every text of the current page and
nothing else.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import operator
import os
import shutil
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

from . import archive, jsscan, pagemodel, report, similarity, stats
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
from .transform import TransformSpec, apply_transform, downscale_quality

log = logging.getLogger(__name__)

_PAIR = operator.itemgetter(0, 1)  # (page_id, solution) of a row, the order of every output table


@dataclass
class ExperimentConfig:
    archive_dir: str
    out_dir: str
    corpus: Corpus
    solutions: list[TransformSpec]
    network: NetworkProfile
    device: DeviceProfile
    seed: int = 0
    min_page_bytes: int = 0  # corpus size-filter floor; 0 disables

    def snapshot(self) -> dict:
        """The result-determining configuration. out_dir is excluded: it
        cannot change any output byte."""
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


def _finite(value) -> bool:
    """A number that converts to a finite float: not NaN or an infinity,
    and not an integer too large for a float."""
    try:
        return _number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _profile_number(profile: dict, key: str, field: str, default: float | None = None) -> float:
    """``profile[key]`` as a float. A bool, a string, any other non-number
    or an integer too large for a float is a ConfigError on ``field`` that
    names the key; a missing key without a default raises KeyError."""
    value = profile[key] if default is None else profile.get(key, default)
    if not _number(value):
        raise ConfigError(field, f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(field, f"{key} is too large for a float") from None


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
            and all(map(_finite, coefficients))
        ):
            raise ConfigError(f"{field}.cost_coefficients", "must be a list of two finite numbers")
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
        spec = TransformSpec(name=name, params={str(k): str(v) for k, v in params.items()}, version=version)
        if name == "img-downscale":
            try:
                downscale_quality(spec.params)
            except ValueError as exc:
                raise ConfigError(f"{where}.params", str(exc)) from None
        specs.append(spec)
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
        if archive.manifest_size(archive_dir, page_id) is None:
            raise ConfigError("corpus.pages", f"page {page_id!r} not found in archive")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a config mapping (one JSON file) into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "must be a JSON object")
    for key in ("archive_dir", "out_dir", "corpus", "solutions"):
        if key not in raw:
            raise ConfigError(key, "is required")
    for key in ("archive_dir", "out_dir"):
        # Not str(value): null or a number would name a directory "None" or
        # "7", and an empty out_dir is the working directory, whose
        # variants/ the run would empty.
        if not isinstance(raw[key], str) or not raw[key]:
            raise ConfigError(key, "must be a non-empty string")
    archive_dir = raw["archive_dir"]

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

    seed = raw.get("seed", 0)
    if not _integer(seed):
        raise ConfigError("seed", "must be an integer")
    min_page_bytes = raw.get("min_page_bytes", 0)
    if not _integer(min_page_bytes) or min_page_bytes < 0:
        raise ConfigError("min_page_bytes", "must be a non-negative integer")

    return ExperimentConfig(
        archive_dir=archive_dir,
        out_dir=raw["out_dir"],
        corpus=corpus,
        solutions=_resolve_solutions(raw["solutions"]),
        network=resolve_network(raw.get("network", "3g")),
        device=resolve_device(raw.get("device", "lowend")),
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


class _Skips(list):
    """A run's (page_id, solution, reason) skips, each logged as it is added."""

    below_floor = 0  # size-floor skips: configuration, not failures

    def add(self, page_id: str, solution: str, reason) -> None:
        log.warning("skipped (%s, %s): %s", page_id, solution, reason)
        self.append((page_id, solution, str(reason)))

    def exit_code(self, evaluated: int) -> int:
        """4 when nothing was evaluated, 3 when a page or pair failed, else 0."""
        if not evaluated:
            return 4
        return 3 if len(self) > self.below_floor else 0


def _unchanged(page: ArchivedPage, variant: ArchivedPage) -> bool:
    """Whether variant gives parse_page exactly page's inputs: the same root
    URL, the same exchange keys in the same order, and at each key the same
    body object with the same content type."""
    return (
        variant.root_url == page.root_url
        and len(variant.exchanges) == len(page.exchanges)
        and all(
            key == variant_key and ex.body is variant_ex.body and ex.content_type == variant_ex.content_type
            for (key, ex), (variant_key, variant_ex) in zip(page.exchanges.items(), variant.exchanges.items())
        )
    )


def _evaluate_page(config: ExperimentConfig, full: bool, page_id: str):
    """One page's pairs: load, size-filter and parse the page, then per
    solution transform, store under out_dir/variants (full only), parse,
    simulate and score (full only) the variant.

    An unchanged variant (_unchanged: the page's own root URL, exchange
    keys, body objects and content types, all that parse_page reads) is
    stored but not parsed. The page's graph is simulated and scored against
    itself once, for the first unchanged solution, and every later one gets
    its own copy of those metrics and scores, so no two rows share an
    object. A transform that returns new body objects, such as a subprocess
    transform, takes the full path.

    Returns the (page_id, solution, metrics, scores) rows of the pairs that
    evaluate, in solution order (scores is None unless full); the page's
    (page_id, solution, reason) skips, in the order they arose; and 1 when
    the page fell below the size floor, else 0. Graphs and pages never
    leave it, so a worker sends back only these small values.
    """
    jsscan.index.cache_clear()  # the script cache holds this page's texts alone
    rows, skips = [], []
    try:
        page = load_page(page_id, config.archive_dir)
        if config.min_page_bytes and page.total_bytes() < config.min_page_bytes:
            return rows, [(page_id, "*", f"below size floor {config.min_page_bytes}")], 1
        original = pagemodel.parse_page(page)
    except WasefError as exc:
        return rows, [(page_id, "*", str(exc))], 0
    variants_dir = Path(config.out_dir) / "variants"
    unchanged_result = None  # (metrics, scores) of original against itself
    for spec in config.solutions:
        try:
            variant = apply_transform(spec, page).page
            if full:
                store_page(variant, variants_dir)
            if _unchanged(page, variant):
                if unchanged_result is None:
                    metrics, scores = unchanged_result = (
                        simulate_load(original, config.network, config.device),
                        similarity.score_graphs(original, original) if full else None,
                    )
                else:  # the paint timeline is the one mutable field either holds
                    metrics, scores = unchanged_result
                    metrics = replace(metrics, paint_timeline=list(metrics.paint_timeline))
                    scores = None if scores is None else replace(scores)
            else:
                graph = pagemodel.parse_page(variant)
                del variant  # its bodies need not outlive this pair
                metrics = simulate_load(graph, config.network, config.device)
                scores = similarity.score_graphs(original, graph) if full else None
        except Exception as exc:
            skips.append((page_id, spec.name, str(exc)))
            continue
        rows.append((page_id, spec.name, metrics, scores))
    return rows, skips, 0


def _map_pages(evaluate_page, pages: list[str], archive_dir: str):
    """evaluate_page over pages, results in page order: in a new forked
    pool of min(usable CPUs, pages) workers when that is above 1, each task
    a chunk of max(1, len(pages) // (4 * workers)) pages, else in this
    process. The pool takes the pages largest manifest first, ties in page
    order, so no long page starts last while the other workers sit idle
    (Graham's longest-processing-time rule). An exception a worker raises
    is raised here."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(pages))
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(evaluate_page, pages)
        return
    # Imported here, not at the top: they cost every command that starts no
    # pool (serve, inspect) about 1 MB and 4 ms.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    sizes = [archive.manifest_size(archive_dir, page_id) or 0 for page_id in pages]
    order = sorted(range(len(pages)), key=lambda index: -sizes[index])  # stable: ties keep page order
    results = [None] * len(pages)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        largest_first = pool.map(evaluate_page, [pages[index] for index in order],
                                 chunksize=max(1, len(pages) // (4 * workers)))
        for index, result in zip(order, largest_first):
            results[index] = result
    yield from results


def _pair_rows(config: ExperimentConfig, full: bool, skips: _Skips) -> list[tuple]:
    """The rows of every corpus page's _evaluate_page, in corpus then
    solution order. Each page's skips are added to skips, and so logged,
    here in the calling process as its result is merged."""
    pagemodel.html_index.cache_clear()
    rows = []
    evaluate_page = partial(_evaluate_page, config, full)
    for page_rows, page_skips, below_floor in _map_pages(evaluate_page, config.corpus.pages, config.archive_dir):
        rows += page_rows
        skips.below_floor += below_floor
        for skip in page_skips:
            skips.add(*skip)
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every stage and write results.json, similarity.json, the report
    and every variant under out_dir. The variants root, out_dir/variants,
    is emptied first, so it holds this run's variants only.

    Pages are evaluated in a forked worker pool, one worker per usable CPU
    and at most one per page, in chunks of len(pages) // (4 * workers)
    pages or one, handed out largest stored manifest first; with one usable
    CPU they run in this process. Results are merged, and skips logged, in
    corpus order, and sorting, bundling and writing happen here, so no
    output byte depends on the worker count or the dispatch order."""
    out_dir = Path(config.out_dir)
    variants_dir = out_dir / "variants"
    try:
        shutil.rmtree(variants_dir)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise StorageError(f"cannot empty {variants_dir}: {exc}") from None
    out_dir.mkdir(parents=True, exist_ok=True)

    skips = _Skips()
    rows = _pair_rows(config, True, skips)
    records = sorted(((page_id, solution, metrics) for page_id, solution, metrics, _ in rows), key=_PAIR)
    similarity_table = sorted(((page_id, solution, scores) for page_id, solution, _, scores in rows), key=_PAIR)

    snapshot = config.snapshot()
    bundle = build_bundle(
        records, similarity_table, skips, snapshot, snapshot, group_labels=config.corpus.group_labels
    )
    paths = {
        "results.json": write_results(records, out_dir / "results.json"),
        "similarity.json": write_similarity(similarity_table, out_dir / "similarity.json"),
        **report.write_bundle(bundle, out_dir / "report"),
    }
    return ExperimentResult(bundle=bundle, records=records, exit_code=skips.exit_code(len(records)), paths=paths)


def evaluate(config: ExperimentConfig) -> tuple[list[tuple[str, str, PageMetrics]], int]:
    """The metrics of every pair that evaluates, in corpus then solution
    order, and the exit code. Nothing is stored, scored or written. Pages
    are evaluated as run_experiment evaluates them, in a forked worker pool
    when more than one CPU is usable; the records do not depend on the
    worker count."""
    skips = _Skips()
    records = [(page_id, solution, metrics) for page_id, solution, metrics, _ in _pair_rows(config, False, skips)]
    return records, skips.exit_code(len(records))


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


def _pairs(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(pair, list) and len(pair) == 2 and all(map(_finite, pair)) for pair in value
    )


# Per file: the class a row holds, a check for each field after page_id and
# solution in file order, and defaults for the fields a row may omit.
_TABLES = {
    "results": (
        PageMetrics,
        {**dict.fromkeys((f.name for f in fields(PageMetrics)), _finite), "paint_timeline": _pairs},
        {"paint_timeline": []},
    ),
    "similarity": (
        SimilarityScores,
        {
            "structural": _finite,
            "functional": lambda value: value is None or _finite(value),
            **dict.fromkeys(("text_sim", "image_sim", "element_sim"), _finite),
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
    return report.write_json(result_rows(sorted(records, key=_PAIR)), path)


def write_similarity(similarity_table, path: str | Path) -> Path:
    return report.write_json(similarity_rows(sorted(similarity_table, key=_PAIR)), path)


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
            raise ConfigError(what, f"{path}: row {index}: {bad[0]!r} is missing, mistyped or not finite")
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
