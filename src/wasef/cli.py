"""Command-line interface.

Subcommands: import-har, inspect, transform, serve, evaluate, similarity,
report, run, fixtures. The WASEF_ARCHIVE environment variable supplies a
default for --archive. Exit codes: 0 success, 2 configuration error,
3 partial failure (skips present), 4 total failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from . import experiment, pagemodel, report, similarity, stats, transform
from .archive import import_har, load_corpus, load_page, store_page
from .errors import ConfigError, WasefError
from .fixtures import make_fixtures
from .loadsim import metrics_from_dict, simulate_load
from .replay import ShapingConfig, serve
from .report import ReportBundle
from .transform import TransformSpec, apply_transform, list_transforms

log = logging.getLogger(__name__)


def _archive_dir(args) -> str:
    archive = getattr(args, "archive", None) or os.environ.get("WASEF_ARCHIVE")
    if not archive:
        raise ConfigError("archive", "pass --archive or set WASEF_ARCHIVE")
    return archive


def _parse_params(pairs: list[str]) -> dict[str, str]:
    params = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError("param", f"expected k=v, got {pair!r}")
        params[key] = value
    return params


def cmd_import_har(args) -> int:
    archive = _archive_dir(args)
    har_bytes = Path(args.har).read_bytes()
    page = import_har(har_bytes, root_url_hint=args.root_url)
    store_page(page, archive)
    print(page.page_id)
    return 0


def cmd_inspect(args) -> int:
    page = load_page(args.page, _archive_dir(args))
    graph = pagemodel.parse_page(page)
    print(json.dumps(pagemodel.graph_to_dict(graph), indent=2))
    return 0


def cmd_transform(args) -> int:
    archive = _archive_dir(args)
    if args.list:
        for name, description, schema in list_transforms():
            params = " ".join(f"[{k}: {v}]" for k, v in schema.items())
            print(f"{name}: {description} {params}".rstrip())
        return 0
    if not args.solution:
        raise ConfigError("solution", "--solution is required")
    if args.corpus:
        page_ids = load_corpus(args.corpus, archive).pages
    elif args.page:
        page_ids = [args.page]
    else:
        raise ConfigError("page", "pass --page or --corpus")
    spec = TransformSpec(name=args.solution, params=_parse_params(args.param))
    out_dir = args.out or archive
    for page_id in page_ids:
        page = load_page(page_id, archive)
        variant = apply_transform(spec, page)
        store_page(variant.page, out_dir)
        print(f"{variant.page.page_id} bytes_removed={variant.provenance['bytes_removed']}")
    return 0


def cmd_serve(args) -> int:
    page = load_page(args.page, _archive_dir(args))
    shaping = ShapingConfig(
        downlink_bytes_per_sec=args.bandwidth or 0.0,
        rtt_seconds=(args.rtt_ms or 0.0) / 1000.0,
        enabled=bool(args.bandwidth),
    )
    server = serve(page, args.bind, shaping)
    print(f"serving {page.page_id} on http://{server.host}:{server.port} "
          f"(shaping={'on' if shaping.enabled else 'off'})", flush=True)
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
        misses = server.miss_log()
        if misses:
            print(f"{len(misses)} misses:", file=sys.stderr)
            for url in misses:
                print(f"  {url}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    archive = _archive_dir(args)
    if args.corpus:
        page_ids = load_corpus(args.corpus, archive).pages
    elif args.page:
        page_ids = [args.page]
    else:
        raise ConfigError("page", "pass --page or --corpus")
    net = experiment.resolve_network(args.network)
    dev = experiment.resolve_device(args.device)
    solutions = [s.strip() for s in args.solutions.split(",") if s.strip()]
    if not solutions:
        raise ConfigError("solutions", "must name at least one transform")
    records = []
    failures = 0
    for page_id in page_ids:
        page = load_page(page_id, archive)
        for name in solutions:
            try:
                variant = apply_transform(TransformSpec(name=name), page)
                graph = pagemodel.parse_page(variant.page)
                metrics = simulate_load(graph, net, dev)
                records.append((page_id, name, metrics))
            except WasefError as exc:
                failures += 1
                log.warning("skipped (%s, %s): %s", page_id, name, exc)
    experiment.write_results(records, args.out)
    print(f"{len(records)} records written to {args.out}")
    if not records:
        return 4
    return 3 if failures else 0


def cmd_similarity(args) -> int:
    archive = _archive_dir(args)
    page = load_page(args.page, archive)
    spec = TransformSpec(name=args.solution, params=_parse_params(args.param))
    variant = apply_transform(spec, page)
    scores = similarity.score_pages(page, variant.page)
    row = {"page_id": page.page_id, "solution": args.solution}
    row.update(similarity.scores_to_dict(scores))
    print(json.dumps(row, indent=2))
    return 0


def cmd_report(args) -> int:
    results_rows = json.loads(Path(args.results).read_text(encoding="utf-8"))
    records = [
        (row["page_id"], row["solution"], metrics_from_dict(row)) for row in results_rows
    ]
    similarity_table = []
    if args.similarity:
        for row in json.loads(Path(args.similarity).read_text(encoding="utf-8")):
            scores = similarity.SimilarityScores(
                structural=row["structural"],
                text_sim=row.get("text_sim", 0.0),
                image_sim=row.get("image_sim", 0.0),
                element_sim=row.get("element_sim", 0.0),
                functional=row.get("functional"),
            )
            similarity_table.append((row["page_id"], row["solution"], scores))
    deltas, skips = stats.compute_deltas(records, baseline_solution=args.baseline)
    summaries = stats.summarize_deltas(deltas)
    experiment_id = hashlib.sha256(
        json.dumps(results_rows, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    bundle = ReportBundle(
        experiment_id=experiment_id,
        config_snapshot={"results": Path(args.results).name, "baseline": args.baseline},
        summaries=summaries,
        similarity_table=similarity_table,
        skip_report=skips,
        deltas=deltas,
    )
    paths = report.write_bundle(bundle, args.out)
    for name in sorted(paths):
        print(paths[name])
    return 0


def cmd_run(args) -> int:
    config = experiment.load_config(args.config)
    result = experiment.run_experiment(config)
    evaluated = {page_id for page_id, _, _ in result.records}
    print(
        f"experiment {result.bundle.experiment_id}: {len(evaluated)} pages, "
        f"{len(result.records)} records, {len(result.bundle.skip_report)} skips"
    )
    for name in sorted(result.paths):
        print(result.paths[name])
    return result.exit_code


def cmd_fixtures(args) -> int:
    corpus = make_fixtures(args.out, args.count, args.seed, profile=args.profile)
    print(f"corpus {corpus.name}: {len(corpus.pages)} pages under {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wasef",
        description="Freeze web pages, transform them, simulate loads, and report deltas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import-har", help="ingest a HAR 1.2 capture into the archive")
    p.add_argument("--har", required=True)
    p.add_argument("--archive")
    p.add_argument("--root-url", dest="root_url")
    p.set_defaults(func=cmd_import_har)

    p = sub.add_parser("inspect", help="print a page's resource graph as JSON")
    p.add_argument("--page", required=True)
    p.add_argument("--archive")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("transform", help="apply a named solution to pages")
    p.add_argument("--archive")
    p.add_argument("--page")
    p.add_argument("--corpus")
    p.add_argument("--solution")
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--out", help="directory for variant pages (default: the archive)")
    p.add_argument("--list", action="store_true", help="list registered transforms")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("serve", help="serve an archived page over HTTP")
    p.add_argument("--page", required=True)
    p.add_argument("--archive")
    p.add_argument("--bind", default="127.0.0.1:8080")
    p.add_argument("--bandwidth", type=float, help="downlink bytes/sec; enables shaping")
    p.add_argument("--rtt-ms", dest="rtt_ms", type=float, default=0.0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("evaluate", help="simulate pages under a network/device profile")
    p.add_argument("--archive")
    p.add_argument("--page")
    p.add_argument("--corpus")
    p.add_argument("--solutions", default="identity")
    p.add_argument("--network", default="3g")
    p.add_argument("--device", default="lowend")
    p.add_argument("--out", default="results.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("similarity", help="score one variant against its original")
    p.add_argument("--archive")
    p.add_argument("--page", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--param", action="append", metavar="K=V")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("report", help="emit CSV/JSON/HTML reports from results files")
    p.add_argument("--results", required=True)
    p.add_argument("--similarity")
    p.add_argument("--baseline", default="identity")
    p.add_argument("--out", default="report")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run", help="run the full pipeline from one config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("fixtures", help="generate a deterministic synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="mixed", choices=["mixed", "js_heavy"])
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WasefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
