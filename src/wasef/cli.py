"""Command-line interface.

Subcommands: import-har, inspect, transform, serve, evaluate, similarity,
report, run, fixtures. The WASEF_ARCHIVE environment variable supplies a
default for --archive. run, evaluate and report are thin wrappers over the
one pipeline in ``experiment``: run does every stage, evaluate stops after
simulating and writes results.json alone, and report bundles run's files.
similarity prints the row run writes to similarity.json for one pair.
Exit codes: 0 success, 2 configuration error or unreadable input, 3 partial
failure (a page or pair skipped), 4 total failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import experiment, jsscan, pagemodel, report, similarity
from .archive import Corpus, import_har, load_corpus, load_page, store_page
from .errors import ConfigError, WasefError
from .fixtures import make_fixtures
from .replay import ShapingConfig, serve
from .transform import TransformSpec, apply_transform, list_transforms

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


def _corpus(args, archive: str) -> Corpus:
    if args.corpus:
        return load_corpus(args.corpus, archive)
    if args.page:
        return Corpus(name=args.page, pages=[args.page])
    raise ConfigError("page", "pass --page or --corpus")


def cmd_import_har(args) -> int:
    archive = _archive_dir(args)
    try:
        har_bytes = Path(args.har).read_bytes()
    except OSError as exc:
        raise ConfigError("har", f"cannot read {args.har}: {exc}") from None
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
    page_ids = _corpus(args, archive).pages
    spec = TransformSpec(name=args.solution, params=_parse_params(args.param))
    for page_id in page_ids:
        jsscan.index.cache_clear()  # the script cache holds this page's texts alone
        variant = apply_transform(spec, load_page(page_id, archive))
        store_page(variant.page, args.out or archive)
        print(f"{variant.page.page_id} bytes_removed={variant.provenance['bytes_removed']}")
    return 0


def cmd_serve(args) -> int:
    if args.rtt_ms and args.bandwidth is None:
        raise ConfigError("--rtt-ms", "needs --bandwidth: without it shaping is off and no RTT is added")
    try:
        shaping = ShapingConfig(
            downlink_bytes_per_sec=args.bandwidth or 0.0,
            rtt_seconds=args.rtt_ms / 1000.0,
            enabled=args.bandwidth is not None,
        )
    except ValueError as exc:
        raise ConfigError("shaping", str(exc)) from None
    page = load_page(args.page, _archive_dir(args))
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
    corpus = _corpus(args, archive)
    experiment.check_corpus(corpus, archive)
    solutions = [TransformSpec(name=s.strip()) for s in args.solutions.split(",") if s.strip()]
    experiment.check_solutions(solutions)
    config = experiment.ExperimentConfig(
        archive_dir=archive,
        out_dir=str(Path(args.out).parent),
        corpus=corpus,
        solutions=solutions,
        network=experiment.resolve_network(args.network),
        device=experiment.resolve_device(args.device),
    )
    records, exit_code = experiment.evaluate(config)
    experiment.write_results(records, args.out)
    print(f"{len(records)} records written to {args.out}")
    return exit_code


def cmd_similarity(args) -> int:
    archive = _archive_dir(args)
    page = load_page(args.page, archive)
    spec = TransformSpec(name=args.solution, params=_parse_params(args.param))
    variant = apply_transform(spec, page)
    scores = similarity.score_graphs(pagemodel.parse_page(page), pagemodel.parse_page(variant.page))
    print(json.dumps(experiment.similarity_rows([(page.page_id, args.solution, scores)])[0], indent=2))
    return 0


def cmd_report(args) -> int:
    records = experiment.read_results(args.results)
    similarity_table = experiment.read_similarity(args.similarity) if args.similarity else []
    snapshot = {"results": Path(args.results).name, "baseline": args.baseline}
    # The experiment id digests the results rows, not the snapshot.
    bundle = experiment.build_bundle(
        records, similarity_table, [], snapshot, experiment.result_rows(records), args.baseline
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

    p = sub.add_parser("evaluate", help="stop after simulating: write results.json alone; skips exit 3")
    p.add_argument("--archive")
    p.add_argument("--page")
    p.add_argument("--corpus")
    p.add_argument("--solutions", default="identity", help="comma-separated; exactly these are run")
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

    p = sub.add_parser("report", help="build run's CSV/JSON/HTML report bundle from results files")
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
