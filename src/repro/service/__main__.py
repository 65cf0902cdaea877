"""Study service command line: the daemon and its thin client.

Usage::

    python -m repro.service                      # serve on 127.0.0.1:8642
    python -m repro.service serve --port 0 --cache-dir /tmp/cache --store sqlite
    python -m repro.service submit E7 --quick --wait
    python -m repro.service submit my_study.json --priority 5
    python -m repro.service status job-1
    python -m repro.service fetch job-1 --csv
    python -m repro.service stats
    python -m repro.service shutdown

Client subcommands talk to ``$REPRO_SERVICE_URL`` (default
``http://127.0.0.1:8642``); ``--url`` overrides per call.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from repro import knobs
from repro.api.cache import ResultCache
from repro.api.results import ResultTable
from repro.api.scheduler import ExecutionPolicy
from repro.api.store import DEFAULT_SHARDS, STORE_KINDS, make_store
from repro.exceptions import ReproError
from repro.service.client import ServiceClient, ServiceError, default_service_url
from repro.service.daemon import DEFAULT_EXECUTORS, StudyService
from repro.service.http import DEFAULT_PORT, serve


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the study-service daemon, or talk to one.",
    )
    sub = parser.add_subparsers(dest="command")

    serve_p = sub.add_parser("serve", help="start the daemon (the default)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help=f"TCP port (0: ephemeral; default {DEFAULT_PORT})")
    serve_p.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: $REPRO_WORKERS or 1)")
    serve_p.add_argument("--executors", type=int, default=DEFAULT_EXECUTORS,
                         help=f"concurrent studies (default {DEFAULT_EXECUTORS})")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory (default: $REPRO_CACHE_DIR, "
                         "else a throwaway temp dir)")
    serve_p.add_argument("--store", choices=STORE_KINDS, default="sqlite",
                         help="cache store layout (default: sqlite)")
    serve_p.add_argument("--shards", type=int, default=DEFAULT_SHARDS,
                         help="sqlite store shard count")
    serve_p.add_argument("--max-cache-bytes", type=int, default=None,
                         help="LRU-evict the sqlite store beyond this size")
    serve_p.add_argument("--backend", choices=("auto", "agent", "fast"),
                         default=None, help="force one engine for every cell")
    serve_p.add_argument("--chunk-timeout", type=float, default=None,
                         metavar="SECONDS", help="per-chunk deadline")
    serve_p.add_argument("--max-retries", type=int, default=None, metavar="N",
                         help="chunk-level retries (default 2)")

    submit_p = sub.add_parser("submit", help="submit a study")
    submit_p.add_argument("study", help="registered study name or JSON file")
    submit_p.add_argument("--quick", action="store_true",
                          help="reduced grids for registered studies")
    submit_p.add_argument("--seed", type=int, default=0,
                          help="base seed for registered studies")
    submit_p.add_argument("--priority", type=int, default=0,
                          help="queue priority (higher runs first)")
    submit_p.add_argument("--wait", action="store_true",
                          help="block until the job is terminal")
    submit_p.add_argument("--url", default=None)

    status_p = sub.add_parser("status", help="one job's status (or all jobs)")
    status_p.add_argument("job", nargs="?", default=None)
    status_p.add_argument("--url", default=None)

    fetch_p = sub.add_parser("fetch", help="fetch a terminal job's table")
    fetch_p.add_argument("job")
    fetch_p.add_argument("--json", action="store_true",
                         help="full result JSON instead of CSV")
    fetch_p.add_argument("--wait", action="store_true",
                         help="wait for the job to finish first")
    fetch_p.add_argument("--url", default=None)

    stats_p = sub.add_parser("stats", help="service + cache counters")
    stats_p.add_argument("--url", default=None)

    shutdown_p = sub.add_parser("shutdown", help="stop the daemon gracefully")
    shutdown_p.add_argument("--url", default=None)
    return parser


def _build_policy(args: argparse.Namespace) -> ExecutionPolicy | None:
    overrides = {}
    if args.chunk_timeout is not None:
        overrides["chunk_timeout"] = args.chunk_timeout
    if args.max_retries is not None:
        overrides["max_retries"] = args.max_retries
    return ExecutionPolicy(**overrides) if overrides else None


def serve_main(args: argparse.Namespace) -> int:
    cache_dir = args.cache_dir or knobs.cache_dir()
    if not cache_dir:
        cache_dir = tempfile.mkdtemp(prefix="repro-service-cache-")
        print(f"no cache dir configured; using throwaway {cache_dir}")
    store = make_store(
        args.store, cache_dir,
        shards=args.shards, max_bytes=args.max_cache_bytes,
    )
    service = StudyService(
        cache=ResultCache(cache_dir, store=store),
        workers=args.workers,
        executors=args.executors,
        backend=args.backend,
        policy=_build_policy(args),
    )
    server = serve(service, host=args.host, port=args.port)
    # The smoke harness parses this line for the ephemeral port.
    print(f"study service listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    return 0


def _client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(args.url or default_service_url())


def submit_main(args: argparse.Namespace) -> int:
    from repro.api.__main__ import _load_study

    client = _client(args)
    study = _load_study(args.study, args.quick, args.seed)
    snapshot = client.submit(study, priority=args.priority)
    if args.wait:
        snapshot = client.wait(snapshot["job"])
    print(json.dumps(snapshot, indent=2))
    return 0 if snapshot["state"] != "failed" else 1


def status_main(args: argparse.Namespace) -> int:
    client = _client(args)
    payload = client.jobs() if args.job is None else client.status(args.job)
    print(json.dumps(payload, indent=2))
    return 0


def fetch_main(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.wait:
        client.wait(args.job)
    data = client.result(args.job)
    if args.json:
        print(json.dumps(data, indent=2))
        return 0
    if "table" not in data:
        print(f"error: job {args.job} {data.get('state')}: "
              f"{data.get('error')}", file=sys.stderr)
        return 1
    sys.stdout.write(ResultTable(data["table"]).to_csv())
    return 0


def stats_main(args: argparse.Namespace) -> int:
    print(json.dumps(_client(args).stats(), indent=2))
    return 0


def shutdown_main(args: argparse.Namespace) -> int:
    print(json.dumps(_client(args).shutdown(), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Bare `python -m repro.service [--flags]` means serve.
    if not argv or argv[0].startswith("-"):
        argv = ["serve", *argv]
    args = build_parser().parse_args(argv)
    handlers = {
        "serve": serve_main,
        "submit": submit_main,
        "status": status_main,
        "fetch": fetch_main,
        "stats": stats_main,
        "shutdown": shutdown_main,
    }
    try:
        return handlers[args.command](args)
    except (ServiceError, ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
