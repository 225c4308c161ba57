"""``python -m repro.server`` — run the similarity server from the shell.

Serves an empty fleet by default; ``--demo N`` pre-loads a seeded synthetic
corpus so the endpoints answer something interesting out of the box, and
``--recover DIR`` starts from a directory written by ``/admin/persist``.
SIGTERM / SIGINT trigger a graceful drain before exit.
"""

from __future__ import annotations

import argparse
import asyncio
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve similarity queries over HTTP/JSON.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8042,
                        help="bind port, 0 for ephemeral (default: 8042)")
    parser.add_argument("--shards", type=int, default=4,
                        help="number of serving shards (default: 4)")
    parser.add_argument("--measure", default="ruzicka",
                        help="similarity measure name (default: ruzicka)")
    parser.add_argument("--demo", type=int, default=0, metavar="N",
                        help="pre-load N seeded synthetic multisets")
    parser.add_argument("--recover", default=None, metavar="DIR",
                        help="recover the fleet from a persisted directory")
    parser.add_argument("--persist-on-shutdown", default=None, metavar="DIR",
                        help="persist every shard to DIR during drain")
    parser.add_argument("--replication", type=int, default=1, metavar="N",
                        help="replicas per shard; >= 2 survives the loss "
                             "of a replica (default: 1)")
    parser.add_argument("--chaos-latency", type=float, default=0.0,
                        metavar="SECONDS",
                        help="inject this much seeded latency into every "
                             "replica call (default: 0)")
    parser.add_argument("--request-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-request deadline; late answers fail with "
                             "504 (default: none)")
    parser.add_argument("--health-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="period of the replica health-check loop "
                             "(default: off)")
    return parser


def build_app(args: argparse.Namespace):
    """The configured app for parsed CLI arguments (import-light)."""
    from repro.server.app import ServerConfig, SimilarityServerApp
    from repro.serving.service import ReplicatedSimilarityService

    factory = None
    if args.chaos_latency > 0:
        from repro.resilience.faults import FaultPolicy

        def factory(shard, replica):
            return FaultPolicy(seed=shard * 97 + replica,
                               latency_seconds=args.chaos_latency)

    if args.recover:
        service = ReplicatedSimilarityService.recover(
            args.recover, replication_factor=args.replication,
            fault_policy_factory=factory)
    else:
        service = ReplicatedSimilarityService(
            args.measure, args.shards, replication_factor=args.replication,
            fault_policy_factory=factory)
    if args.demo > 0:
        from repro.datasets.ip_cookie import (
            generate_ip_cookie_dataset,
            small_dataset_config,
        )

        dataset = generate_ip_cookie_dataset(small_dataset_config())
        service.bulk_load(dataset.multisets[:args.demo])
    config = ServerConfig(
        persist_on_shutdown=args.persist_on_shutdown,
        request_timeout_seconds=args.request_timeout,
        health_check_interval_seconds=args.health_interval)
    return SimilarityServerApp(service, config=config)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    app = build_app(args)
    from repro.server.http import serve_forever

    def announce(host: str, port: int) -> None:
        print(f"repro.server listening on http://{host}:{port} "
              f"(measure={app.service.measure.name}, "
              f"shards={app.service.num_shards}, "
              f"replication={app.service.replication_factor}, "
              f"indexed={len(app.service)})", flush=True)

    try:
        asyncio.run(serve_forever(app, host=args.host, port=args.port,
                                  ready=announce))
    except KeyboardInterrupt:
        pass
    print("repro.server drained and stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
