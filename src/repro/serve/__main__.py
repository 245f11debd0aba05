"""``python -m repro.serve``: run the wrapper extraction server.

Examples::

    # In-memory registry, demo catalog wrapper, one local shard daemon:
    python -m repro.serve --port 8421 --demo --shards 1

    # Persistent registry (warm-loads previously registered wrappers):
    python -m repro.serve --port 8421 --registry-dir var/wrappers

Then::

    curl -s localhost:8421/healthz
    curl -s -X POST localhost:8421/extract/catalog \\
         -d '{"html": "<table><tr><td>Lamp</td><td>$9.99</td></tr></table>"}'
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.serve.registry import WrapperRegistry
from repro.serve.server import ExtractionServer
from repro.serve.tracing import RequestLog

#: Name under which ``--demo`` registers the reference catalog wrapper.
DEMO_WRAPPER = "catalog"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve registered wrappers over HTTP (asyncio, stdlib only).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8421)
    parser.add_argument(
        "--registry-dir",
        default=None,
        help="persist compiled wrappers here (warm-loaded on startup)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "local shard daemons for evaluation, each a forked process "
            "(0 = inline single shard)"
        ),
    )
    parser.add_argument(
        "--remote-shard",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help=(
            "address of a remote shard daemon (python -m repro.serve.shard); "
            "repeat for each daemon -- overrides --shards"
        ),
    )
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument(
        "--max-delay-ms",
        type=float,
        default=10.0,
        help="micro-batch flush deadline in milliseconds",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="pending-document budget before requests get 503",
    )
    parser.add_argument("--cache-size", type=int, default=512)
    parser.add_argument(
        "--deadline-base-ms",
        type=float,
        default=2000.0,
        help="fixed part of the per-request shard-call deadline",
    )
    parser.add_argument(
        "--deadline-per-mb-ms",
        type=float,
        default=5000.0,
        help="size-proportional part of the deadline (evaluation is linear)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="in-server retries for retryable shard failures",
    )
    parser.add_argument(
        "--quarantine-strikes",
        type=int,
        default=3,
        help="consecutive worker crashes before a document is quarantined (422)",
    )
    parser.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        help="seconds between supervisor health sweeps over the shards",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive shard failures that trip its circuit breaker",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault injection, e.g. "
            "'kill_every=5,delay_every=10,delay_s=0.25' (chaos testing only)"
        ),
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help=f"register the reference catalog wrapper as {DEMO_WRAPPER!r}",
    )
    parser.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable request tracing (/debug/traces, per-stage spans)",
    )
    parser.add_argument(
        "--trace-buffer",
        type=int,
        default=256,
        help="recent traces retained for /debug/traces",
    )
    parser.add_argument(
        "--access-log",
        default="-",
        metavar="PATH",
        help=(
            "structured JSON request log: one line per request with trace "
            "id, stage timings, retries, reroutes; '-' = stderr (default), "
            "'off' disables"
        ),
    )
    return parser


async def _amain(args: argparse.Namespace) -> int:
    # One structured JSON line per event, shared by the server's
    # per-request access log and these startup/shutdown notices --
    # replaces the ad-hoc prints this entrypoint used to emit.
    if args.access_log == "off":
        access_log = None
        boot_log = RequestLog(sys.stderr)
    else:
        access_log = sys.stderr if args.access_log == "-" else args.access_log
        boot_log = RequestLog(access_log)
    registry = WrapperRegistry(args.registry_dir)
    if args.demo:
        from repro.workloads import CATALOG_WRAPPER

        entry = registry.register(
            DEMO_WRAPPER,
            CATALOG_WRAPPER,
            kind="elog",
            patterns=["record", "name", "price"],
        )
        boot_log.log("demo_wrapper_registered", wrapper=entry.key)
    if args.faults:
        boot_log.log("fault_injection_active", spec=args.faults)
    server = ExtractionServer(
        registry,
        host=args.host,
        port=args.port,
        shards=args.shards,
        max_batch=args.max_batch,
        max_delay=args.max_delay_ms / 1000.0,
        max_pending=args.max_pending,
        cache_size=args.cache_size,
        deadline_base=args.deadline_base_ms / 1000.0,
        deadline_per_mb=args.deadline_per_mb_ms / 1000.0,
        max_retries=args.max_retries,
        quarantine_strikes=args.quarantine_strikes,
        health_interval=args.health_interval,
        breaker_threshold=args.breaker_threshold,
        faults=args.faults,
        remote_shards=args.remote_shard,
        tracing=not args.no_tracing,
        trace_buffer=args.trace_buffer,
        access_log=access_log,
    )
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):  # pragma: no cover
            loop.add_signal_handler(signum, stop.set)
    # The serve-smoke CI job waits for this exact line on stdout before
    # sending traffic, so it stays a plain print.
    print(
        f"repro.serve listening on {server.address} "
        f"({len(registry)} wrapper(s), {server.executor.n_shards} shard(s), "
        f"mode={server.executor.mode})",
        flush=True,
    )
    boot_log.log(
        "listening",
        address=server.address,
        wrappers=len(registry),
        shards=server.executor.n_shards,
        mode=server.executor.mode,
        tracing=server.tracer is not None,
    )
    await stop.wait()
    boot_log.log("shutdown", reason="signal")
    await server.stop()
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C fallback
        return 130


if __name__ == "__main__":
    sys.exit(main())
