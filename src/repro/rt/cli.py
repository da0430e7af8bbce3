"""``python -m repro rt`` — run the live runtime from the command line.

Backends:

* ``--net none`` (default) — the in-process asyncio backend
  (:class:`~repro.rt.system.AsyncMirroredServer`).
* ``--net tcp`` — real localhost sockets speaking the binary wire
  format (:mod:`repro.rt.net`); with ``--processes`` the mirrors and
  the thin client run as separate OS processes (the deployment shape),
  without it everything shares one event loop but still crosses TCP.
* ``--net tcp --shards N`` — the sharded multi-central cluster
  (:mod:`repro.rt.shards`): the flight keyspace partitioned over N
  central shards behind an ingress router; with ``--processes`` each
  shard (central + its mirrors) is a real OS process.

Prints a JSON summary to stdout (state digests shortened to a
fixed-length hash) and exits 1 when the run failed a correctness check:
replicas inconsistent, fewer requests served than issued, or a handoff
transfer started but never completed.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence

from ..ois.flightdata import FlightDataConfig, generate_script

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro rt",
        description="Run the live mirrored server (asyncio or TCP backend).",
    )
    parser.add_argument(
        "--net", choices=("none", "tcp"), default="none",
        help="transport backend: in-process queues (none) or real sockets (tcp)",
    )
    parser.add_argument(
        "--processes", action="store_true",
        help="with --net tcp: run mirrors and client as separate OS processes",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="with --net tcp: partition the keyspace over N central "
             "shards behind an ingress router (0 = unsharded)",
    )
    parser.add_argument(
        "--strategy", choices=("hash", "airport"), default="hash",
        help="with --shards: keyspace partitioning strategy "
             "(consistent hashing or per-airport ranges)",
    )
    parser.add_argument(
        "--handoffs", type=int, default=0,
        help="workload: airport-handoff events that can move a flight "
             "between shards (default 0)",
    )
    parser.add_argument("--mirrors", type=int, default=2,
                        help="number of mirror sites (default 2)")
    parser.add_argument("--requests", type=int, default=8,
                        help="thin-client initial-state requests (default 8)")
    parser.add_argument("--flights", type=int, default=20,
                        help="workload: number of flights (default 20)")
    parser.add_argument("--positions", type=int, default=50,
                        help="workload: position fixes per flight (default 50)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--subscribers", type=int, default=0,
        help="attach N push subscribers with flight-scoped predicates "
             "(round-robin over the workload's flights; default 0)",
    )
    parser.add_argument(
        "--loop", choices=("asyncio", "uvloop"), default="asyncio",
        help="event-loop implementation; uvloop is opportunistic and "
             "falls back to the stdlib loop when not installed",
    )
    return parser


def _digest_hash(digest: Any) -> str:
    """Fixed-length stand-in for a full flight-state digest.  Tuples and
    lists hash alike, so single-process and ``--processes`` runs (whose
    digests cross a JSON file) print the same hash for the same state."""
    blob = json.dumps(digest, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _compact(value: Any) -> Any:
    """Replace every ``*digest`` field by its hash and every ``*digests``
    list by a list of hashes, in nested dicts and lists too."""
    if isinstance(value, list):
        return [_compact(item) for item in value]
    if not isinstance(value, dict):
        return value
    out: Dict[str, Any] = {}
    for key, item in value.items():
        if key.endswith("digest"):
            out[key] = _digest_hash(item)
        elif key.endswith("digests"):
            out[key] = [_digest_hash(d) for d in item]
        else:
            out[key] = _compact(item)
    return out


def _failures(payload: Dict[str, Any], issued: int) -> List[str]:
    """Why the run failed its correctness checks (empty: it passed)."""
    failures = []
    if not payload.get("replicas_consistent", False):
        failures.append("replicas inconsistent")
    client = payload.get("client")
    if isinstance(client, dict):  # --processes: the client's own counts
        issued = client.get("requests", issued)
        served = client.get("responses", 0)
    else:
        served = payload.get("requests_served", 0)
    if served < issued:
        failures.append(f"{served} of {issued} requests served")
    started = payload.get("transfers_started", 0)
    completed = payload.get("transfers_completed", 0)
    if started != completed:
        failures.append(
            f"{completed} of {started} handoff transfers completed"
        )
    return failures


def _report(payload: Dict[str, Any], issued: int) -> int:
    """Print the JSON summary; exit status 1 if a check failed."""
    print(json.dumps(_compact(payload), indent=2, default=list))
    failures = _failures(payload, issued)
    for failure in failures:
        print(f"rt: FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(list(argv) if argv is not None else None)
    if args.mirrors < 0 or args.requests < 0:
        raise SystemExit("--mirrors and --requests must be >= 0")
    if args.shards < 0 or args.handoffs < 0:
        raise SystemExit("--shards and --handoffs must be >= 0")
    if args.shards and args.net != "tcp":
        raise SystemExit("--shards requires --net tcp")
    if args.subscribers < 0:
        raise SystemExit("--subscribers must be >= 0")
    if args.subscribers and args.net != "tcp":
        raise SystemExit("--subscribers requires --net tcp")
    if args.subscribers and args.processes:
        raise SystemExit("--subscribers is not plumbed through --processes")
    from .net import install_event_loop

    loop_impl = install_event_loop(args.loop)
    script = generate_script(
        FlightDataConfig(
            n_flights=args.flights,
            positions_per_flight=args.positions,
            handoffs=args.handoffs,
            seed=args.seed,
        )
    )
    request_times: List[float] = [0.0] * args.requests
    subscribers: List[tuple] = []
    if args.subscribers:
        from ..sub.predicate import ByFlight

        flights = sorted({se.event.key for se in script.fresh_events()})
        subscribers = [
            (f"sub-{i}", ByFlight(flights[i % len(flights)]))
            for i in range(args.subscribers)
        ]

    if args.shards:
        from .shards import ShardProcessRunner, run_sharded_scenario

        if args.processes:
            result = ShardProcessRunner(
                n_shards=args.shards,
                n_mirrors=args.mirrors,
                strategy=args.strategy,
                script=script,
                n_requests=args.requests,
            ).run()
            result["event_loop"] = loop_impl
            return _report(result, args.requests)
        request_keys = sorted({se.event.key for se in script.fresh_events()})
        summary = asyncio.run(
            run_sharded_scenario(
                script=script,
                n_shards=args.shards,
                n_mirrors=args.mirrors,
                strategy=args.strategy,
                request_keys=request_keys[: args.requests],
                subscriptions=subscribers,
            )
        )
        payload = asdict(summary)
        payload.pop("shard_map", None)
        payload["backend"] = "tcp-sharded(single-process)"
        payload["event_loop"] = loop_impl
        return _report(payload, len(request_keys[: args.requests]))

    if args.net == "tcp" and args.processes:
        from .net import NetProcessRunner

        result = NetProcessRunner(
            n_mirrors=args.mirrors, n_requests=args.requests, script=script
        ).run()
        result["event_loop"] = loop_impl
        return _report(result, args.requests)

    if args.net == "tcp":
        from .net import run_net_scenario

        summary = asyncio.run(
            run_net_scenario(
                script=script,
                n_mirrors=args.mirrors,
                request_times=request_times,
                subscribers=subscribers,
            )
        )
        # the matched events do not serialise: report how many arrived
        for result in summary.subscriber_results:
            result["events"] = len(result["events"])
        payload = asdict(summary)
        payload["backend"] = "tcp(single-process)"
        payload["event_loop"] = loop_impl
        payload["replicas_consistent"] = summary.replicas_consistent
        payload["events_per_second"] = (
            summary.events_in / summary.wall_seconds
            if summary.wall_seconds > 0
            else 0.0
        )
        return _report(payload, args.requests)

    from .system import AsyncMirroredServer

    summary = asyncio.run(
        AsyncMirroredServer(n_mirrors=args.mirrors).run(
            script, request_times=request_times
        )
    )
    payload = asdict(summary)
    payload["backend"] = "asyncio"
    payload["event_loop"] = loop_impl
    payload["replicas_consistent"] = summary.replicas_consistent
    return _report(payload, args.requests)
