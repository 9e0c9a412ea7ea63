#!/usr/bin/env python
"""Broker-service wire throughput: journaled admissions/second.

One client drives one :class:`BrokerService` over real localhost TCP
with batched compact-array frames: each reserve batch admits ``batch``
reservations (every one carrying an idempotency key, journaled in both
the broker and service write-ahead logs before its reply), and a
matching cancel batch releases them by reserve-key, so slot tables
stay small and the measured rate is *sustainable*, not a fill-up.

``admissions_per_sec`` counts completed reserve+cancel pairs over the
whole wall time — protocol decode, admission, double journaling,
reply encode, and the release path all included. Target: >= 50k/s on
one core (``--target``).

Usage::

    python benchmarks/bench_broker_service.py                 # measure
    python benchmarks/bench_broker_service.py --check         # gate vs baseline
    python benchmarks/bench_broker_service.py --update        # record baseline

``--check`` fails when admissions/s drops more than ``--tolerance``
(default 0.30, env ``PERF_SMOKE_TOLERANCE``) below the recorded
baseline, or when the absolute ``--target`` (when non-zero) is missed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

BENCH_FILE = REPO / "BENCH_broker.json"
DESCRIPTION = (
    "batched reserve+cancel pairs over localhost TCP, best-of-N, gc off"
)


def build_service():
    from repro.broker_service import BrokerService
    from repro.gara import BandwidthBroker
    from repro.kernel import Simulator
    from repro.net import Network, mbps
    from repro.resilience import Journal

    sim = Simulator(seed=0)
    network = Network(sim)
    a = network.add_host("a")
    b = network.add_host("b")
    network.connect(a, b, bandwidth=mbps(1000.0), delay=0.1e-3)
    network.build_routes()
    broker = BandwidthBroker(network, journal=Journal("broker"))
    # max_pending is sized so the pipelined client never trips load
    # shedding — this bench measures sustained throughput; shedding
    # behaviour has its own tests.
    return BrokerService(
        broker,
        Journal("broker-service"),
        tick=None,
        max_pending=1 << 17,
    )


async def run_once(ops: int, batch: int) -> dict:
    from repro.broker_service.protocol import STATUS_OK, encode_frame, read_frame

    service = build_service()
    await service.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", service.port)

    # Precompute every frame so client-side encode cost stays out of
    # the (server-dominated) loop as much as possible. Reservations
    # carry idempotency keys; cancels resolve by reserve-key and are
    # interleaved directly after their reserve, so the slot table
    # carries at most one live entry — the measured rate is the
    # sustainable steady state, not a fill-up whose admission checks
    # scan an ever-growing table.
    frames = []
    op = 0
    while op < ops:
        n = min(batch, ops - op)
        subs = []
        for i in range(n):
            k = op + i
            subs.append(["rsv", k, f"k{k}", None, "a", "b", 1e6, 0.0, 100.0])
            subs.append(["can", k, None, None, f"k{k}"])
        frames.append((encode_frame(["batch", op, subs, 1]), n))
        op += n

    # Pipelined: the writer streams frames while replies are drained
    # concurrently, so the server never idles waiting for the next
    # frame's round trip — the measured rate is server-bound, not
    # ping-pong-latency-bound.
    async def pump() -> None:
        for frame, _n in frames:
            writer.write(frame)
            await writer.drain()

    ok = err = 0
    started = time.perf_counter()
    pump_task = asyncio.ensure_future(pump())
    for _ in frames:
        reply = await read_frame(reader)
        if reply[1] == STATUS_OK:
            ok += reply[2][0]
            err += reply[2][1]
    await pump_task
    wall = time.perf_counter() - started

    # Conservation is checked against *server* end state, not the
    # summarized replies alone: every reserve journaled and counted,
    # every cancel a counted release, no live slot entries left.
    broker = service.broker
    live = sum(len(t) for t in broker._tables.values())
    admitted = service.admissions
    cancelled = service.cancels
    stats = {
        "ops": ops,
        "replies_ok": ok,
        "replies_err": err,
        "admitted": admitted,
        "cancelled": cancelled,
        "wall_seconds": wall,
        "admissions_per_sec": ops / wall,
        "broker_admissions": broker.admissions,
        "journal_records_broker": len(broker.journal),
        "journal_records_service": len(service.journal),
        "live_entries_after": live,
    }
    writer.close()
    await service.close()
    if admitted != ops or cancelled != ops or err or ok != 2 * ops or live != 0:
        raise SystemExit(
            f"bench invariant broke: admitted={admitted} "
            f"cancelled={cancelled} ok={ok} err={err} live={live} "
            f"expected ops={ops}"
        )
    return stats


def measure(rounds: int, ops: int, batch: int):
    from repro.kernel import paused_gc

    best = None
    for i in range(rounds):
        # GC stays off during the timed run; collecting *between*
        # rounds keeps one round's journals from inflating the next.
        try:
            with paused_gc():
                stats = asyncio.run(run_once(ops, batch))
        finally:
            gc.collect()
        rate = stats["admissions_per_sec"]
        print(
            f"round {i}: {ops} admissions in "
            f"{stats['wall_seconds']:.2f}s ({rate:,.0f}/s)"
        )
        if best is None or rate > best["admissions_per_sec"]:
            best = stats
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=30000,
                        help="reserve+cancel pairs per round (default 30000)")
    parser.add_argument("--batch", type=int, default=256,
                        help="requests per wire frame (default 256)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="runs to take the best of (default 3)")
    parser.add_argument("--check", action="store_true",
                        help="fail if throughput regresses vs the baseline")
    parser.add_argument("--update", action="store_true",
                        help="append this measurement to the baseline file")
    parser.add_argument("--label", default="measurement")
    parser.add_argument("--target", type=float, default=0.0,
                        help="absolute admissions/s floor (0 = skip)")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("PERF_SMOKE_TOLERANCE", "0.30")),
    )
    args = parser.parse_args(argv)

    best = measure(args.rounds, args.ops, args.batch)
    rate = best["admissions_per_sec"]
    print(f"best: {rate:,.0f} admissions/s "
          f"({best['ops']} pairs in {best['wall_seconds']:.2f}s)")

    bench = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else {
        "benchmark": DESCRIPTION,
        "target_admissions_per_sec": 50000,
        "history": [],
    }

    status = 0
    if args.check:
        if not bench["history"]:
            print(f"no baseline recorded in {BENCH_FILE.name}; run --update")
            return 1
        baseline = bench["history"][-1]
        floor = baseline["admissions_per_sec"] * (1.0 - args.tolerance)
        if rate < floor:
            print(
                f"FAIL: {rate:,.0f} admissions/s is below {floor:,.0f} "
                f"({args.tolerance:.0%} under baseline "
                f"{baseline['admissions_per_sec']:,.0f} from "
                f"{baseline['label']!r})"
            )
            status = 1
        else:
            print(
                f"OK: within {args.tolerance:.0%} of baseline "
                f"{baseline['admissions_per_sec']:,.0f} admissions/s"
            )
        if args.target and rate < args.target:
            print(f"FAIL: below absolute target {args.target:,.0f}/s")
            status = 1

    if args.update:
        bench["history"].append({
            "label": args.label,
            "ops": args.ops,
            "batch": args.batch,
            "rounds": args.rounds,
            "best_wall_seconds": round(best["wall_seconds"], 3),
            "admissions_per_sec": round(rate),
        })
        BENCH_FILE.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"recorded in {BENCH_FILE}")

    return status


if __name__ == "__main__":
    sys.exit(main())
