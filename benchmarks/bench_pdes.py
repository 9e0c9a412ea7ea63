#!/usr/bin/env python
"""PDES speedup-vs-shards benchmark on the garnet_xl grid.

Runs the ``garnet_xl`` scenario (1,000 routers, 100k flows; see
:mod:`repro.pdes.scenarios`) at each requested shard count and reports
wall time, events/second, and speedup relative to the first count.
Every run's merged output must be byte-identical to the reference and
every sharded run must conserve the total event count exactly — a
violation fails the benchmark regardless of the timings.

The speedup column is honest: on a one-core container the fork backend
cannot beat serial (CI gates only determinism and the exact event
counts; the speedup curve is informative there). On a multi-core
machine expect the curve to track core count until the
windows-per-simulated-second overhead dominates.

Usage::

    python benchmarks/bench_pdes.py                     # 1,2,4 shards
    python benchmarks/bench_pdes.py --shards 1,2,4,8
    python benchmarks/bench_pdes.py --update            # record baseline
    python benchmarks/bench_pdes.py --check             # gate vs baseline

``--update`` appends the measurement to the ``speedup_history`` list in
``BENCH_pdes.json`` (the same file whose ``history`` list carries the
``perf_smoke --workload pdes`` throughput baseline). ``--check``
additionally verifies the per-shard event counts against the most
recent recorded entry — exact match required.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

BENCH_FILE = REPO / "BENCH_pdes.json"


def run_counts(scenario: str, seed: int, counts, backend: str, duration):
    from repro.kernel import paused_gc
    from repro.pdes import run_scenario

    reference = None
    rows = []
    for shards in counts:
        try:
            with paused_gc():
                result = run_scenario(
                    scenario, seed=seed, shards=shards, backend=backend,
                    duration=duration,
                )
        finally:
            gc.collect()
        payload = json.dumps(result.merged, sort_keys=True)
        if reference is None:
            reference = (payload, result.total_events)
        else:
            if payload != reference[0]:
                raise SystemExit(
                    f"{scenario} x{shards}: merged output diverged from "
                    f"x{counts[0]} — the PDES determinism contract is broken"
                )
            if result.total_events != reference[1]:
                raise SystemExit(
                    f"{scenario} x{shards}: processed "
                    f"{result.total_events} events vs {reference[1]} at "
                    f"x{counts[0]} — events were lost or duplicated"
                )
        rows.append(result)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="garnet_xl")
    parser.add_argument("--shards", default="1,2,4",
                        help="comma-separated shard counts (first = reference)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--backend", default="auto",
                        choices=["auto", "inline", "fork"])
    parser.add_argument("--update", action="store_true",
                        help="append this measurement to BENCH_pdes.json")
    parser.add_argument("--check", action="store_true",
                        help="fail if per-shard event counts drift from the "
                             "recorded baseline")
    parser.add_argument("--label", default="measurement")
    args = parser.parse_args(argv)

    counts = [int(s) for s in args.shards.split(",") if s.strip()]
    results = run_counts(
        args.scenario, args.seed, counts, args.backend, args.duration
    )

    base_wall = results[0].wall_s
    print(
        f"{'shards':>6s} {'backend':>8s} {'wall s':>8s} {'events/s':>12s} "
        f"{'speedup':>8s} {'windows':>8s} {'boundary':>9s}"
    )
    measured = []
    for r in results:
        speedup = base_wall / r.wall_s if r.wall_s else float("nan")
        print(
            f"{r.n_shards:6d} {r.backend:>8s} {r.wall_s:8.2f} "
            f"{r.total_events / r.wall_s:12,.0f} {speedup:8.2f} "
            f"{r.windows:8d} {sum(r.boundary_messages):9d}"
        )
        measured.append({
            "shards": r.n_shards,
            "backend": r.backend,
            "wall_seconds": round(r.wall_s, 3),
            "speedup": round(speedup, 3),
            "events": r.total_events,
            "per_shard_events": list(r.per_shard_events),
            "windows": r.windows,
            "boundary_messages": sum(r.boundary_messages),
        })
    print(
        f"determinism: all {len(counts)} layouts byte-identical, "
        f"{results[0].total_events} events conserved"
    )

    bench = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else {
        "benchmark": "garnet_xl PDES: shard-count invariance and speedup",
        "history": [],
    }

    status = 0
    if args.check:
        history = bench.get("speedup_history", [])
        if not history:
            print("no speedup baseline in BENCH_pdes.json; run --update")
            return 1
        baseline = history[-1]
        want = {e["shards"]: e["per_shard_events"] for e in baseline["runs"]}
        for m in measured:
            expected = want.get(m["shards"])
            if expected is None:
                continue
            if m["per_shard_events"] != expected:
                print(
                    f"FAIL: x{m['shards']} per-shard events "
                    f"{m['per_shard_events']} != baseline {expected} "
                    f"(from {baseline['label']!r})"
                )
                status = 1
        if status == 0:
            print("OK: per-shard event counts match the recorded baseline")

    if args.update:
        bench.setdefault("speedup_history", []).append({
            "label": args.label,
            "scenario": args.scenario,
            "seed": args.seed,
            "python": platform.python_version(),
            "runs": measured,
        })
        BENCH_FILE.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"recorded in {BENCH_FILE}")

    return status


if __name__ == "__main__":
    sys.exit(main())
