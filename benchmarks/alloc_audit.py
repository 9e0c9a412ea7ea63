#!/usr/bin/env python
"""Allocation audit: tracemalloc over the datapath, per simulator mode.

Runs a short fig1 grid once in packet mode and once in hybrid mode and
reports, for each, tracemalloc's peak traced memory and live-at-end
block counts for the datapath modules (net/transport/kernel/diffserv),
with the heaviest live sites. Hybrid mode replaces the UDP contention
datagrams with a fluid envelope, so the two columns show how much of
the datapath's allocation the per-packet contention stream accounts
for.

Usage::

    python benchmarks/alloc_audit.py            # print the comparison
    python benchmarks/alloc_audit.py --json F   # also write JSON

Numbers move with workload duration and Python version; treat them
as indicative, not a gate. (The gates live in perf_smoke.py:
event-count pins and throughput floors.)
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: Modules whose allocations count as "datapath" for the summary.
DATAPATH_PREFIXES = (
    "repro/net/",
    "repro/transport/",
    "repro/kernel/",
    "repro/diffserv/",
)

DURATION = 4.0


def _run(mode: str):
    from repro.experiments import fig1_tcp_reservation

    tracemalloc.start(10)
    tracemalloc.clear_traces()
    fig1_tcp_reservation.run(
        quick=True, seed=0, duration=DURATION, mode=mode
    )
    _, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()

    stats = snapshot.statistics("lineno")
    datapath = [
        s for s in stats
        if any(p in s.traceback[0].filename for p in DATAPATH_PREFIXES)
    ]
    top = [
        {
            "site": f"{Path(s.traceback[0].filename).name}"
                    f":{s.traceback[0].lineno}",
            "blocks": s.count,
            "kib": round(s.size / 1024, 1),
        }
        for s in sorted(datapath, key=lambda s: s.count, reverse=True)[:6]
    ]

    return {
        "mode": mode,
        "peak_kib": round(peak / 1024, 1),
        "live_blocks_total": sum(s.count for s in stats),
        "live_kib_total": round(sum(s.size for s in stats) / 1024, 1),
        "datapath_live_blocks": sum(s.count for s in datapath),
        "datapath_live_kib": round(
            sum(s.size for s in datapath) / 1024, 1
        ),
        "top_datapath_sites": top,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full comparison as JSON")
    args = parser.parse_args(argv)

    results = [_run("packet"), _run("hybrid")]
    for r in results:
        print(
            f"{r['mode']:>7s}: peak {r['peak_kib']:10.1f} KiB; "
            f"{r['live_blocks_total']:8d} live blocks at end "
            f"({r['live_kib_total']:10.1f} KiB), datapath "
            f"{r['datapath_live_blocks']:8d} "
            f"({r['datapath_live_kib']:8.1f} KiB)"
        )
        for site in r["top_datapath_sites"]:
            print(f"         {site['site']:36s} {site['blocks']:8d} blocks "
                  f"{site['kib']:8.1f} KiB")

    if args.json is not None:
        payload = {"python": platform.python_version(),
                   "duration": DURATION, "results": results}
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
