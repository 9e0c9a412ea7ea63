#!/usr/bin/env python
"""Datapath-throughput smoke checks: events/second on fixed workloads.

Each workload runs ``--rounds`` times with GC suspended; the best and
the median wall times are reported as events/second. The event count
is gathered by instrumenting ``Simulator.__init__`` so every simulator
built by the workload is tallied — a workload's event count is
deterministic, so any change in it is itself a red flag (and is
checked against the recorded baseline).

Workloads (``--workload``):

* ``kernel`` (default) — fig1 ``--quick``, the kernel's reference
  workload (one shaped TCP stream against UDP contention, ~900k
  events); baseline in ``BENCH_kernel.json``.
* ``aqm`` — one oversubscribed table1_aqm cell in ``wred+ecn`` mode,
  exercising the three-color markers, the WRED'd DRR band, and the
  RFC 3168 ECN feedback loop end to end; baseline in
  ``BENCH_aqm.json``.
* ``aqm-codel`` — the matching table1_l4s cell in ``codel`` mode:
  the sojourn-stamped datapath, the dequeue-time drop/mark machinery
  behind the peek contract, and CE marks feeding RFC 3168 senders;
  baseline in ``BENCH_aqm_codel.json``.
* ``adaptation`` — the fig_adaptation adaptive cell: the SLO monitor's
  windowed quantiles, the K-of-N vote, and the renegotiation state
  machine riding a broker crash/restart; baseline in
  ``BENCH_adaptation.json``.
* ``hybrid`` — fig1 at 60 s in ``Simulator(mode="hybrid")`` (burst
  drain + fluid UDP contention) followed by the packet-mode reference
  run, asserting the hybrid Fig 1 statistics stay within 1% of packet
  mode (the fidelity gate) and reporting *effective* events/second
  (processed + credited); baseline in ``BENCH_hybrid.json``.
* ``pdes`` — the ``garnet_xl`` grid (1,000 routers, 100k flows) run
  2-sharded through the conservative PDES layer (inline backend, so
  both shard simulators are measured in-process); the baseline in
  ``BENCH_pdes.json`` additionally pins the per-shard event counts,
  window count, and boundary-message total exactly — any drift means
  the partition, the lookahead, or the boundary protocol changed.

Usage::

    python benchmarks/perf_smoke.py                  # measure and print
    python benchmarks/perf_smoke.py --check          # exit 1 on regression
    python benchmarks/perf_smoke.py --update         # append to baseline file
    python benchmarks/perf_smoke.py --workload aqm --check
    python benchmarks/perf_smoke.py --profile        # per-callback-site cost

``--check`` compares against the most recent entry in the workload's
baseline file and fails when throughput drops below ``(1 -
tolerance)`` of it, or when the event count drifts at all. Throughput
gates on the *median* events/second when the baseline entry records
one (best-of-N is noisy on a 1-core container); older entries without
a median fall back to the recorded best-based figure — history is
migrated on the next ``--update``, never re-pinned in place. The
default tolerance is 0.30 (a >30% regression fails); override with
``--tolerance`` or the ``PERF_SMOKE_TOLERANCE`` environment variable
(CI machines of very different speed should instead refresh the
baseline with --update).

``--profile`` wires the :mod:`repro.telemetry` event-loop profiler
into one run and prints the per-callback-site wall-time table
(heaviest first); ``--profile-out FILE`` writes the full JSON
snapshot. Profiling adds per-event overhead, so it refuses to combine
with ``--check``/``--update``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: Duration and tolerance of the hybrid-vs-packet fidelity gate. 60 s
#: is the shortest horizon where TCP trajectory chaos averages out
#: below the bound (at the 12 s quick grid, µs-level perturbations
#: alone move the mean by ~2%; see INTERNALS.md "Hybrid mode:
#: burst drain & fluid fidelity").
HYBRID_EQUIV_DURATION = 60.0
HYBRID_EQUIV_TOLERANCE = 0.01


def _run_kernel():
    from repro.experiments import fig1_tcp_reservation

    fig1_tcp_reservation.run(quick=True, seed=0)


def _run_aqm():
    from repro.experiments import table1_aqm
    from repro.experiments.table1_burstiness import NORMAL_DEPTH_DIVISOR

    cell = table1_aqm.measure_cell(
        bandwidth_kbps=1600.0,
        fps=1.0,
        bucket_divisor=NORMAL_DEPTH_DIVISOR,
        mode="wred+ecn",
        seed=0,
        duration=5.0,
    )
    # The cell must actually exercise the marking path — a silent
    # config drift that stops CE marks would turn this benchmark into
    # a plain priority-queue measurement.
    if cell["ecn_marks"] <= 0:
        raise SystemExit(
            f"aqm workload produced no ECN marks ({cell!r}); "
            "the WRED+ECN datapath is not being exercised"
        )


def _run_aqm_codel():
    from repro.experiments import table1_l4s
    from repro.experiments.table1_burstiness import NORMAL_DEPTH_DIVISOR

    cell = table1_l4s.measure_cell(
        bandwidth_kbps=1600.0,
        fps=1.0,
        bucket_divisor=NORMAL_DEPTH_DIVISOR,
        mode="codel",
        seed=0,
        duration=5.0,
    )
    # Same guard as the aqm workload: the CoDel band must be marking
    # (its actions ride the ECN path here), and the sojourn accounting
    # that feeds queue_delay_ms must be live.
    if cell["ecn_marks"] <= 0:
        raise SystemExit(
            f"aqm-codel workload produced no ECN marks ({cell!r}); "
            "the CoDel datapath is not being exercised"
        )
    if cell["queue_delay_ms"] <= 0.0:
        raise SystemExit(
            f"aqm-codel workload reported no queue delay ({cell!r}); "
            "sojourn accounting is not being exercised"
        )


def _run_adaptation():
    from repro.experiments import fig_adaptation

    cell = fig_adaptation.measure_cell("adaptive", seed=0, duration=20.0)
    # The control loop must actually close: a silent config drift that
    # never trips the K-of-N vote (or never reaches the broker) would
    # turn this into a plain streaming benchmark.
    if cell["renegotiations"] <= 0:
        raise SystemExit(
            f"adaptation workload performed no renegotiations ({cell!r}); "
            "the SLO control loop is not being exercised"
        )
    if cell["broker_retries"] <= 0:
        raise SystemExit(
            f"adaptation workload saw no broker retries ({cell!r}); "
            "the crash/restart no longer lands mid-renegotiation"
        )


def _run_hybrid():
    from repro.experiments import fig1_tcp_reservation

    hybrid = fig1_tcp_reservation.run(
        quick=True, seed=0, duration=HYBRID_EQUIV_DURATION, mode="hybrid"
    )
    if hybrid.extra["events_credited"] <= 0:
        raise SystemExit(
            "hybrid workload credited no events; the fluid background "
            "engine is not running"
        )
    # The fidelity gate: the packet-mode reference run of the same
    # grid, compared on trajectory-robust statistics (time-averaged
    # bandwidth and total delivered volume — per-bin curves diverge by
    # construction: TCP trajectories are chaotic under µs-level
    # perturbations, so only averages are meaningful).
    packet = fig1_tcp_reservation.run(
        quick=True, seed=0, duration=HYBRID_EQUIV_DURATION, mode="packet"
    )
    checks = {
        "mean_kbps": (packet.extra["mean_kbps"], hybrid.extra["mean_kbps"]),
        "delivered": (
            sum(row[1] for row in packet.rows),
            sum(row[1] for row in hybrid.rows),
        ),
    }
    for name, (ref, got) in checks.items():
        err = abs(got - ref) / ref if ref else 0.0
        print(
            f"hybrid fidelity: {name} packet={ref:.1f} hybrid={got:.1f} "
            f"error={err:.3%} (bound {HYBRID_EQUIV_TOLERANCE:.0%})"
        )
        if err > HYBRID_EQUIV_TOLERANCE:
            raise SystemExit(
                f"hybrid workload {name} diverged {err:.3%} from packet "
                f"mode (bound {HYBRID_EQUIV_TOLERANCE:.0%})"
            )


def _run_pdes():
    from repro.pdes import run_scenario

    result = run_scenario("garnet_xl", seed=0, shards=2, backend="inline")
    if sum(result.per_shard_events) != result.total_events:
        raise SystemExit(
            f"pdes workload lost events: shards {result.per_shard_events} "
            f"vs total {result.total_events}"
        )
    if min(result.per_shard_events) <= 0:
        raise SystemExit(
            f"pdes workload left a shard idle ({result.per_shard_events}); "
            "the partition is degenerate"
        )
    if sum(result.boundary_messages) <= 0:
        raise SystemExit(
            "pdes workload exchanged no boundary messages; the cut is "
            "not being exercised"
        )
    return {
        "per_shard_events": list(result.per_shard_events),
        "windows": result.windows,
        "boundary_messages": sum(result.boundary_messages),
    }


#: name -> (description line for the baseline file, baseline file, fn)
WORKLOADS = {
    "kernel": (
        "fig1 --quick --seed 0 wall time, best-of-N, gc off",
        REPO / "BENCH_kernel.json",
        _run_kernel,
    ),
    "aqm": (
        "table1_aqm cell 1600/1fps wred+ecn wall time, best-of-N, gc off",
        REPO / "BENCH_aqm.json",
        _run_aqm,
    ),
    "aqm-codel": (
        "table1_l4s cell 1600/1fps codel wall time, best-of-N, gc off",
        REPO / "BENCH_aqm_codel.json",
        _run_aqm_codel,
    ),
    "adaptation": (
        "fig_adaptation adaptive cell 20s wall time, best-of-N, gc off",
        REPO / "BENCH_adaptation.json",
        _run_adaptation,
    ),
    "hybrid": (
        "fig1 60s hybrid mode + packet reference with 1% fidelity gate, "
        "gc off",
        REPO / "BENCH_hybrid.json",
        _run_hybrid,
    ),
    "pdes": (
        "garnet_xl 2-shard inline PDES wall time + exact shard pins, gc off",
        REPO / "BENCH_pdes.json",
        _run_pdes,
    ),
}


def measure_once(workload_fn):
    """One workload run; returns (events, credited, wall_seconds,
    pinned). ``pinned`` is the workload's optional dict of exact-match
    values (e.g. the pdes per-shard event counts), None otherwise."""
    from repro.kernel import simulator as sim_mod

    sims = []
    orig_init = sim_mod.Simulator.__init__

    def tracking_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        sims.append(self)

    sim_mod.Simulator.__init__ = tracking_init
    gc.disable()
    try:
        started = time.perf_counter()
        pinned = workload_fn()
        wall = time.perf_counter() - started
    finally:
        gc.enable()
        gc.collect()
        sim_mod.Simulator.__init__ = orig_init
    return (
        sum(s.events_processed for s in sims),
        sum(s.events_credited for s in sims),
        wall,
        pinned,
    )


def measure(rounds: int, workload_fn):
    """Run ``rounds`` times; returns
    (events, credited, best_wall, median_wall, pinned)."""
    events = credited = pinned = None
    walls = []
    for i in range(rounds):
        n, c, wall, p = measure_once(workload_fn)
        if events is None:
            events, credited, pinned = n, c, p
        elif (n, c) != (events, credited):
            raise SystemExit(
                f"nondeterministic event count: round {i} processed "
                f"{n} (+{c} credited), round 0 processed {events} "
                f"(+{credited} credited)"
            )
        elif p != pinned:
            raise SystemExit(
                f"nondeterministic workload pins: round {i} produced "
                f"{p!r}, round 0 produced {pinned!r}"
            )
        walls.append(wall)
        effective = "" if not c else (
            f", {(n + c) / wall:,.0f} effective ev/s"
        )
        print(f"round {i}: {n} events in {wall:.2f}s "
              f"({n / wall:,.0f} events/s{effective})")
    return events, credited, min(walls), statistics.median(walls), pinned


def _baseline_floor(baseline: dict, tolerance: float):
    """(metric name, gate floor) for one history entry — median-based
    when the entry records it, legacy best-based otherwise."""
    eps = baseline.get("median_events_per_sec")
    if eps is not None:
        return "median", eps * (1.0 - tolerance)
    return "best", baseline["events_per_sec"] * (1.0 - tolerance)


def _profile(workload_fn, out: Path | None) -> int:
    """One profiled run: per-callback-site wall time, heaviest first."""
    import repro.telemetry as telemetry

    tel = telemetry.Telemetry(profile=True)
    telemetry.install(tel)
    gc.disable()
    try:
        workload_fn()
    finally:
        gc.enable()
        gc.collect()
        for profiler in tel._profilers:
            profiler.stop()
        telemetry.uninstall()
    if not tel._profilers:
        print("no simulator attached a profiler; nothing to report")
        return 1
    snapshots = [p.snapshot() for p in tel._profilers]
    for i, snap in enumerate(snapshots):
        print(
            f"\nsim {i}: {snap['events']} events, "
            f"{snap['wall_seconds']:.2f}s in-loop "
            f"({snap['events_per_second']:,.0f} events/s), "
            f"heap depth mean {snap['heap_depth_mean']:.1f} "
            f"max {snap['heap_depth_max']}"
        )
        print(f"{'call site':58s} {'calls':>9s} {'wall s':>8s} {'mean µs':>8s}")
        for name, site in snap["call_sites"].items():
            print(
                f"{name[:58]:58s} {site['calls']:9d} "
                f"{site['wall_seconds']:8.3f} {site['mean_us']:8.2f}"
            )
    if out is not None:
        payload = {
            "python": platform.python_version(),
            "profiles": snapshots,
        }
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="kernel",
                        help="which datapath to measure (default kernel)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="runs to take best/median of (default 5)")
    parser.add_argument("--check", action="store_true",
                        help="fail if throughput regresses vs the baseline")
    parser.add_argument("--update", action="store_true",
                        help="append this measurement to the baseline file")
    parser.add_argument("--label", default="measurement",
                        help="history label for --update")
    parser.add_argument("--profile", action="store_true",
                        help="one profiled run: per-callback-site wall time")
    parser.add_argument("--profile-out", type=Path, default=None,
                        help="write the --profile JSON snapshot here")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("PERF_SMOKE_TOLERANCE", "0.30")),
        help="allowed fractional drop vs baseline for --check "
             "(default 0.30, env PERF_SMOKE_TOLERANCE)",
    )
    args = parser.parse_args(argv)

    description, bench_file, workload_fn = WORKLOADS[args.workload]

    if args.profile:
        if args.check or args.update:
            parser.error(
                "--profile adds per-event overhead; run it without "
                "--check/--update"
            )
        return _profile(workload_fn, args.profile_out)

    events, credited, best, median, pinned = measure(args.rounds, workload_fn)
    best_eps = events / best
    median_eps = events / median
    line = (
        f"best: {events} events in {best:.2f}s ({best_eps:,.0f} events/s); "
        f"median {median:.2f}s ({median_eps:,.0f} events/s)"
    )
    if credited:
        line += (
            f"; +{credited} credited -> "
            f"{(events + credited) / median:,.0f} effective ev/s (median)"
        )
    print(line)

    bench = json.loads(bench_file.read_text()) if bench_file.exists() else {
        "benchmark": description,
        "history": [],
    }

    status = 0
    if args.check:
        if not bench["history"]:
            print(f"no baseline recorded in {bench_file.name}; run --update")
            return 1
        baseline = bench["history"][-1]
        if events != baseline["events"]:
            print(
                f"FAIL: event count changed: {events} vs baseline "
                f"{baseline['events']} — the workload itself drifted"
            )
            status = 1
        baseline_credited = baseline.get("events_credited")
        if baseline_credited is not None and credited != baseline_credited:
            print(
                f"FAIL: credited event count changed: {credited} vs "
                f"baseline {baseline_credited} — the burst/fluid "
                f"shortcuts drifted"
            )
            status = 1
        baseline_pinned = baseline.get("pinned")
        if baseline_pinned is not None and pinned != baseline_pinned:
            print(
                f"FAIL: pinned workload values changed:\n"
                f"  measured: {json.dumps(pinned, sort_keys=True)}\n"
                f"  baseline: {json.dumps(baseline_pinned, sort_keys=True)}"
            )
            status = 1
        metric, floor = _baseline_floor(baseline, args.tolerance)
        gate_eps = median_eps if metric == "median" else best_eps
        if gate_eps < floor:
            print(
                f"FAIL: {gate_eps:,.0f} events/s ({metric}) is below "
                f"{floor:,.0f} ({args.tolerance:.0%} under baseline "
                f"from {baseline['label']!r})"
            )
            status = 1
        else:
            print(
                f"OK: {metric} events/s within {args.tolerance:.0%} of "
                f"baseline floor {floor:,.0f}"
            )

    if args.update:
        entry = {
            "label": args.label,
            "events": events,
            "best_wall_seconds": round(best, 3),
            "events_per_sec": round(best_eps),
            "median_wall_seconds": round(median, 3),
            "median_events_per_sec": round(median_eps),
            "rounds": args.rounds,
            "python": platform.python_version(),
        }
        if credited:
            entry["events_credited"] = credited
            entry["effective_events_per_sec"] = round(
                (events + credited) / median
            )
        if pinned is not None:
            entry["pinned"] = pinned
        bench["history"].append(entry)
        bench_file.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"recorded in {bench_file}")

    return status


if __name__ == "__main__":
    sys.exit(main())
