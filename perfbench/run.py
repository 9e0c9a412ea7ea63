#!/usr/bin/env python3
"""The repository's benchmark: host time per workload, layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig1_packet --seed 0 --seconds 15
    python3 perfbench/run.py --workload garnet_sharded --seed 3 --trace 1

``--trace 0`` runs one warm-up rep, then repeats the workload until
``--seconds`` have passed (always at least one whole timed rep, and at
least three set-ups) and prints the end-to-end metrics: medians over
the timed reps. ``--trace 1`` runs one
untraced rep, then one rep with the layer probes of ``layers.py``
installed, and prints the per-layer metrics; it fails when the traced
rep's output digest or event count differs from the untraced one, or
when a documented probe sees no call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every line
before it is for people: the metrics by name with their units, the
workload-specific figures, and a ``record:`` line with the seed,
nproc, Python version and ``git describe``. The command exits 1 when
any rep fails its correctness check and 2 when the repository is not
there to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where traced runs write their span log (git-ignored).
OUT_DIR = ROOT / ".perfbench"
#: Set-ups measured per untraced run: at least MIN_SETUPS, and up to
#: MAX_SETUPS while set-up-only reps take under SETUP_ONLY_S in total.
#: The fig1 and l4s set-ups take about a millisecond, so many samples
#: cost nothing; a garnet set-up forks and builds two shards.
MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_ONLY_S = 2.0


def git_describe() -> str:
    """``git describe`` of the measured tree, or "unknown" outside git."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
        if top.returncode or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def peak_rss_mb(extra_mb: float = 0.0) -> float:
    """Peak resident memory of this process (plus ``extra_mb``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + extra_mb


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def failed_requests(rep) -> int:
    """Failed requests of a broker_admit rep.

    A request fails on an error or refused reply. A rep that fails a
    run-level check as well (admission counts, live slot entries, a
    digest that differs) fails every one of its requests, so the
    failure count is 0 exactly when every check passes.
    """
    bad = rep.info["bad_replies"]
    run_level = len(rep.errors) - (1 if bad else 0)
    return rep.info["pairs"] if run_level else bad


def run_untraced(name: str, workload, seed: int, seconds: float, watch):
    """Reps until ``seconds`` have passed; end-to-end metrics and figures.

    A warm-up rep runs first: first-call costs (lazy imports, the
    allocator growing the heap) land in it. Its output is checked like
    every rep's, but its times are left out of the medians, and the
    ``seconds`` of timed reps start after it.
    """
    reps, setups, errors = [], [], []
    started = perf_counter()
    while len(reps) < 2 or perf_counter() - started < seconds:
        gc.collect()
        try:
            rep = workload.rep(seed, watch)
        except Exception:
            errors.append(traceback.format_exc())
            break
        if reps and rep.digest != reps[0].digest:
            rep.errors.append("output digest differs from the first rep "
                              "of the same seed")
        reps.append(rep)
        if len(reps) == 1:
            started = perf_counter()
        else:
            setups.append(rep.setup_s)
    timed = reps[1:]
    spent = 0.0
    while not errors and (
        len(setups) < MIN_SETUPS
        or (len(setups) < MAX_SETUPS and spent < SETUP_ONLY_S)
    ):
        begun = perf_counter()
        gc.collect()
        setups.append(workload.setup_only(seed, watch))
        spent += perf_counter() - begun

    failed_reps = sum(1 for r in reps if r.errors) + len(errors)
    attempted, failed = len(reps) + len(errors), failed_reps
    figures = {}
    if name == "broker_admit" and timed:
        latencies = [x for r in timed for x in r.info["latencies"]]
        attempted = sum(r.info["pairs"] for r in reps) + len(errors)
        failed = sum(failed_requests(r) for r in reps) + len(errors)
        figures["admissions_per_s"] = metric(
            statistics.median(r.info["admissions_per_s"] for r in timed),
            "1/s")
        figures["admit_p50_ms"] = metric(percentile(latencies, 50) * 1e3, "ms")
        figures["admit_p99_ms"] = metric(percentile(latencies, 99) * 1e3, "ms")
        figures["admit_samples"] = metric(len(latencies), "count")
    if name == "fig1_hybrid" and reps and not errors:
        # Simulated accuracy of the hybrid datapath: its Fig 1 mean
        # against the packet-mode mean of the same seed.
        from repro.experiments import fig1_tcp_reservation

        packet = fig1_tcp_reservation.run(quick=True, seed=seed, mode="packet")
        ref = packet.extra["mean_kbps"]
        got = reps[0].info["mean_kbps"]
        figures["fidelity_err_pct"] = metric(abs(got - ref) / ref * 100.0, "%")
    shard_mb = max((sum(r.info.get("shard_rss_mb", ())) for r in reps),
                   default=0.0)
    metrics = {}
    if timed:
        metrics = {
            "run_s": metric(statistics.median(r.run_s for r in timed), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb(shard_mb), "MB"),
        }
    figures["fail_frac"] = metric(failed / attempted if attempted else 1.0,
                                  "frac")
    figures["reps"] = metric(len(timed), "count")
    figures["setups"] = metric(len(setups), "count")
    figures["warmup_run_s"] = metric(reps[0].run_s if reps else 0.0, "s")
    figures["run_s_each"] = [r.run_s for r in timed]
    if timed:
        figures["kernel.events"] = metric(reps[0].events, "count")
        figures["kernel.credited"] = metric(reps[0].credited, "count")
        figures["events_per_s"] = metric(
            reps[0].events / metrics["run_s"]["value"], "1/s")
        figures["digest"] = reps[0].digest
    failures = [e for r in reps for e in r.errors] + errors
    return attempted, failed, metrics, figures, failures


def run_traced(name: str, workload, seed: int, watch):
    """One untraced and one traced rep; per-layer metrics and figures."""
    from layers import PER_LAYER, PROBES, coverage_errors, layer_metrics
    from tracer import Tracer

    gc.collect()
    plain = workload.rep(seed, watch)
    gc.collect()
    tracer = Tracer(run_id=f"{name}-seed{seed}-pid{os.getpid()}")
    tracer.install(PROBES)
    try:
        traced = workload.rep(seed, watch, tracer)
    finally:
        tracer.uninstall()
    traced_errors = list(traced.errors)
    if traced.digest != plain.digest:
        traced_errors.append(f"traced output digest {traced.digest[:16]} "
                             f"differs from untraced {plain.digest[:16]}")
    if traced.events != plain.events:
        traced_errors.append(f"traced run processed {traced.events} events, "
                             f"untraced {plain.events}")
    traced_errors += coverage_errors(tracer, name)
    per_layer = layer_metrics(tracer, traced.run_s, traced.events,
                              traced.credited, traced.info)
    metrics = {n: metric(per_layer[n], unit) for n, unit in PER_LAYER}
    run = tracer.phase("run")
    figures = {
        "trace_overhead": metric(traced.run_s / plain.run_s, "x"),
        "untraced_run_s": metric(plain.run_s, "s"),
        "traced_run_s": metric(traced.run_s, "s"),
        # Share of the timed phase that some span's self time covers.
        "span_coverage": metric(
            sum(s[3] for s in run.values()) / traced.run_s, "frac"),
        "spans_logged": metric(len(tracer.spans), "count"),
        "digest": traced.digest,
    }
    write_spans(tracer, name, seed)
    failed = int(bool(plain.errors)) + int(bool(traced_errors))
    return 2, failed, metrics, figures, plain.errors + traced_errors


def write_spans(tracer, name: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    payload = {
        "run_id": tracer.run_id,
        "fields": ["id", "parent", "name", "start", "end", "run_id"],
        "spans": tracer.spans,
        "layers": tracer.layers,
        "totals": {k: {"calls": v[0], "hits": v[1], "inclusive_s": v[2],
                       "self_s": v[3]} for k, v in tracer.stats.items()},
    }
    path.write_text(json.dumps(payload))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, SimWatch, nproc

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    watch = SimWatch()
    try:
        if args.trace:
            outcome = run_traced(args.workload, workload, args.seed, watch)
        else:
            outcome = run_untraced(args.workload, workload, args.seed,
                                   args.seconds, watch)
    finally:
        watch.close()
    attempted, failed, metrics, figures, failures = outcome

    for label, fig in list(metrics.items()) + list(figures.items()):
        if isinstance(fig, dict):
            print(f"{args.workload:15s} {label:34s} {fig['value']!r:>24} "
                  f"{fig['unit']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": nproc(),
        "python": platform.python_version(),
        "git_describe": git_describe(),
        "metrics": metrics,
        "figures": figures,
    }
    print("record: " + json.dumps(record, sort_keys=True))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    correct = not failures and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
