"""Parallel experiment execution (``mpichgq-experiments --parallel N``).

The selected experiments fan out over a fork-based process pool.
Experiments whose data points are independent simulations — fig6's
measurement grid and table1's bisection cells — are partitioned into
per-point jobs; everything else runs as one whole-experiment job.
Jobs are submitted longest-estimated-first so the pool drains evenly.

Determinism: every grid point / cell builds its own deployment from
the seed, so values cannot depend on evaluation order or process.
Partitioned results are merged by feeding the measured values back
through the experiment's own :func:`run` (its ``point_results`` /
``cell_results`` parameter), so a parallel run's output is identical
to a serial run's except for the wall-clock ``elapsed_seconds``.

Telemetry: a telemetry session is process-global state tied to one
simulator at a time, so when collection is on, partitioning is
disabled — each experiment runs whole inside one worker, which
installs its own session and exports its own metrics files.

Fallback: with ``--parallel 1``, or on platforms without the ``fork``
start method, the same job plan executes in-process — no pool, no
pickling — and produces byte-identical results (every job builds its
deployment from the seed, so values never depend on where they ran).
"""

from __future__ import annotations

import multiprocessing as mp
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..kernel import paused_gc
from . import (
    fig6_visualization,
    fig_adaptation,
    table1_aqm,
    table1_burstiness,
    table1_l4s,
)

__all__ = ["run_parallel"]

#: Rough --quick wall-clock (seconds) per whole experiment, used only
#: for longest-first submission order. Full runs scale all entries up
#: roughly uniformly, which preserves the ordering.
_WHOLE_WEIGHTS = {
    "fig1": 4.0,
    "fig5": 8.5,
    "fig6": 14.0,
    "fig7": 2.0,
    "table1": 60.0,
    "table1_aqm": 40.0,
    "table1_l4s": 50.0,
    "fig8": 0.5,
    "fig9": 11.0,
    "fig_adaptation": 5.0,
    "garnet_xl": 25.0,
}
#: One fig_adaptation flavor is a single fixed-duration run.
_FIG_ADAPTATION_CELL_WEIGHT = 2.5
_FIG6_POINT_WEIGHT = 2.0
#: A table1 cell runs ~5-10 bisection probes; probe cost grows with
#: the cell's target bandwidth, so weight by it (the constant only
#: has to rank cells above fig6 points and scale with bandwidth).
_TABLE1_CELL_WEIGHT_PER_KBPS = 0.008
#: A table1_aqm cell is a single (non-bisected) run of the same probe.
_TABLE1_AQM_CELL_WEIGHT_PER_KBPS = 0.001


class _Job(NamedTuple):
    key: Tuple[str, Any]
    weight: float
    fn: Any
    args: tuple


# ---------------------------------------------------------------------------
# Worker functions (module level so the pool can pickle them).
# ---------------------------------------------------------------------------


def _whole_job(
    name: str, quick: bool, seed: int, collect: bool, out: Optional[str]
):
    """Run one experiment end to end; returns (result, elapsed, summary)."""
    from .. import telemetry
    from .runner import EXPERIMENTS, make_telemetry

    tel = None
    if collect:
        tel = make_telemetry()
        telemetry.install(tel)
    started = time.time()
    try:
        with paused_gc():
            result = EXPERIMENTS[name](quick=quick, seed=seed)
    finally:
        if tel is not None:
            telemetry.uninstall()
    elapsed = time.time() - started
    summary = None
    if tel is not None:
        tel.collect()
        snap = tel.snapshot()
        summary = (len(snap["metrics"]), snap["span_count"])
        if out is not None:
            meta = {"experiment": name, "quick": quick, "seed": seed}
            out_dir = Path(out)
            out_dir.mkdir(parents=True, exist_ok=True)
            telemetry.export_json(
                tel, out_dir / f"{name}.metrics.json", meta=meta
            )
            telemetry.export_csv(tel, out_dir / f"{name}.metrics.csv")
    return result, elapsed, summary


def _fig6_point_job(kwargs: dict, seed: int):
    started = time.time()
    with paused_gc():
        value = fig6_visualization.measure_point(seed=seed, **kwargs)
    return value, time.time() - started


def _table1_cell_job(kwargs: dict, seed: int):
    started = time.time()
    with paused_gc():
        value = table1_burstiness.required_reservation(seed=seed, **kwargs)
    return value, time.time() - started


def _table1_aqm_cell_job(kwargs: dict, seed: int):
    started = time.time()
    with paused_gc():
        value = table1_aqm.measure_cell(seed=seed, **kwargs)
    return value, time.time() - started


def _table1_l4s_cell_job(kwargs: dict, seed: int):
    started = time.time()
    with paused_gc():
        value = table1_l4s.measure_cell(seed=seed, **kwargs)
    return value, time.time() - started


def _fig_adaptation_cell_job(kwargs: dict, seed: int):
    started = time.time()
    with paused_gc():
        value = fig_adaptation.measure_cell(seed=seed, **kwargs)
    return value, time.time() - started


# ---------------------------------------------------------------------------
# Planning, execution, merging
# ---------------------------------------------------------------------------


def _plan(
    selected: List[str],
    quick: bool,
    seed: int,
    collect: bool,
    out: Optional[str],
) -> List[_Job]:
    partition = not collect
    jobs: List[_Job] = []
    for name in selected:
        if partition and name == "fig6":
            for key, kwargs in fig6_visualization.plan_points(quick=quick):
                jobs.append(
                    _Job(
                        ("fig6", key),
                        _FIG6_POINT_WEIGHT,
                        _fig6_point_job,
                        (kwargs, seed),
                    )
                )
        elif partition and name == "table1":
            for key, kwargs in table1_burstiness.plan_cells(quick=quick):
                bandwidth = key[0]
                jobs.append(
                    _Job(
                        ("table1", key),
                        bandwidth * _TABLE1_CELL_WEIGHT_PER_KBPS,
                        _table1_cell_job,
                        (kwargs, seed),
                    )
                )
        elif partition and name == "table1_aqm":
            for key, kwargs in table1_aqm.plan_cells(quick=quick):
                bandwidth = key[0]
                jobs.append(
                    _Job(
                        ("table1_aqm", key),
                        bandwidth * _TABLE1_AQM_CELL_WEIGHT_PER_KBPS,
                        _table1_aqm_cell_job,
                        (kwargs, seed),
                    )
                )
        elif partition and name == "table1_l4s":
            for key, kwargs in table1_l4s.plan_cells(quick=quick):
                bandwidth = key[0]
                jobs.append(
                    _Job(
                        ("table1_l4s", key),
                        bandwidth * _TABLE1_AQM_CELL_WEIGHT_PER_KBPS,
                        _table1_l4s_cell_job,
                        (kwargs, seed),
                    )
                )
        elif partition and name == "fig_adaptation":
            for key, kwargs in fig_adaptation.plan_cells(quick=quick):
                jobs.append(
                    _Job(
                        ("fig_adaptation", key),
                        _FIG_ADAPTATION_CELL_WEIGHT,
                        _fig_adaptation_cell_job,
                        (kwargs, seed),
                    )
                )
        else:
            jobs.append(
                _Job(
                    ("whole", name),
                    _WHOLE_WEIGHTS.get(name, 5.0),
                    _whole_job,
                    (name, quick, seed, collect, out),
                )
            )
    return jobs


def run_parallel(
    selected: List[str],
    quick: bool,
    seed: int,
    processes: int,
    collect: bool = False,
    out: Optional[Path] = None,
):
    """Run ``selected`` experiments over ``processes`` workers.

    Returns ``[(name, result, elapsed_seconds, telemetry_summary)]``
    in ``selected`` order. ``elapsed_seconds`` for a partitioned
    experiment is the summed worker time (its CPU cost, not critical
    path). ``telemetry_summary`` is ``(n_metrics, n_span_events)`` or
    None when collection is off.
    """
    jobs = _plan(selected, quick, seed, collect, str(out) if out else None)
    # Longest first: the heaviest job bounds the pool's critical path,
    # so it must never be picked up last.
    ordered = sorted(jobs, key=lambda j: -j.weight)
    raw: Dict[Tuple[str, Any], Any] = {}
    if processes <= 1 or "fork" not in mp.get_all_start_methods():
        # In-process fallback: same plan, same merge, no pool. Each
        # job rebuilds its deployment from the seed, so the output is
        # byte-identical to a pooled run.
        for job in ordered:
            raw[job.key] = job.fn(*job.args)
    else:
        # Fork keeps worker startup cheap and inherits the imported
        # stack.
        ctx = mp.get_context("fork")
        with ctx.Pool(processes=processes) as pool:
            pending = [
                (job.key, pool.apply_async(job.fn, job.args))
                for job in ordered
            ]
            pool.close()
            for key, handle in pending:
                raw[key] = handle.get()
            pool.join()

    results = []
    partition = not collect
    for name in selected:
        if partition and name == "fig6":
            keys = [k for k, _ in fig6_visualization.plan_points(quick=quick)]
            values = {k: raw[("fig6", k)][0] for k in keys}
            elapsed = sum(raw[("fig6", k)][1] for k in keys)
            result = fig6_visualization.run(
                quick=quick, seed=seed, point_results=values
            )
            results.append((name, result, elapsed, None))
        elif partition and name == "table1":
            keys = [k for k, _ in table1_burstiness.plan_cells(quick=quick)]
            values = {k: raw[("table1", k)][0] for k in keys}
            elapsed = sum(raw[("table1", k)][1] for k in keys)
            result = table1_burstiness.run(
                quick=quick, seed=seed, cell_results=values
            )
            results.append((name, result, elapsed, None))
        elif partition and name == "table1_aqm":
            keys = [k for k, _ in table1_aqm.plan_cells(quick=quick)]
            values = {k: raw[("table1_aqm", k)][0] for k in keys}
            elapsed = sum(raw[("table1_aqm", k)][1] for k in keys)
            result = table1_aqm.run(
                quick=quick, seed=seed, cell_results=values
            )
            results.append((name, result, elapsed, None))
        elif partition and name == "table1_l4s":
            keys = [k for k, _ in table1_l4s.plan_cells(quick=quick)]
            values = {k: raw[("table1_l4s", k)][0] for k in keys}
            elapsed = sum(raw[("table1_l4s", k)][1] for k in keys)
            result = table1_l4s.run(
                quick=quick, seed=seed, cell_results=values
            )
            results.append((name, result, elapsed, None))
        elif partition and name == "fig_adaptation":
            keys = [k for k, _ in fig_adaptation.plan_cells(quick=quick)]
            values = {k: raw[("fig_adaptation", k)][0] for k in keys}
            elapsed = sum(raw[("fig_adaptation", k)][1] for k in keys)
            result = fig_adaptation.run(
                quick=quick, seed=seed, cell_results=values
            )
            results.append((name, result, elapsed, None))
        else:
            result, elapsed, summary = raw[("whole", name)]
            results.append((name, result, elapsed, summary))
    return results
