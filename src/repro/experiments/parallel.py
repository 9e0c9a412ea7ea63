"""Experiment execution over a process pool (``mpichgq-experiments``).

Every run of the runner goes through :func:`run_parallel`; a serial run
is the same job plan executed in-process. The gridded experiments in
:data:`GRIDS` are partitioned into one job per cell; everything else
runs as one whole-experiment job. Jobs are submitted
longest-estimated-first so the pool drains evenly.

The grid contract: a gridded experiment module exposes

* ``plan_cells(quick, **grid) -> [(key, kwargs), ...]`` — its cells;
* ``measure_cell(seed=..., **kwargs)`` — one cell, built from the seed;
* ``run(quick, seed, cell_results=None, **grid)`` — the render step,
  over ``cell_results`` when given, else over cells it measures itself
  (see :func:`.common.grid_cells`).

Determinism: every cell builds its own deployment from the seed, so
values cannot depend on evaluation order or process. Measured cells
are merged by feeding them back through the experiment's own ``run``,
so a parallel run's output is identical to a serial run's except for
the wall-clock ``elapsed_seconds``.

Telemetry: a telemetry session is process-global state tied to one
simulator at a time, so when collection is on, partitioning is
disabled — each experiment runs whole inside one worker, which
installs its own session and exports its own metrics files.

Fallback: with ``processes=1``, or on platforms without the ``fork``
start method, the same job plan executes in-process — no pool, no
pickling — one experiment after another in ``selected`` order.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..kernel import paused_gc
from . import (
    fig6_visualization,
    fig_adaptation,
    table1_aqm,
    table1_burstiness,
    table1_l4s,
)

__all__ = ["run_parallel", "GRIDS"]

#: The gridded experiments, partitioned into one job per cell.
GRIDS = {
    "fig6": fig6_visualization,
    "table1": table1_burstiness,
    "table1_aqm": table1_aqm,
    "table1_l4s": table1_l4s,
    "fig_adaptation": fig_adaptation,
}

#: Submission-order weights: rough --quick wall-clock seconds of the
#: whole experiment, and for gridded ones the weight of one cell as a
#: function of its key. Full runs scale every entry up roughly
#: uniformly, which preserves the ordering. A table1 cell runs ~5-10
#: bisection probes and a table1_aqm/l4s cell one probe, each costing
#: in proportion to the cell's target bandwidth (``key[0]``).
_WEIGHTS: Dict[str, Tuple[float, Optional[Callable[[Any], float]]]] = {
    "fig1": (4.0, None),
    "fig5": (8.5, None),
    "fig6": (14.0, lambda key: 2.0),
    "fig7": (2.0, None),
    "table1": (60.0, lambda key: 0.008 * key[0]),
    "table1_aqm": (40.0, lambda key: 0.001 * key[0]),
    "table1_l4s": (50.0, lambda key: 0.001 * key[0]),
    "fig8": (0.5, None),
    "fig9": (11.0, None),
    "fig_adaptation": (5.0, lambda key: 2.5),
    "garnet_xl": (25.0, None),
}


class _Job(NamedTuple):
    key: Tuple[str, Any]
    weight: float
    fn: Any
    args: tuple


# ---------------------------------------------------------------------------
# Job functions (module level so the pool can pickle them).
# ---------------------------------------------------------------------------


def _whole_job(
    name: str,
    quick: bool,
    seed: int,
    collect: bool,
    out: Optional[str],
    options: Dict[str, Any],
):
    """Run one experiment end to end; returns (result, elapsed, summary).

    ``options`` carries the runner's non-default ``mode`` / ``shards``.
    """
    from .. import telemetry
    from .runner import EXPERIMENTS, make_telemetry

    tel = None
    if collect:
        tel = make_telemetry()
        telemetry.install(tel)
    started = time.time()
    # A simulation run allocates at a steady rate and drops whole
    # object graphs at once; generational GC only adds pauses, so it
    # is suspended for the run and one full collection follows it.
    try:
        with paused_gc():
            result = EXPERIMENTS[name](quick=quick, seed=seed, **options)
    finally:
        gc.collect()
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


def _cell_job(name: str, kwargs: dict, seed: int):
    """Measure one cell of a gridded experiment; returns (value, elapsed)."""
    started = time.time()
    with paused_gc():
        value = GRIDS[name].measure_cell(seed=seed, **kwargs)
    return value, time.time() - started


# ---------------------------------------------------------------------------
# Planning, execution, merging
# ---------------------------------------------------------------------------


def _plan(
    name: str,
    quick: bool,
    seed: int,
    collect: bool,
    out: Optional[str],
    options: Dict[str, Any],
) -> List[_Job]:
    """One experiment's jobs: a job per cell, or one whole job."""
    whole_weight, cell_weight = _WEIGHTS.get(name, (5.0, None))
    if name in GRIDS and not collect:
        return [
            _Job((name, key), cell_weight(key), _cell_job, (name, kwargs, seed))
            for key, kwargs in GRIDS[name].plan_cells(quick)
        ]
    return [
        _Job(
            (name, None),
            whole_weight,
            _whole_job,
            (name, quick, seed, collect, out, options),
        )
    ]


def run_parallel(
    selected: List[str],
    quick: bool,
    seed: int,
    processes: int,
    collect: bool = False,
    out: Optional[Path] = None,
    options: Optional[Dict[str, Any]] = None,
    on_result: Optional[Callable[..., None]] = None,
):
    """Run ``selected`` experiments over ``processes`` workers.

    Returns ``[(name, result, elapsed_seconds, telemetry_summary)]``
    in ``selected`` order, and hands each entry to ``on_result`` as
    soon as it is merged. ``elapsed_seconds`` for a partitioned
    experiment is the summed cell time (its CPU cost, not critical
    path). ``telemetry_summary`` is ``(n_metrics, n_span_events)`` or
    None when collection is off. ``options`` (the runner's ``mode`` /
    ``shards``) is passed to whole-experiment jobs.
    """
    out_str = str(out) if out else None
    plans = [
        (name, _plan(name, quick, seed, collect, out_str, options or {}))
        for name in selected
    ]
    if processes <= 1 or "fork" not in mp.get_all_start_methods():
        # In-process fallback: same plan, same merge, no pool. Each
        # job rebuilds its deployment from the seed, so the output is
        # byte-identical to a pooled run.
        return _merge(plans, quick, seed, on_result, lambda job: job.fn(*job.args))
    # Fork keeps worker startup cheap and inherits the imported stack.
    ctx = mp.get_context("fork")
    with ctx.Pool(processes=processes) as pool:
        # Longest first: the heaviest job bounds the pool's critical
        # path, so it must never be picked up last.
        ordered = sorted(
            (job for _, jobs in plans for job in jobs),
            key=lambda j: -j.weight,
        )
        handles = {job.key: pool.apply_async(job.fn, job.args) for job in ordered}
        pool.close()
        results = _merge(
            plans, quick, seed, on_result, lambda job: handles[job.key].get()
        )
        pool.join()
    return results


def _merge(plans, quick, seed, on_result, fetch):
    """Collect each experiment's jobs via ``fetch`` and assemble its result."""
    results = []
    for name, jobs in plans:
        raw = {job.key[1]: fetch(job) for job in jobs}
        if jobs[0].fn is _cell_job:
            cells = {key: value for key, (value, _) in raw.items()}
            result = GRIDS[name].run(quick=quick, seed=seed, cell_results=cells)
            entry = (name, result, sum(t for _, t in raw.values()), None)
        else:
            entry = (name, *raw[None])
        results.append(entry)
        if on_result is not None:
            on_result(*entry)
    return results
