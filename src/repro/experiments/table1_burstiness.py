"""Table 1: reservation required versus burstiness and bucket size.

"The reservation required to achieve a specified throughput, for
varying degrees of 'burstiness' (expressed in frames per second) and
token bucket sizes. ... with the normal depth, the very bursty
configurations needs an approximately 50% larger reservation" (§5.4).

Paper's table (Kb/s):

    bandwidth | normal bucket, 10 fps | normal, 1 fps | large, 1 fps
       400    |          500          |      750      |     500
       800    |          900          |     1450      |     900
      1600    |         1700          |     2700      |    1700
      2400    |         2500          |     3600      |    2500

We reproduce the procedure: for each cell, find the minimum reservation
at which the visualization application achieves (>= 95% of) its target
throughput, by bisection over the reservation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..diffserv.token_bucket import LARGE_DEPTH_DIVISOR, NORMAL_DEPTH_DIVISOR
from ..net import KB
from . import fig6_visualization
from .common import ExperimentResult, grid_cells

__all__ = ["run", "measure_cell", "plan_cells"]

FULL_BANDWIDTHS = (400, 800, 1600, 2400)
QUICK_BANDWIDTHS = (400, 1600)

#: The three table columns: (label, fps, bucket divisor).
CONFIGS = (
    ("normal_10fps", 10.0, NORMAL_DEPTH_DIVISOR),
    ("normal_1fps", 1.0, NORMAL_DEPTH_DIVISOR),
    ("large_1fps", 1.0, LARGE_DEPTH_DIVISOR),
)


def measure_cell(
    bandwidth_kbps: float,
    fps: float,
    bucket_divisor: float,
    seed: int = 0,
    duration: float = 8.0,
    threshold: float = 0.95,
    resolution_kbps: float = 50.0,
    max_factor: float = 3.0,
) -> float:
    """Minimum adequate reservation (Kb/s) by bisection."""
    frame_bytes = int(bandwidth_kbps * 1e3 / fps / 8.0)
    target = bandwidth_kbps

    def adequate(reservation: float) -> bool:
        achieved = fig6_visualization.measure_cell(
            frame_kb=frame_bytes / KB,
            reservation_kbps=reservation,
            seed=seed,
            duration=duration,
            fps=fps,
            bucket_divisor=bucket_divisor,
        )
        return achieved >= threshold * target

    lo, hi = target, target * max_factor
    if not adequate(hi):
        return float("nan")  # never adequate within the search range
    if adequate(lo):
        return lo
    while hi - lo > resolution_kbps:
        mid = (lo + hi) / 2.0
        if adequate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def plan_cells(
    quick: bool = False,
    bandwidths_kbps: Optional[Sequence[float]] = None,
    duration: Optional[float] = None,
) -> List[Tuple[Tuple[float, str], dict]]:
    """The table's cells as ``[(key, measure_cell_kwargs), ...]``,
    keyed ``(bandwidth_kbps, config_label)``. Each cell's bisection is
    sequential, but cells are independent of each other."""
    if bandwidths_kbps is None:
        bandwidths_kbps = QUICK_BANDWIDTHS if quick else FULL_BANDWIDTHS
    if duration is None:
        duration = 5.0 if quick else 8.0
    resolution = 100.0 if quick else 50.0
    return [
        (
            (bandwidth, label),
            dict(
                bandwidth_kbps=bandwidth,
                fps=fps,
                bucket_divisor=divisor,
                duration=duration,
                resolution_kbps=resolution,
            ),
        )
        for bandwidth in bandwidths_kbps
        for label, fps, divisor in CONFIGS
    ]


def run(
    quick: bool = False,
    seed: int = 0,
    cell_results: Optional[Dict[Tuple[float, str], float]] = None,
    **grid,
) -> ExperimentResult:
    """Produce the Table 1 result (``grid`` as in :func:`plan_cells`)."""
    cells = grid_cells(plan_cells, measure_cell, quick, seed, grid, cell_results)
    result = ExperimentResult(
        experiment="table1",
        description="reservation required for target throughput vs "
        "burstiness and bucket depth",
        headers=["bandwidth_kbps"] + [label for label, _, _ in CONFIGS],
    )
    rows: Dict[float, list] = {}
    for (bandwidth, _label), reservation in cells.items():
        rows.setdefault(bandwidth, [bandwidth]).append(reservation)
    result.rows.extend(rows.values())
    # Headline ratios the paper calls out.
    ratios = [
        row[2] / row[1]
        for row in result.rows
        if row[1] == row[1] and row[2] == row[2] and row[1] > 0
    ]
    if ratios:
        result.extra["bursty_over_smooth_ratio"] = sum(ratios) / len(ratios)
    return result
