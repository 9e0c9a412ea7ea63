"""Table 1 revisited under active queue management.

A beyond-paper ablation: the Table 1 burstiness grid is rerun with the
reservation deliberately *undersized* (``RES_FACTOR`` of the target
rate — the oversubscribed regime §5.4 warns about) under three domain
configurations:

* ``droptail`` — the paper's strict-priority + policer setup, built
  through exactly the pre-AQM code path;
* ``wred`` — premium excess is three-color-remarked into a WRED'd
  assured band with a small bounded DRR share;
* ``wred+ecn`` — same, but WRED marks CE instead of dropping and the
  transport negotiates RFC 3168 ECN.

Where the paper's configuration turns an undersized reservation into
policer drops, RTO timeouts, and go-back-N resends, the AQM modes keep
the excess flowing: WRED converts bursts into early drops the sender
repairs cheaply, and WRED+ECN signals congestion with no loss at all.
The interesting columns are the resent segments and timeouts next to
the achieved throughput.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..aqm import AqmPolicy
from ..apps import VisualizationPipeline
from ..net import kbps, mbps
from ..transport.tcp import TcpConfig
from .common import ExperimentResult, build_deployment, grid_cells
from .table1_burstiness import CONFIGS, FULL_BANDWIDTHS, QUICK_BANDWIDTHS

__all__ = [
    "run",
    "measure_cell",
    "plan_cells",
    "plan_modes",
    "render",
    "RES_FACTOR",
    "MODES",
]

#: This experiment's fixed mode grid. Deliberately *not*
#: ``repro.aqm.AQM_MODES`` — new disciplines joining that registry
#: (CoDel/PIE/DualPI2 live in ``table1_l4s``) must not silently widen
#: this table or shift its pinned outputs.
MODES = ("droptail", "wred", "wred+ecn")

#: Reservation as a fraction of the application's target rate. 0.6
#: leaves enough excess to exceed the AF band's DRR share on bursty
#: cells, so WRED actually has to arbitrate.
RES_FACTOR = 0.6


def measure_cell(
    bandwidth_kbps: float,
    fps: float,
    bucket_divisor: float,
    mode: str,
    seed: int = 0,
    duration: float = 8.0,
) -> Dict[str, float]:
    """One grid cell under one AQM mode (any of ``repro.aqm.AQM_MODES``).

    Same deployment recipe as :func:`..fig6_visualization.measure_cell`
    (30 Mb/s backbone, 40 Mb/s UDP contention, period-correct Reno with
    a 300 ms RTO floor), but with the domain's AQM policy switched and
    the loss-recovery cost and AF-band queue delay captured alongside
    the throughput. ``dualpi2`` runs the full L4S stack instead: DCTCP's
    proportional ECN response and CUBIC growth, because L4S only
    delivers its latency story when a scalable sender feeds the L queue.
    """
    aqm = None if mode == "droptail" else AqmPolicy(mode=mode)
    if mode == "dualpi2":
        tcp_config = TcpConfig(
            min_rto=0.3, ecn=True, ecn_response="dctcp", cc="cubic"
        )
    else:
        # Same transport for every classic row, so they isolate the
        # queue discipline.
        tcp_config = TcpConfig(
            recovery="reno", min_rto=0.3, ecn=aqm is not None and aqm.ecn
        )
    dep = build_deployment(
        seed=seed,
        backbone_bandwidth=mbps(30.0),
        contention_rate=mbps(40.0),
        tcp_config=tcp_config,
        aqm=aqm,
    )
    sim, gq = dep.sim, dep.gq
    reservation_kbps = bandwidth_kbps * RES_FACTOR
    gq.agent.reserve_flows(
        0, 1, kbps(reservation_kbps), bucket_divisor=bucket_divisor
    )
    frame_bytes = int(bandwidth_kbps * 1e3 / fps / 8.0)
    app = VisualizationPipeline(
        frame_bytes=frame_bytes, fps=fps, duration=duration
    )
    gq.world.launch(app.main)
    sim.run(until=duration * 4 + 5.0)
    throughput = (
        app.achieved_bandwidth_kbps(1.0, duration)
        if app.delivered is not None
        else 0.0
    )

    resent = timeouts = ce = responses = 0
    from ..net.packet import PROTO_TCP

    for proc in gq.world.procs:
        layer = proc.host.protocols.get(PROTO_TCP)
        if layer is None:
            continue
        for conn in layer._connections.values():
            resent += conn.resent_segments
            timeouts += conn.timeouts
            ce += conn.ecn_ce_received
            responses += conn.ecn_responses
    early = tail = marks = 0
    sojourn_sum = 0.0
    sojourn_count = 0
    for qdisc in gq.domain.priority_qdiscs:
        bands = getattr(qdisc, "bands", None)
        if bands is None or callable(bands):
            continue
        for band in bands:
            early += getattr(band, "early_drops", 0)
            tail += getattr(band, "tail_drops", 0)
            marks += getattr(band, "ecn_marks", 0)
            sojourn_sum += getattr(band, "sojourn_sum", 0.0)
            sojourn_count += getattr(band, "sojourn_count", 0)
    queue_delay_ms = (
        sojourn_sum / sojourn_count * 1e3 if sojourn_count else 0.0
    )
    return {
        "reservation_kbps": reservation_kbps,
        "throughput_kbps": throughput,
        "resent_segments": resent,
        "timeouts": timeouts,
        "early_drops": early,
        "tail_drops": tail,
        "ecn_marks": marks,
        "ce_received": ce,
        "ecn_responses": responses,
        "queue_delay_ms": queue_delay_ms,
    }


def plan_modes(
    modes: Sequence[str],
    quick: bool = False,
    bandwidths_kbps: Optional[Sequence[float]] = None,
    duration: Optional[float] = None,
) -> List[Tuple[Tuple[float, str, str], dict]]:
    """The Table 1 grid crossed with ``modes``, as
    ``[(key, measure_cell_kwargs), ...]`` keyed ``(bandwidth, config,
    mode)``."""
    if bandwidths_kbps is None:
        bandwidths_kbps = QUICK_BANDWIDTHS if quick else FULL_BANDWIDTHS
    if duration is None:
        duration = 5.0 if quick else 8.0
    return [
        (
            (bandwidth, label, mode),
            dict(
                bandwidth_kbps=bandwidth,
                fps=fps,
                bucket_divisor=divisor,
                mode=mode,
                duration=duration,
            ),
        )
        for bandwidth in bandwidths_kbps
        for label, fps, divisor in CONFIGS
        for mode in modes
    ]


def plan_cells(quick: bool = False, **grid):
    """This table's cells: :func:`plan_modes` over :data:`MODES`."""
    return plan_modes(MODES, quick, **grid)


#: Per-cell fields shown as columns, after (bandwidth, config, mode).
_COLUMNS = (
    "reservation_kbps",
    "throughput_kbps",
    "resent_segments",
    "timeouts",
    "early_drops",
    "tail_drops",
    "ecn_marks",
)


def render(
    experiment: str,
    description: str,
    modes: Sequence[str],
    cells: Dict[Tuple[float, str, str], Dict[str, float]],
    queue_delay: bool = False,
) -> ExperimentResult:
    """Tabulate measured cells with per-mode totals in ``extra``;
    ``queue_delay`` adds the ``queue_delay_ms`` column and each mode's
    mean of it."""
    columns = _COLUMNS + (("queue_delay_ms",) if queue_delay else ())
    result = ExperimentResult(
        experiment=experiment,
        description=description,
        headers=["bandwidth_kbps", "config", "mode", *columns],
    )
    totals = {
        mode: {"resent": 0, "timeouts": 0, "throughput": 0.0,
               "delay_sum": 0.0, "cells": 0}
        for mode in modes
    }
    for (bandwidth, label, mode), cell in cells.items():
        result.rows.append([bandwidth, label, mode] + [cell[c] for c in columns])
        t = totals[mode]
        t["resent"] += cell["resent_segments"]
        t["timeouts"] += cell["timeouts"]
        t["throughput"] += cell["throughput_kbps"]
        t["delay_sum"] += cell["queue_delay_ms"]
        t["cells"] += 1
    for mode in modes:
        key = mode.replace("+", "_")
        t = totals[mode]
        result.extra[f"{key}_resent_segments"] = t["resent"]
        result.extra[f"{key}_timeouts"] = t["timeouts"]
        result.extra[f"{key}_total_throughput_kbps"] = t["throughput"]
        if queue_delay:
            result.extra[f"{key}_mean_queue_delay_ms"] = (
                t["delay_sum"] / t["cells"] if t["cells"] else 0.0
            )
    return result


def run(
    quick: bool = False,
    seed: int = 0,
    cell_results: Optional[Dict[Tuple[float, str, str], Dict[str, float]]] = None,
    **grid,
) -> ExperimentResult:
    """Produce the AQM-ablation table (``grid`` as in :func:`plan_modes`)."""
    cells = grid_cells(plan_cells, measure_cell, quick, seed, grid, cell_results)
    return render(
        "table1_aqm",
        f"Table 1 grid at {RES_FACTOR:.0%} reservation: "
        "drop-tail vs WRED vs WRED+ECN",
        MODES,
        cells,
    )
