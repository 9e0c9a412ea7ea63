"""The burstiness grid under modern congestion signaling (L4S study).

Companion to :mod:`.table1_aqm`: the same undersized-reservation grid
(``RES_FACTOR`` of the target rate), but pitting the 1998-era
WRED+ECN baseline against the modern AQM family on the AF band:

* ``wred+ecn`` — the :mod:`.table1_aqm` reference point (RFC 3168 ECN
  over per-precedence WRED curves);
* ``codel`` — RFC 8289 sojourn-time control, head drop/mark at
  dequeue;
* ``pie`` — RFC 8033 proportional-integral probability on queue
  latency;
* ``dualpi2`` — RFC 9332 coupled dual queue, paired with the matching
  modern *transport*: DCTCP-style proportional ECN response over
  ECT(1) (so the data rides the L queue) and CUBIC growth.

The first three run the same period-correct Reno/RFC 3168 transport as
``table1_aqm`` so differences isolate the *qdisc*; the ``dualpi2`` row
is deliberately the full modern stack, because L4S only delivers its
latency story when a scalable sender feeds the L queue. The headline
column is ``queue_delay_ms`` — the AF band's mean per-packet sojourn —
next to the achieved throughput: the modern qdiscs should hold the
standing queue near their targets where WRED rides its curve knee.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .common import ExperimentResult, grid_cells
from .table1_aqm import RES_FACTOR, measure_cell, plan_modes, render

__all__ = ["run", "measure_cell", "plan_cells", "MODES"]

#: The mode grid: the WRED+ECN baseline plus the modern family.
MODES = ("wred+ecn", "codel", "pie", "dualpi2")


def plan_cells(quick: bool = False, **grid):
    """This table's cells: :func:`.table1_aqm.plan_modes` over :data:`MODES`."""
    return plan_modes(MODES, quick, **grid)


def run(
    quick: bool = False,
    seed: int = 0,
    cell_results: Optional[Dict[Tuple[float, str, str], Dict[str, float]]] = None,
    **grid,
) -> ExperimentResult:
    """Produce the L4S/modern-AQM comparison table."""
    cells = grid_cells(plan_cells, measure_cell, quick, seed, grid, cell_results)
    return render(
        "table1_l4s",
        f"Table 1 grid at {RES_FACTOR:.0%} reservation: "
        "WRED+ECN vs CoDel vs PIE vs DualPI2+DCTCP",
        MODES,
        cells,
        queue_delay=True,
    )
