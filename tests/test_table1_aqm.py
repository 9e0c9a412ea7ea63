"""The merged AQM cell: one ``table1_aqm.measure_cell`` for every mode.

table1_aqm and table1_l4s share one measurement. Each mode takes its
own path through it (the policy, the transport, the AF-band qdisc), so
each gets an exact pin on one reduced, bursty cell: 1600 kb/s, the
``normal_1fps`` config, 2 s of stream. The numbers were recorded with
the two tables' separate measurements before they were merged; a drift
in any of them means the merge changed what a mode simulates.
"""

import pytest

from repro.aqm import AQM_MODES
from repro.experiments import table1_aqm, table1_l4s
from repro.experiments.table1_burstiness import NORMAL_DEPTH_DIVISOR

#: mode -> (resent_segments, timeouts, early_drops, tail_drops,
#: ecn_marks, ce_received, throughput_kbps, queue_delay_ms)
PINS = {
    "droptail": (96, 16, 0, 0, 0, 0, 0.0, 0.0),
    "wred": (1, 0, 1, 0, 0, 0, 1600.0, 43.1255417104365),
    "wred+ecn": (0, 0, 0, 0, 1, 1, 1600.0, 43.93275062918211),
    "codel": (3, 0, 0, 0, 6, 6, 1600.0, 14.249217173090837),
    "pie": (26, 3, 9, 0, 5, 5, 0.0, 36.13050162332515),
    "dualpi2": (0, 0, 0, 0, 92, 92, 1600.0, 4.097037037036847),
}

COUNTS = ("resent_segments", "timeouts", "early_drops", "tail_drops",
          "ecn_marks", "ce_received")


def test_every_aqm_mode_is_pinned():
    assert set(PINS) == set(AQM_MODES)
    assert set(table1_aqm.MODES) | set(table1_l4s.MODES) == set(AQM_MODES)


@pytest.mark.parametrize("mode", AQM_MODES)
def test_measure_cell_pinned_per_mode(mode):
    cell = table1_aqm.measure_cell(
        bandwidth_kbps=1600.0,
        fps=1.0,
        bucket_divisor=NORMAL_DEPTH_DIVISOR,
        mode=mode,
        seed=0,
        duration=2.0,
    )
    *counts, throughput, delay = PINS[mode]
    assert [cell[f] for f in COUNTS] == counts
    assert cell["throughput_kbps"] == pytest.approx(throughput, rel=1e-9)
    assert cell["queue_delay_ms"] == pytest.approx(delay, rel=1e-9)
    assert cell["reservation_kbps"] == pytest.approx(1600.0 * table1_aqm.RES_FACTOR)


def test_l4s_reexports_the_merged_cell():
    assert table1_l4s.measure_cell is table1_aqm.measure_cell
