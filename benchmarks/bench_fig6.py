"""Figure 6 bench: visualization throughput vs reservation.

Shape assertions (§5.3):

* full target rate once the reservation reaches ~1.06x the sending rate;
* a slightly-too-small reservation "dramatically decreases" throughput
  (worse than proportional scaling — the TCP congestion-control cliff);
* low reservations are much worse than linear scaling would suggest.
"""

from repro.experiments.fig6_visualization import measure_cell

TARGET_KBPS = 2458  # 30 KB frames at 10 fps


def test_fig6_adequacy_cliff(once):
    def experiment():
        return {
            r: measure_cell(30, r, duration=8.0)
            for r in (800, 2300, 2700)
        }

    points = once(experiment)
    # Adequate at ~1.06x target(+margin): full rate.
    assert points[2700] > 0.95 * TARGET_KBPS
    # A little bit too small: dramatic collapse, not a 6% loss.
    assert points[2300] < 0.65 * TARGET_KBPS
    # One third of the target reserved: far less than one third achieved
    # ("significantly worse than we would expect from simple scaling").
    assert points[800] < 0.33 * TARGET_KBPS
