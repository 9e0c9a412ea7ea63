"""Table 1 bench: required reservation vs burstiness and bucket depth.

Shape assertions (§5.4): for a fixed 400 Kb/s target,

* the smooth (10 fps) profile needs a modest margin over the target;
* the bursty (1 fps) profile with the normal (bw/40) bucket needs
  roughly 50% more than the smooth profile;
* the large (bw/4) bucket removes the burstiness penalty entirely.
"""

from repro.experiments.table1_burstiness import measure_cell


def test_table1_row_400(once):
    def experiment():
        smooth = measure_cell(400, 10.0, 40.0, duration=5.0,
                              resolution_kbps=100.0)
        bursty = measure_cell(400, 1.0, 40.0, duration=5.0,
                              resolution_kbps=100.0)
        large = measure_cell(400, 1.0, 4.0, duration=5.0,
                             resolution_kbps=100.0)
        return smooth, bursty, large

    smooth, bursty, large = once(experiment)
    assert smooth == smooth and bursty == bursty and large == large, (
        "every cell must be satisfiable within the search range"
    )
    # Smooth: adequate with a modest margin (paper: 500 for 400).
    assert smooth <= 1.5 * 400
    # Bursty/normal needs a clearly larger reservation than smooth.
    assert bursty >= 1.15 * smooth
    # The large bucket erases the penalty.
    assert large <= 1.05 * smooth
