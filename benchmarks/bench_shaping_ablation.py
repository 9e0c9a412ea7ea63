"""Ablation: end-system traffic shaping (the §5.4 proposal).

The paper closes §5.4 by proposing to "incorporate traffic-shaping
support into the MPICH-GQ implementation on the end-system" as the
alternative to ever-deeper router buckets. This bench demonstrates it:
the bursty 1 fps flow, which with the normal bucket needs a ~1.5x
reservation, achieves its full rate at the *smooth* flow's reservation
once the sender shapes its own traffic.
"""

from repro.experiments.fig6_visualization import measure_cell

BANDWIDTH_KBPS = 400.0
RESERVATION_KBPS = 550.0  # adequate for the smooth 10 fps profile
FRAME_KB = 50_000 / 1024  # 1 fps at 400 Kb/s


def test_shaping_rescues_bursty_flow(once):
    def experiment():
        unshaped = measure_cell(
            FRAME_KB, RESERVATION_KBPS, duration=8.0, fps=1.0,
            bucket_divisor=40.0, shaped=False,
        )
        shaped = measure_cell(
            FRAME_KB, RESERVATION_KBPS, duration=8.0, fps=1.0,
            bucket_divisor=40.0, shaped=True,
        )
        return unshaped, shaped

    unshaped, shaped = once(experiment)
    # Without shaping, the burst blows through the normal bucket and
    # TCP pays the recovery cost: the stream misses its target.
    assert unshaped < 0.9 * BANDWIDTH_KBPS
    # With end-system shaping, the same reservation delivers in full.
    assert shaped > 0.95 * BANDWIDTH_KBPS
    assert shaped > 1.1 * unshaped
