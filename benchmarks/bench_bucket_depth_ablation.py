"""Ablation: the token-bucket depth rule (DESIGN.md design choice).

§4.3 derives depth = bandwidth * delay but deploys bandwidth/40 "to
allow for larger bursts", and §5.4 shows even that failing for very
bursty flows. This bench sweeps the divisor for the bursty 1 fps flow
at a fixed reservation: deeper buckets (smaller divisors) monotonically
help, and overly shallow buckets starve the flow.
"""

from repro.experiments.fig6_visualization import measure_cell

BANDWIDTH_KBPS = 400.0
RESERVATION_KBPS = 550.0
FRAME_KB = 50_000 / 1024  # 1 fps at 400 Kb/s


def test_depth_divisor_sweep(once):
    def experiment():
        return {
            divisor: measure_cell(
                FRAME_KB, RESERVATION_KBPS, duration=8.0, fps=1.0,
                bucket_divisor=divisor,
            )
            for divisor in (400.0, 40.0, 4.0)
        }

    achieved = once(experiment)
    # Deeper buckets never hurt, and the ends differ dramatically.
    assert achieved[400.0] <= achieved[40.0] + 1.0
    assert achieved[40.0] <= achieved[4.0] + 1.0
    assert achieved[4.0] > 0.9 * BANDWIDTH_KBPS
    assert achieved[400.0] < 0.5 * BANDWIDTH_KBPS
