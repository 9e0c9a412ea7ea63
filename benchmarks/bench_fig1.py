"""Figure 1 bench: TCP above its reservation oscillates below it.

Shape assertions (paper: flow reserved at 40 Mb/s, sending 50 Mb/s,
bandwidth varies wildly between roughly 20 and 55 Mb/s):

* the mean sits below the attempted rate and near/below the reservation;
* the trace genuinely oscillates (non-trivial standard deviation);
* dips fall well below the reservation, peaks approach/exceed it.

Both datapath modes that claim Fig. 1 fidelity must keep this shape:
the per-packet chain and hybrid (fluid UDP contention).
"""

import pytest

from repro.experiments.fig1_tcp_reservation import run


@pytest.mark.parametrize("mode", ("packet", "hybrid"))
def test_fig1_oscillation(once, mode):
    result = once(run, quick=True, duration=30.0, mode=mode)
    reserved = result.extra["reserved_kbps"]
    attempted = result.extra["attempted_kbps"]
    mean = result.extra["mean_kbps"]
    assert mean < attempted, "cannot exceed the attempted sending rate"
    assert mean > 0.4 * reserved, "flow should still move real data"
    assert mean < 1.05 * reserved, "policing must bite"
    # Wild variation: dips and peaks around the reservation.
    assert result.extra["std_kbps"] > 0.05 * reserved
    assert result.extra["min_kbps"] < 0.85 * reserved
    assert result.extra["max_kbps"] > 0.95 * reserved
    assert result.extra["retransmissions"] > 0
