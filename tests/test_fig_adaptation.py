"""The fig_adaptation experiment: static vs adaptive QoS under the
surge + broker-fault timeline, and its parallel-runner partitioning."""

import pytest

from repro.experiments import fig_adaptation


@pytest.fixture(scope="module")
def cells():
    """One measurement per flavor at a short duration, shared by the
    assertions below (each cell is an independent full simulation)."""
    return {
        flavor: fig_adaptation.measure_cell(flavor, seed=0, duration=20.0)
        for flavor in fig_adaptation.FLAVORS
    }


class TestMeasureCell:
    def test_adaptive_strictly_beats_static(self, cells):
        assert cells["adaptive"]["compliance"] > cells["static"]["compliance"]
        assert (
            cells["adaptive"]["violation_seconds"]
            < cells["static"]["violation_seconds"]
        )

    def test_adaptive_loop_exercised_through_outage(self, cells):
        adaptive = cells["adaptive"]
        assert adaptive["renegotiations"] >= 1
        # The broker crash landed mid-renegotiation and was retried.
        assert adaptive["broker_retries"] >= 1
        assert adaptive["granted_kbps"] > cells["static"]["granted_kbps"]

    def test_static_never_touches_control_plane(self, cells):
        static = cells["static"]
        assert static["renegotiations"] == 0
        assert static["flaps"] == 0
        assert static["broker_retries"] == 0

    def test_flaps_within_documented_bound(self, cells):
        for flavor in fig_adaptation.FLAVORS:
            assert cells[flavor]["flaps"] <= cells[flavor]["flap_bound"]

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError):
            fig_adaptation.measure_cell("turbo", seed=0)


class TestRunAssembly:
    def test_plan_covers_both_flavors(self):
        plan = fig_adaptation.plan_cells(quick=True)
        assert [key for key, _ in plan] == list(fig_adaptation.FLAVORS)
        for _key, kwargs in plan:
            assert kwargs["duration"] == 20.0

    def test_deterministic_given_seed(self):
        a = fig_adaptation.measure_cell("adaptive", seed=3, duration=12.0)
        b = fig_adaptation.measure_cell("adaptive", seed=3, duration=12.0)
        assert a == b
