"""Determinism regression suite.

The kernel's fast path (lazy cancellation, heap compaction, handle
reuse via reschedule, call_fast entries) must never change observable
event ordering: a fixed seed must give bit-identical results run to
run, and the parallel runner's merged output must equal the serial
output. These tests pin both properties.
"""

import numpy as np
import pytest

from repro.experiments import fig1_tcp_reservation, table1_l4s
from repro.experiments.parallel import GRIDS
from repro.kernel import Simulator
from repro.net import KB
from repro.kernel.simulator import _COMPACT_MIN_DEAD


# ---------------------------------------------------------------------------
# Whole-experiment bit-identity
# ---------------------------------------------------------------------------


def _fig1_fingerprint(seed=0):
    result = fig1_tcp_reservation.run(quick=True, seed=seed, duration=4.0)
    series = {
        k: (tuple(map(float, x)), tuple(map(float, y)))
        for k, (x, y) in result.series.items()
    }
    return series, tuple(map(tuple, result.rows)), dict(result.extra)


def test_fig1_quick_twice_bit_identical():
    assert _fig1_fingerprint() == _fig1_fingerprint()


# ---------------------------------------------------------------------------
# Kernel ordering properties
# ---------------------------------------------------------------------------


class TestKernelOrdering:
    def test_compaction_preserves_order(self):
        """Firing order with mass cancellation == order without any
        compaction (small heaps never compact)."""

        def build(n_timers, cancel_stride):
            sim = Simulator(seed=0)
            fired = []
            handles = [
                sim.call_in(
                    (i % 7) * 0.001, lambda i=i: fired.append(i)
                )
                for i in range(n_timers)
            ]
            cancelled = set()
            for i in range(0, n_timers, cancel_stride):
                handles[i].cancel()
                cancelled.add(i)
            sim.run()
            return fired, cancelled

        # Big enough that the >50% dead compaction triggers...
        big_fired, big_cancelled = build(4 * _COMPACT_MIN_DEAD, 2)
        assert big_fired == [
            i
            for i in sorted(
                range(4 * _COMPACT_MIN_DEAD),
                key=lambda i: ((i % 7) * 0.001, i),
            )
            if i not in big_cancelled
        ]

    def test_reschedule_matches_cancel_plus_call_in(self):
        """reschedule() must consume exactly one sequence number, so
        interleavings with other timers are identical to the
        cancel-then-call_in spelling."""

        def variant(use_reschedule):
            sim = Simulator(seed=0)
            fired = []
            handle = sim.call_in(0.010, fired.append, "rearmed")
            sim.call_in(0.001, fired.append, "a")
            if use_reschedule:
                sim.reschedule(handle, 0.005)
            else:
                handle.cancel()
                sim.call_in(0.005, fired.append, "rearmed")
            # Same absolute time as the re-armed timer: the tie must
            # break the same way in both spellings.
            sim.call_in(0.005, fired.append, "tie")
            sim.run()
            return fired

        assert variant(True) == variant(False) == ["a", "rearmed", "tie"]

    def test_rescheduled_old_entry_never_fires(self):
        sim = Simulator(seed=0)
        fired = []
        handle = sim.call_in(0.001, fired.append, "x")
        sim.reschedule(handle, 0.100)
        sim.run(until=0.050)
        assert fired == []
        sim.run(until=0.200)
        assert fired == ["x"]

    def test_call_fast_ties_break_by_insertion(self):
        sim = Simulator(seed=0)
        fired = []
        sim.call_fast(0.001, fired.append, "fast1")
        sim.call_in(0.001, fired.append, "timer")
        sim.call_fast(0.001, fired.append, "fast2")
        sim.run()
        assert fired == ["fast1", "timer", "fast2"]

    def test_events_processed_excludes_dead_entries(self):
        sim = Simulator(seed=0)
        live = [sim.call_in(0.001, lambda: None) for _ in range(5)]
        dead = [sim.call_in(0.002, lambda: None) for _ in range(5)]
        for handle in dead:
            handle.cancel()
        sim.run()
        assert sim.events_processed == len(live)

    def test_mass_cancel_compacts_heap(self):
        sim = Simulator(seed=0)
        handles = [
            sim.call_in(1.0, lambda: None)
            for _ in range(4 * _COMPACT_MIN_DEAD)
        ]
        for handle in handles[: 3 * _COMPACT_MIN_DEAD]:
            handle.cancel()
        # Compaction triggered along the way: the heap shrank below
        # the push total, and dead-count bookkeeping stayed exact
        # (queue length minus tracked dead == live survivors).
        assert len(sim._queue) < 4 * _COMPACT_MIN_DEAD
        assert len(sim._queue) - sim._dead == _COMPACT_MIN_DEAD


# ---------------------------------------------------------------------------
# Partitioned-merge identity (the parallel runner's merge path)
# ---------------------------------------------------------------------------


#: Cells in each gridded experiment's --quick plan.
_QUICK_CELLS = {
    "fig6": 8,  # 2 frame sizes x 4 reservations
    "table1": 6,  # 2 bandwidths x 3 configs
    "table1_aqm": 18,  # 2 bandwidths x 3 configs x 3 modes
    "table1_l4s": 24,  # 2 bandwidths x 3 configs x 4 modes
    "fig_adaptation": 2,  # 2 flavors
}

#: A grid per experiment that differs from its --quick default.
_REDUCED = {
    "fig6": dict(frame_sizes_kb=[5, 20], reservations_kbps=[200.0, 800.0]),
    "table1": dict(bandwidths_kbps=[400.0, 2400.0], duration=2.0),
    "table1_aqm": dict(bandwidths_kbps=[1600.0], duration=2.0),
    "table1_l4s": dict(bandwidths_kbps=[1600.0], duration=2.0),
    "fig_adaptation": dict(duration=6.0),
}

_CELL_FIELDS = {
    "table1_aqm": ("reservation_kbps", "throughput_kbps", "resent_segments",
                   "timeouts", "early_drops", "tail_drops", "ecn_marks",
                   "ce_received", "ecn_responses", "queue_delay_ms"),
    "fig_adaptation": ("compliance", "violation_seconds", "episodes",
                       "flaps", "flap_bound", "renegotiations",
                       "degradations", "restores", "broker_retries",
                       "granted_kbps", "throughput_kbps"),
}
_CELL_FIELDS["table1_l4s"] = _CELL_FIELDS["table1_aqm"]
_AQM_COLUMNS = _CELL_FIELDS["table1_aqm"][:7]


def _fake_cell(name, i):
    """A distinct stand-in measurement for the i-th planned cell."""
    if name not in _CELL_FIELDS:
        return float(100 * i)
    return {f: float(100 * i + j) for j, f in enumerate(_CELL_FIELDS[name])}


def _check_fig6(result, cells):
    for row, ((frame_kb, reservation), value) in zip(result.rows, cells.items()):
        assert row == [frame_kb * KB * 8 * 10 / 1e3, reservation, value]
    for frame_kb in {k[0] for k in cells}:
        xs, ys = result.series[f"{frame_kb * KB * 8 * 10 / 1e3:.0f}Kb/s"]
        assert list(ys) == [v for k, v in cells.items() if k[0] == frame_kb]
        assert list(xs) == [k[1] for k in cells if k[0] == frame_kb]


def _check_table1(result, cells):
    # Each value lands in its (bandwidth row, config column).
    for row in result.rows:
        for offset, label in enumerate(result.headers[1:]):
            assert row[1 + offset] == cells[(row[0], label)]


def _check_aqm_rows(result, cells, columns):
    for row in result.rows:
        cell = cells[tuple(row[:3])]
        assert row[3:] == [cell[f] for f in columns]
    # The per-mode totals must be sums over that mode's cells.
    for mode in {m for _, _, m in cells}:
        mode_cells = [c for (_, _, m), c in cells.items() if m == mode]
        key = mode.replace("+", "_")
        assert result.extra[f"{key}_resent_segments"] == sum(
            c["resent_segments"] for c in mode_cells
        )
        assert result.extra[f"{key}_timeouts"] == sum(
            c["timeouts"] for c in mode_cells
        )


def _check_table1_aqm(result, cells):
    _check_aqm_rows(result, cells, _AQM_COLUMNS)
    assert not any("queue_delay" in k for k in result.extra)


def _check_table1_l4s(result, cells):
    _check_aqm_rows(result, cells, _AQM_COLUMNS + ("queue_delay_ms",))
    for mode in table1_l4s.MODES:
        mode_cells = [c for (_, _, m), c in cells.items() if m == mode]
        key = mode.replace("+", "_")
        assert result.extra[f"{key}_mean_queue_delay_ms"] == pytest.approx(
            sum(c["queue_delay_ms"] for c in mode_cells) / len(mode_cells)
        )


def _check_fig_adaptation(result, cells):
    static, adaptive = cells["static"], cells["adaptive"]
    assert result.headers[0] == "flavor"
    assert [row[0] for row in result.rows] == ["static", "adaptive"]
    assert result.extra["static_compliance"] == static["compliance"]
    assert result.extra["adaptive_compliance"] == adaptive["compliance"]
    assert result.extra["compliance_gain"] == pytest.approx(
        adaptive["compliance"] - static["compliance"]
    )


_CHECKS = {
    "fig6": _check_fig6,
    "table1": _check_table1,
    "table1_aqm": _check_table1_aqm,
    "table1_l4s": _check_table1_l4s,
    "fig_adaptation": _check_fig_adaptation,
}


def test_every_gridded_experiment_is_covered():
    assert set(GRIDS) == set(_QUICK_CELLS) == set(_REDUCED) == set(_CHECKS)


class TestPartitionedMerge:
    """The parallel runner's merge path, for every module in GRIDS."""

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_plan_covers_quick_grid(self, name):
        keys = [k for k, _ in GRIDS[name].plan_cells(quick=True)]
        assert len(keys) == len(set(keys)) == _QUICK_CELLS[name]
        if hasattr(GRIDS[name], "MODES"):
            assert {k[2] for k in keys} == set(GRIDS[name].MODES)

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_run_matches_cell_results_merge(self, name, monkeypatch):
        """run() measures exactly the planned cells, with the caller's
        seed, and renders what run(cell_results=...) renders from the
        same values — the contract the parallel merge depends on.
        measure_cell is replaced by a stand-in, so this runs no
        simulation; the pooled path with real cells is covered by
        test_experiments' CLI comparison."""
        module = GRIDS[name]
        grid = _REDUCED[name]
        plan = module.plan_cells(**grid)
        cells = {key: _fake_cell(name, i) for i, (key, _) in enumerate(plan)}
        by_kwargs = {
            tuple(sorted(kwargs.items())): cells[key] for key, kwargs in plan
        }
        seeds = []

        def fake_measure_cell(seed, **kwargs):
            seeds.append(seed)
            return by_kwargs[tuple(sorted(kwargs.items()))]

        monkeypatch.setattr(module, "measure_cell", fake_measure_cell)
        serial = module.run(seed=5, **grid)
        merged = module.run(seed=5, cell_results=cells, **grid)
        assert seeds == [5] * len(plan)
        assert merged.headers == serial.headers
        assert merged.rows == serial.rows
        assert merged.extra == serial.extra
        assert merged.series.keys() == serial.series.keys()
        for key in serial.series:
            np.testing.assert_array_equal(
                merged.series[key][1], serial.series[key][1]
            )
        _CHECKS[name](merged, cells)

    def test_table1_l4s_cell_results_assembly(self):
        """Injected cell dicts on the --quick grid land in the right row,
        with per-mode totals and mean queue delay — no simulation."""
        cells = {
            key: _fake_cell("table1_l4s", i)
            for i, (key, _) in enumerate(table1_l4s.plan_cells(quick=True))
        }
        result = table1_l4s.run(quick=True, cell_results=cells)
        assert len(result.rows) == _QUICK_CELLS["table1_l4s"]
        _check_table1_l4s(result, cells)

    def test_table1_l4s_cell_results_match_serial(self):
        """Really measured cells fed back through run(cell_results=...)
        reproduce the serial run exactly, on a reduced grid."""
        grid = _REDUCED["table1_l4s"]
        serial = table1_l4s.run(seed=0, **grid)
        cells = {
            key: table1_l4s.measure_cell(seed=0, **kwargs)
            for key, kwargs in table1_l4s.plan_cells(**grid)
        }
        merged = table1_l4s.run(seed=0, cell_results=cells, **grid)
        assert merged.rows == serial.rows
        assert merged.extra == serial.extra


# ---------------------------------------------------------------------------
# call_at contract
# ---------------------------------------------------------------------------


def test_call_at_past_raises():
    sim = Simulator(seed=0)
    sim.call_in(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(0.5, lambda: None)
