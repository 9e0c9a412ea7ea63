"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench/test_perfbench.py

The pin tests tie the benchmark to the existing history without
editing it: where a workload runs the configuration of an entry in a
``BENCH_*.json`` file, its seed-0 counts must equal that entry's pins.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import PROBES, coverage_errors  # noqa: E402
from run import failed_requests  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402
from workloads import WORKLOADS, GarnetSharded, SimWatch  # noqa: E402


def last_entry(name: str) -> dict:
    return json.loads((ROOT / name).read_text())["history"][-1]


@pytest.fixture
def watch():
    watch = SimWatch()
    yield watch
    watch.close()


def test_fig1_packet_matches_kernel_pin(watch):
    rep = WORKLOADS["fig1_packet"].rep(0, watch)
    assert rep.errors == []
    assert rep.events == last_entry("BENCH_kernel.json")["events"]


def test_l4s_codel_matches_codel_pin(watch):
    rep = WORKLOADS["l4s_codel"].rep(0, watch)
    assert rep.errors == []
    assert rep.events == last_entry("BENCH_aqm_codel.json")["events"]


def test_garnet_sharded_matches_pdes_pins(watch):
    # The pins are for garnet_xl itself; the workload's reps run it
    # with a quarter of the flows (GARNET_PARAMS) through the same code.
    pinned = last_entry("BENCH_pdes.json")["pinned"]
    rep = GarnetSharded().rep(0, watch)
    assert rep.errors == []
    assert rep.info["per_shard_events"] == pinned["per_shard_events"]
    assert rep.info["windows"] == pinned["windows"]
    assert rep.info["boundary_msgs"] == pinned["boundary_messages"]


def test_broker_admit_invariants_and_digest(watch):
    first = WORKLOADS["broker_admit"].rep(0, watch)
    again = WORKLOADS["broker_admit"].rep(0, watch)
    assert first.errors == [] and again.errors == []
    assert first.digest == again.digest
    assert len(first.info["latencies"]) == first.info["pairs"]


def test_broker_run_level_failure_fails_every_request(watch):
    rep = WORKLOADS["broker_admit"].rep(0, watch)
    assert failed_requests(rep) == 0
    rep.errors.append("broker: 3 slot entries still live")
    assert failed_requests(rep) == rep.info["pairs"]
    rep.errors = ["broker: 5 requests got an error or refusal"]
    rep.info["bad_replies"] = 5
    assert failed_requests(rep) == 5


def test_garnet_setup_only_stops_and_reaps_its_shards(watch):
    import multiprocessing as mp

    assert WORKLOADS["garnet_sharded"].setup_only(0, watch) > 0.0
    assert mp.active_children() == []


def test_setup_only_stops_at_first_event(watch):
    assert WORKLOADS["l4s_codel"].setup_only(0, watch) > 0.0
    assert watch.events() == (0, 0)


class _Box:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    def maybe(self, flag):
        return flag


def test_span_self_time_excludes_child_spans():
    tracer = Tracer("t")
    patches = Patches()
    patches.wrap(_Box, "outer", lambda fn: tracer.span("o", "a", fn))
    patches.wrap(_Box, "inner", lambda fn: tracer.span("i", "b", fn))
    patches.wrap(_Box, "maybe", lambda fn: tracer.count(
        "m", "b", fn, lambda args, kwargs, result: result is False))
    try:
        tracer.mark_run()
        box = _Box()
        assert box.outer() == 2
        box.maybe(False)
        box.maybe(True)
    finally:
        patches.restore()
    assert _Box.__dict__["inner"].__name__ == "inner"
    outer, inner, maybe = (tracer.stats[n] for n in "oim")
    assert outer[0] == inner[0] == 1
    assert outer[3] == pytest.approx(outer[2] - inner[2])
    assert maybe[:2] == [2, 1]
    by_id = {span[0]: span for span in tracer.spans}
    child = next(s for s in tracer.spans if s[2] == "i")
    assert by_id[child[1]][2] == "o"
    assert tracer.phase("run")["o"][0] == 1
    assert tracer.phase("setup")["o"][0] == 0


def test_coverage_flags_a_documented_probe_without_calls():
    tracer = Tracer("t")
    for probe in PROBES:
        tracer.stats[probe.name] = [0, 0, 0.0, 0.0]
    errors = coverage_errors(tracer, "broker_admit")
    assert any("broker.admit_path" in e for e in errors)
    assert not any("net.tx_done" in e for e in errors)
