"""The hybrid datapath: burst drain plus fluid background traffic.

Two contracts are pinned here:

* ``dequeue_batch(n)`` is *exactly* n sequential ``dequeue()`` calls
  for every registered discipline (property-based, two twin instances
  driven identically) — hybrid mode's burst drain relies on it;
* hybrid mode tracks packet mode within the documented fidelity
  bounds, and its credited-event accounting is live.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.aqm import registered_qdisc_factories
from repro.diffserv import EF, af_dscp
from repro.kernel import Simulator
from repro.net import ECN_ECT0, ECN_NOT_ECT, Packet

DSCPS = [0, EF] + [af_dscp(c, p) for c in (1, 4) for p in (1, 2, 3)]

op_strategy = st.one_of(
    st.tuples(
        st.just("enq"),
        st.integers(min_value=40, max_value=1500),
        st.sampled_from(DSCPS),
        st.sampled_from([ECN_NOT_ECT, ECN_ECT0]),
    ),
    st.tuples(st.just("deq")),
    st.tuples(st.just("tick"), st.sampled_from([0.004, 0.11, 0.3])),
)

ops_lists = st.lists(op_strategy, min_size=1, max_size=120)


def _drive(name, ops, seed):
    """Build one (sim, qdisc) pair and apply the op prefix."""
    sim = Simulator(seed=seed)
    qdisc = registered_qdisc_factories()[name](sim)
    for i, op in enumerate(ops):
        if op[0] == "enq":
            _, size, dscp, ecn = op
            qdisc.enqueue(
                Packet(1, 2, 1000 + i, 2000, 17, size, None, dscp,
                       64, 0.0, ecn)
            )
        elif op[0] == "deq":
            qdisc.dequeue()
        else:
            sim.run(until=sim.now + op[1])
    return sim, qdisc


def _key(packet):
    # sport encodes the creation index, so this identifies the packet
    # across the two twin instances.
    return (packet.sport, packet.size, packet.dscp, packet.ecn)


@pytest.mark.parametrize("name", sorted(registered_qdisc_factories()))
class TestDequeueBatchEquivalence:
    """dequeue_batch(n) == n sequential dequeue() for every qdisc.

    Two twin instances (same seed, same op history, so any RNG draws
    are aligned) — one drains through ``dequeue_batch``, the other
    through a sequential loop; the packet sequence and every backlog
    counter must match exactly.
    """

    @given(
        ops=ops_lists,
        n=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_sequential(self, name, ops, n, seed):
        sim_a, batched = _drive(name, ops, seed)
        sim_b, sequential = _drive(name, ops, seed)
        assert sim_a.now == sim_b.now

        got = batched.dequeue_batch(n)
        assert isinstance(got, list)
        assert len(got) <= n

        want = []
        for _ in range(n):
            packet = sequential.dequeue()
            if packet is None:
                break
            want.append(packet)

        assert [_key(p) for p in got] == [_key(p) for p in want]
        assert len(batched) == len(sequential)
        assert batched.backlog_bytes == sequential.backlog_bytes
        assert batched.total_drops == sequential.total_drops

    def test_empty_returns_empty_list(self, name):
        sim = Simulator(seed=0)
        qdisc = registered_qdisc_factories()[name](sim)
        assert qdisc.dequeue_batch(8) == []
        assert qdisc.dequeue_batch(0) == []


def _fig1(mode, duration):
    from repro.experiments import fig1_tcp_reservation

    return fig1_tcp_reservation.run(
        quick=True, seed=0, duration=duration, mode=mode
    )


class TestHybridMode:
    @pytest.mark.parametrize("mode", ["turbo", "batch"])
    def test_mode_validation(self, mode):
        with pytest.raises(ValueError):
            Simulator(mode=mode)

    def test_fluid_engine_requires_hybrid_mode(self):
        with pytest.raises(RuntimeError):
            Simulator(mode="packet").get_fluid_engine()

    def test_hybrid_credits_events_and_tracks_packet_mode(self):
        """Short-horizon sanity: the fluid engine must be live (events
        credited, UDP contention elided) and the foreground TCP mean
        must stay within the *chaos* bound for this horizon (TCP
        trajectories diverge under µs perturbations; the strict 1%
        bound needs the 60 s horizon — see the slow test below and
        the perf_smoke hybrid gate that CI runs)."""
        hybrid = _fig1("hybrid", 12.0)
        assert hybrid.extra["mode"] == "hybrid"
        assert hybrid.extra["events_credited"] > 0
        packet = _fig1("packet", 12.0)
        err = abs(
            hybrid.extra["mean_kbps"] - packet.extra["mean_kbps"]
        ) / packet.extra["mean_kbps"]
        assert err < 0.05, f"hybrid diverged {err:.1%} at 12 s"
        # The elided contention stream is substantial: ~2.5k
        # datagrams/s at 30 Mb/s, each worth 2*hops+2 events, so the
        # credit over 12 s is six figures.
        assert hybrid.extra["events_credited"] > 100_000

    @pytest.mark.skipif(
        not os.environ.get("REPRO_SLOW_TESTS"),
        reason="60 s fidelity run (~30 s wall); CI runs it via "
               "perf_smoke --workload hybrid",
    )
    def test_hybrid_within_one_percent_at_60s(self):
        hybrid = _fig1("hybrid", 60.0)
        packet = _fig1("packet", 60.0)
        for stat in ("mean_kbps",):
            err = abs(hybrid.extra[stat] - packet.extra[stat]) / packet.extra[stat]
            assert err < 0.01, f"{stat} diverged {err:.3%}"
        delivered_packet = sum(row[1] for row in packet.rows)
        delivered_hybrid = sum(row[1] for row in hybrid.rows)
        err = abs(delivered_hybrid - delivered_packet) / delivered_packet
        assert err < 0.01, f"delivered volume diverged {err:.3%}"
