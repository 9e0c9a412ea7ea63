"""The probes of the traced run and the per-layer metrics built from them.

Each probe names one method of the program, the layer its time is
charged to, whether it is a timed span or a plain count, and the
workloads documented to call it. A traced run fails when a documented
probe sees no call: a probe that silently sees nothing would report a
layer as idle while the work goes around it. (``Simulator.call_fast``
and ``Classifier.lookup``, for example, are bypassed by the inlined hot
path and see no call on fig1; they are not probed, and
``kernel.events`` comes from ``Simulator.events_processed``, never from
a wrapper.)
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

__all__ = ["PROBES", "PER_LAYER", "coverage_errors", "layer_metrics"]

SIMS = ("fig1_packet", "fig1_hybrid", "l4s_codel", "garnet_sharded")
FIG1 = ("fig1_packet", "fig1_hybrid")
TCP = ("fig1_packet", "fig1_hybrid", "l4s_codel")
PACKET = ("fig1_packet", "l4s_codel", "garnet_sharded")


def _false(args, kwargs, result) -> bool:
    return result is False


def _packet(args, kwargs, result) -> bool:
    return result is not None


def _live(args, kwargs, result) -> bool:
    # TimerHandle.cancel(self), asked before the call: does it disarm
    # a live timer, or is it a no-op on one already cancelled?
    return not args[0].cancelled


def _live_rearm(args, kwargs, result) -> bool:
    # Simulator.reschedule(self, handle, delay), asked before the call:
    # re-arming a live handle orphans its pending entry; re-arming a
    # cancelled one does not, since its cancel already counted it (the
    # kernel's own dead-entry count makes the same distinction).
    return not args[1].cancelled


def _retx(args, kwargs, result) -> bool:
    # TcpConnection._send_data_segment(self, seq, length, retx)
    return bool(kwargs["retx"] if "retx" in kwargs else args[3])


class Probe(NamedTuple):
    name: str
    target: str
    kind: str  # "span" or "count"
    layer: str
    used_by: Tuple[str, ...]
    hit: Optional[object] = None
    #: Classify with ``hit`` before the call instead of after it.
    before: bool = False


_N = "repro.net.node:"
_PQ = "repro.diffserv.phb:PriorityQdisc."
_TCP = "repro.transport.tcp.connection:TcpConnection."

PROBES: Tuple[Probe, ...] = (
    # kernel: the run loop is the outermost span of every simulation.
    Probe("kernel.run", "repro.kernel.simulator:Simulator.run", "span",
          "kernel", SIMS),
    Probe("kernel.call_in", "repro.kernel.simulator:Simulator.call_in",
          "count", "kernel", SIMS),
    Probe("kernel.reschedule", "repro.kernel.simulator:Simulator.reschedule",
          "count", "kernel", TCP, _live_rearm, before=True),
    Probe("kernel.cancel", "repro.kernel.simulator:TimerHandle.cancel",
          "count", "kernel", TCP, _live, before=True),
    # net: the kernel calls into the datapath through the interface's
    # transmit-done and arrival callbacks (or the burst drain in hybrid
    # mode); transports and actors call in through Interface.send.
    Probe("net.iface_send", _N + "Interface.send", "span", "net", SIMS,
          _false),
    Probe("net.tx_done", _N + "Interface._tx_done_impl", "span", "net",
          PACKET),
    Probe("net.drain_batch", _N + "Interface._drain_batch", "span", "net",
          ("fig1_hybrid",)),
    Probe("net.deliver_arrival", _N + "Interface._deliver_arrival", "span",
          "net", SIMS),
    Probe("net.router_receive", _N + "Router.receive", "count", "net",
          TCP),
    Probe("net.grid_router_receive", "repro.net.grid:GridRouter.receive",
          "count", "net", ("garnet_sharded",)),
    Probe("net.host_deliver", _N + "Host.deliver", "count", "net", SIMS),
    Probe("net.add_host", "repro.net.topology:Network.add_host", "span",
          "net", SIMS + ("broker_admit",)),
    Probe("net.add_router", "repro.net.topology:Network.add_router", "span",
          "net", TCP + ("broker_admit",)),
    Probe("net.connect", "repro.net.topology:Network.connect", "span", "net",
          SIMS + ("broker_admit",)),
    Probe("net.build_routes", "repro.net.topology:Network.build_routes",
          "span", "net", TCP + ("broker_admit",)),
    # net.fluid: the sync tick and the foreground/background coupling.
    Probe("fluid.tick", "repro.net.fluid:FluidEngine._tick", "span", "fluid",
          ("fig1_hybrid",)),
    Probe("fluid.burst", "repro.net.fluid:FluidChannel.on_foreground_burst",
          "span", "fluid", ("fig1_hybrid",)),
    # diffserv: the priority qdisc, the edge conditioner, the policers.
    Probe("diffserv.pq_enqueue", _PQ + "enqueue", "span", "diffserv",
          FIG1 + ("garnet_sharded",)),
    Probe("diffserv.pq_dequeue", _PQ + "dequeue", "span", "diffserv",
          FIG1 + ("garnet_sharded",), _packet),
    Probe("diffserv.pq_dequeue_batch", _PQ + "dequeue_batch", "span",
          "diffserv", ("fig1_hybrid",)),
    Probe("diffserv.conditioner",
          "repro.diffserv.conditioner:TrafficConditioner.__call__", "span",
          "diffserv", TCP),
    Probe("diffserv.police",
          "repro.diffserv.token_bucket:TokenBucket.consume", "count",
          "diffserv", TCP, _false),
    # aqm: the DRR scheduler, its CoDel band, and the three-colour
    # marking rules at the edge.
    Probe("aqm.drr_enqueue", "repro.aqm.drr:DrrQdisc.enqueue", "span", "aqm",
          ("l4s_codel",)),
    Probe("aqm.drr_dequeue", "repro.aqm.drr:DrrQdisc.dequeue", "span", "aqm",
          ("l4s_codel",)),
    Probe("aqm.codel_enqueue", "repro.aqm.codel:CoDelQdisc.enqueue", "count",
          "aqm", ("l4s_codel",)),
    Probe("aqm.codel_dequeue", "repro.aqm.codel:CoDelQdisc.dequeue", "count",
          "aqm", ("l4s_codel",)),
    Probe("aqm.codel_drop", "repro.aqm.codel:CoDelQdisc._dropped", "count",
          "aqm", ()),
    Probe("aqm.codel_mark", "repro.aqm.codel:CoDelQdisc._marked", "count",
          "aqm", ("l4s_codel",)),
    Probe("aqm.tcm_apply", "repro.aqm.marker:TcmMarking.apply", "span", "aqm",
          ("l4s_codel",)),
    # transport: segment arrival from the host, the application calls,
    # and the timer callbacks the kernel fires.
    Probe("transport.tcp_receive", "repro.transport.tcp.layer:TcpLayer.receive",
          "span", "transport", TCP),
    Probe("transport.tcp_send", _TCP + "send", "span", "transport", TCP),
    Probe("transport.tcp_recv", _TCP + "recv", "span", "transport", FIG1),
    Probe("transport.tcp_segment", _TCP + "_send_data_segment", "count",
          "transport", TCP, _retx),
    Probe("transport.tcp_rto", _TCP + "_on_rto", "span", "transport", ()),
    Probe("transport.tcp_delack", _TCP + "_on_delack", "span", "transport",
          ()),
    Probe("transport.udp_sendto", "repro.transport.udp:UdpSocket.sendto",
          "span", "transport", ("fig1_packet", "l4s_codel")),
    Probe("transport.udp_receive", "repro.transport.udp:UdpLayer.receive",
          "span", "transport", ("fig1_packet", "l4s_codel")),
    # pdes: the partition plan, and the shard side of each lockstep
    # window. run_scenario calls make_plan through its own module's
    # name, so that is the name probed.
    Probe("pdes.make_plan", "repro.pdes.runtime:make_plan", "span", "pdes",
          ("garnet_sharded",)),
    Probe("pdes.inject", "repro.pdes.shard:ShardRunner.inject", "span", "pdes",
          ("garnet_sharded",)),
    Probe("pdes.run_window", "repro.pdes.shard:ShardRunner.run_window",
          "span", "pdes", ("garnet_sharded",)),
    # broker: gara admission control, the wire service, the journals.
    Probe("broker.admit_path", "repro.gara.broker:BandwidthBroker.admit_path",
          "span", "broker", TCP + ("broker_admit",)),
    Probe("broker.release", "repro.gara.broker:BandwidthBroker.release",
          "span", "broker", ("broker_admit",)),
    Probe("broker.execute",
          "repro.broker_service.server:BrokerService._execute", "span",
          "broker", ("broker_admit",)),
    Probe("journal.append", "repro.resilience.journal:Journal.append", "span",
          "broker", ("broker_admit",)),
)

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("kernel.events", "count"),
    ("kernel.credited", "count"),
    ("kernel.timer_waste_frac", "frac"),
    ("kernel.self_share", "frac"),
    ("net.iface_send.per_event", "1/event"),
    ("net.router_receive.per_event", "1/event"),
    ("net.host_deliver.per_event", "1/event"),
    ("net.qdisc_drop_frac", "frac"),
    ("net.self_share", "frac"),
    ("fluid.ticks", "count"),
    ("fluid.tick_us", "us"),
    ("fluid.self_share", "frac"),
    ("diffserv.pq_ops.per_event", "1/event"),
    ("diffserv.pq_dequeue_hit_frac", "frac"),
    ("diffserv.police.per_event", "1/event"),
    ("diffserv.police_drop_frac", "frac"),
    ("diffserv.self_share", "frac"),
    ("aqm.enqueue.per_event", "1/event"),
    ("aqm.dequeue.per_event", "1/event"),
    ("aqm.drop_frac", "frac"),
    ("aqm.mark_frac", "frac"),
    ("aqm.self_share", "frac"),
    ("transport.tcp_receive.per_event", "1/event"),
    ("transport.tcp_retx_frac", "frac"),
    ("transport.udp_sendto.per_event", "1/event"),
    ("transport.self_share", "frac"),
    ("pdes.windows", "count"),
    ("pdes.boundary_msgs", "count"),
    ("pdes.barrier_wait_s", "s"),
    ("pdes.shard_busy_s", "s"),
    ("pdes.imbalance", "ratio"),
    ("setup.topology_s", "s"),
    ("setup.routes_s", "s"),
    ("setup.partition_s", "s"),
    ("broker.admit_path_us", "us"),
    ("journal.append.per_admission", "1/admission"),
    ("journal.append_us", "us"),
    ("broker.self_share", "frac"),
)


def coverage_errors(tracer, workload: str):
    """Probes documented for ``workload`` that saw no call."""
    return [
        f"probe {p.name} ({p.target}) saw no call on {workload}"
        for p in PROBES
        if workload in p.used_by and tracer.stats[p.name][0] == 0
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, run_s: float, events: int, credited: int,
                  pdes: Optional[dict]) -> Dict[str, float]:
    """Every per-layer metric of one traced rep.

    Counts and self times come from the timed phase; ``setup.*`` from
    the set-up phase. ``run_s`` is the traced timed phase, the
    denominator of every ``self_share``.
    """
    run = tracer.phase("run")
    setup = tracer.phase("setup")

    def calls(*names):
        return sum(run[n][0] for n in names)

    def hits(*names):
        return sum(run[n][1] for n in names)

    self_by_layer: Dict[str, float] = {}
    for name, stat in run.items():
        layer = tracer.layers[name]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + stat[3]

    def share(layer):
        return _ratio(self_by_layer.get(layer, 0.0), run_s)

    def mean_us(name):
        return _ratio(run[name][2], run[name][0]) * 1e6

    pq_ops = calls("diffserv.pq_enqueue", "diffserv.pq_dequeue",
                   "diffserv.pq_dequeue_batch")
    codel_in = calls("aqm.codel_enqueue")
    pdes = pdes or {}
    return {
        "kernel.events": events,
        "kernel.credited": credited,
        # Arming work that is thrown away: a live cancel discards the
        # pending entry, a reschedule of a live handle orphans it.
        "kernel.timer_waste_frac": _ratio(
            hits("kernel.cancel", "kernel.reschedule"),
            calls("kernel.call_in", "kernel.reschedule"),
        ),
        "kernel.self_share": share("kernel"),
        "net.iface_send.per_event": _ratio(calls("net.iface_send"), events),
        "net.router_receive.per_event": _ratio(
            calls("net.router_receive", "net.grid_router_receive"), events
        ),
        "net.host_deliver.per_event": _ratio(calls("net.host_deliver"), events),
        "net.qdisc_drop_frac": _ratio(hits("net.iface_send"),
                                      calls("net.iface_send")),
        "net.self_share": share("net"),
        "fluid.ticks": calls("fluid.tick"),
        "fluid.tick_us": mean_us("fluid.tick"),
        "fluid.self_share": share("fluid"),
        "diffserv.pq_ops.per_event": _ratio(pq_ops, events),
        "diffserv.pq_dequeue_hit_frac": _ratio(
            hits("diffserv.pq_dequeue"), calls("diffserv.pq_dequeue")
        ),
        "diffserv.police.per_event": _ratio(calls("diffserv.police"), events),
        "diffserv.police_drop_frac": _ratio(hits("diffserv.police"),
                                            calls("diffserv.police")),
        "diffserv.self_share": share("diffserv"),
        "aqm.enqueue.per_event": _ratio(codel_in, events),
        "aqm.dequeue.per_event": _ratio(calls("aqm.codel_dequeue"), events),
        "aqm.drop_frac": _ratio(calls("aqm.codel_drop"), codel_in),
        "aqm.mark_frac": _ratio(calls("aqm.codel_mark"), codel_in),
        "aqm.self_share": share("aqm"),
        "transport.tcp_receive.per_event": _ratio(
            calls("transport.tcp_receive"), events
        ),
        "transport.tcp_retx_frac": _ratio(hits("transport.tcp_segment"),
                                          calls("transport.tcp_segment")),
        "transport.udp_sendto.per_event": _ratio(
            calls("transport.udp_sendto"), events
        ),
        "transport.self_share": share("transport"),
        "pdes.windows": pdes.get("windows", 0),
        "pdes.boundary_msgs": pdes.get("boundary_msgs", 0),
        "pdes.barrier_wait_s": pdes.get("barrier_wait_s", 0.0),
        "pdes.shard_busy_s": pdes.get("shard_busy_s", 0.0),
        "pdes.imbalance": pdes.get("imbalance", 0.0),
        "setup.topology_s": sum(
            setup[n][2] for n in ("net.add_host", "net.add_router",
                                  "net.connect")
        ),
        "setup.routes_s": setup["net.build_routes"][2],
        "setup.partition_s": setup["pdes.make_plan"][2],
        "broker.admit_path_us": mean_us("broker.admit_path"),
        "journal.append.per_admission": _ratio(calls("journal.append"),
                                               calls("broker.admit_path")),
        "journal.append_us": mean_us("journal.append"),
        "broker.self_share": share("broker"),
    }
