"""Fluid background traffic: rate envelopes instead of packets.

Hybrid mode (``Simulator(mode="hybrid")``) spends packet-level fidelity
only where the paper's QoS effects live — the premium/AF foreground
flows and their per-hop marking/policing decisions. Background
aggregates (the §5.2 UDP blaster, bulk best-effort) advance
*analytically*: a :class:`FluidAggregate` is a piecewise-constant rate
envelope pushed along its routed path of :class:`FluidChannel`\\ s, each
of which integrates the classic fluid backlog law over one sync tick::

    backlog += in_bytes - leftover_capacity        (clamped at 0)
    leftover_capacity = line_rate*dt - foreground_bytes - burst_served

with overflow above the band queue's capacity counted as drops, exactly
where drop-tail would drop the corresponding packets. Foreground bytes
are observed from the interface's ``tx_bytes`` delta, so the envelope
sees precisely the capacity the packet datapath left unused; in the
other direction, a foreground burst that shares the fluid's band (or a
lower one) is delayed by the backlog standing ahead of it
(:meth:`FluidChannel.on_foreground_burst`), which is how the envelope
occupies queue depth without materialising packets.

Every datagram-equivalent the envelope moves end-to-end credits the
per-packet event chain it replaced (``2*hops + 2`` kernel events: one
enqueue/tx-done pair and one arrival/receive pair per hop — measured
against packet mode on the GARNET path) to
``sim.events_credited``, so ``sim.effective_events`` stays comparable
across modes.

Validity: the fluid approximation holds for high-rate, long-lived,
inelastic aggregates whose per-packet fate is statistically uniform
(CBR/on-off UDP). It is *not* valid for closed-loop traffic (TCP
reacts to individual drops) or for flows whose per-packet marks matter
(AQM-managed AF) — those stay packet-level. See INTERNALS.md,
"Hybrid mode: burst drain & fluid fidelity".
"""

from __future__ import annotations

from typing import List, Optional

from ..diffserv.dscp import CLASS_BE, service_class_of

__all__ = ["FluidAggregate", "FluidChannel", "FluidEngine", "SYNC_INTERVAL"]

#: Default sync-tick period in seconds. 5 ms keeps the integration
#: error of a CBR envelope far below the 1% equivalence budget while
#: costing ~200 kernel events per simulated second.
SYNC_INTERVAL = 5e-3

#: Safety bound when walking route tables to resolve a path.
_MAX_HOPS = 64


def route_interfaces(src, dst) -> list:
    """The egress interfaces a packet from ``src`` to ``dst`` crosses,
    resolved by walking the nodes' routing tables (host default
    interface when no explicit route)."""
    ifaces = []
    node = src
    for _ in range(_MAX_HOPS):
        if node.addr == dst.addr:
            return ifaces
        egress = node.routes.get(dst.addr)
        if egress is None:
            if not node.interfaces:
                raise ValueError(f"{node.name} has no route to {dst.name}")
            egress = node.interfaces[0]
        ifaces.append(egress)
        if egress.peer is None:
            raise ValueError(f"{egress!r} is not connected")
        node = egress.peer.node
    raise ValueError(f"no loop-free path from {src.name} to {dst.name}")


def _band_capacity_bytes(qdisc, klass: int, packet_bytes: int) -> float:
    """Byte capacity of the queue (band) the aggregate's class maps to,
    approximating packet limits at the aggregate's packet size."""
    band = qdisc
    queues = getattr(qdisc, "_queues", None)
    if queues is not None:  # PriorityQdisc-style banded discipline
        band = queues[klass]
    limit_bytes = getattr(band, "limit_bytes", None)
    if limit_bytes:
        return float(limit_bytes)
    limit_packets = getattr(band, "limit_packets", None) or 100
    return float(limit_packets * packet_bytes)


class FluidChannel:
    """The fluid share of one egress interface's line and queue."""

    __slots__ = (
        "iface",
        "klass",
        "packet_bytes",
        "capacity_bytes",
        "backlog_bytes",
        "utilization",
        "fluid_sent_bytes",
        "dropped_bytes",
        "_interval_sent",
        "_last_fg_tx_bytes",
    )

    def __init__(self, iface, klass: int, packet_bytes: int) -> None:
        self.iface = iface
        self.klass = klass
        self.packet_bytes = packet_bytes
        self.capacity_bytes = _band_capacity_bytes(
            iface.qdisc, klass, packet_bytes
        )
        self.backlog_bytes = 0.0
        #: Fraction of the last tick the line spent on fluid bytes —
        #: the probability a foreground burst start finds a fluid
        #: datagram in (non-preemptible) service.
        self.utilization = 0.0
        #: Lifetime bytes the envelope put on this line.
        self.fluid_sent_bytes = 0.0
        #: Lifetime bytes dropped at this hop (queue overflow).
        self.dropped_bytes = 0.0
        # Line usage bookkeeping for one sync interval.
        self._interval_sent = 0.0
        self._last_fg_tx_bytes = iface.tx_bytes
        iface.fluid_channel = self

    def advance(self, dt: float, in_bytes: float) -> float:
        """Integrate one tick: admit ``in_bytes``, drain what the line's
        leftover capacity allows, return the bytes passed downstream."""
        iface = self.iface
        if not iface.up:
            # Dead link: everything offered or queued here is lost.
            self.dropped_bytes += in_bytes + self.backlog_bytes
            self.backlog_bytes = 0.0
            self._last_fg_tx_bytes = iface.tx_bytes
            self._interval_sent = 0.0
            return 0.0
        # Capacity the foreground left unused this interval. tx_bytes
        # only counts real packets, so fluid bytes served ahead of a
        # foreground burst are tracked separately in _interval_sent.
        fg_tx = iface.tx_bytes
        fg_bytes = fg_tx - self._last_fg_tx_bytes
        self._last_fg_tx_bytes = fg_tx
        line_bytes = dt * iface._bandwidth / 8.0
        leftover = line_bytes - fg_bytes - self._interval_sent
        self._interval_sent = 0.0
        if leftover < 0.0:
            leftover = 0.0
        queued = self.backlog_bytes + in_bytes
        out = queued if queued <= leftover else leftover
        backlog = queued - out
        if backlog > self.capacity_bytes:
            # The band queue cannot hold this much standing traffic;
            # drop-tail would have refused the excess arrivals.
            self.dropped_bytes += backlog - self.capacity_bytes
            backlog = self.capacity_bytes
        self.backlog_bytes = backlog
        self.fluid_sent_bytes += out
        self.utilization = out / line_bytes if line_bytes > 0.0 else 0.0
        return out

    def on_foreground_burst(self, now: float, batch) -> float:
        """Seconds of fluid backlog served ahead of a foreground burst.

        Strictly higher-priority foreground (a lower service-class
        index than the fluid's band) preempts the envelope but still
        pays the non-preemption residual: with probability equal to
        the fluid's line utilization a burst start finds a fluid
        datagram mid-serialization and waits a uniform fraction of its
        transmission time (the M/G/1 residual-service term — this
        µs-scale jitter measurably shifts closed-loop foreground
        equilibria, so dropping it would bias the hybrid curves).
        Same-or-lower priority waits behind the whole standing
        backlog, which is thereby put on the line (and accounted
        against this interval's capacity).
        """
        iface = self.iface
        if service_class_of(batch[0].dscp) < self.klass:
            utilization = self.utilization
            if utilization > 0.0:
                rng = iface.sim.rng
                if rng.random() < utilization:
                    return (
                        rng.random() * self.packet_bytes * iface._sec_per_byte
                    )
            return 0.0
        backlog = self.backlog_bytes
        if backlog <= 0.0:
            return 0.0
        self.backlog_bytes = 0.0
        self.fluid_sent_bytes += backlog
        self._interval_sent += backlog
        return backlog * iface._sec_per_byte


class FluidAggregate:
    """One background traffic aggregate advancing as a rate envelope."""

    __slots__ = (
        "name",
        "src",
        "dst",
        "rate",
        "packet_bytes",
        "dscp",
        "on_time",
        "off_time",
        "channels",
        "running",
        "offered_bytes",
        "delivered_bytes",
        "delivered_datagrams",
        "_phase_start",
        "_stage_bytes",
        "_datagram_residual",
        "on_offered",
        "on_delivered",
    )

    def __init__(
        self,
        src,
        dst,
        rate: float,
        packet_bytes: int,
        dscp: int = 0,
        on_time: Optional[float] = None,
        off_time: Optional[float] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.name = f"fluid:{src.name}->{dst.name}"
        self.src = src
        self.dst = dst
        self.rate = rate
        self.packet_bytes = packet_bytes
        self.dscp = dscp
        self.on_time = on_time
        self.off_time = off_time
        klass = service_class_of(dscp)
        self.channels: List[FluidChannel] = [
            FluidChannel(iface, klass, packet_bytes)
            for iface in route_interfaces(src, dst)
        ]
        if not self.channels:
            raise ValueError("fluid aggregate needs at least one hop")
        self.running = False
        self.offered_bytes = 0.0
        self.delivered_bytes = 0.0
        self.delivered_datagrams = 0
        self._phase_start = 0.0
        # Bytes in flight per pipeline stage are carried by the
        # channels' backlogs; delivery fraction is tracked here.
        self._stage_bytes = 0.0
        self._datagram_residual = 0.0
        #: Optional observers ``(bytes) -> None`` — the packet-world
        #: counters (generator sent counter, sink rx tally) hook here.
        self.on_offered = None
        self.on_delivered = None

    @property
    def hops(self) -> int:
        return len(self.channels)

    @property
    def dropped_bytes(self) -> float:
        return sum(c.dropped_bytes for c in self.channels)

    def duty_fraction(self, t0: float, t1: float) -> float:
        """Fraction of [t0, t1] the on/off envelope is 'on'."""
        if self.on_time is None:
            return 1.0
        period = self.on_time + self.off_time
        total = 0.0
        t = t0
        while t < t1 - 1e-15:
            phase = (t - self._phase_start) % period
            if phase < self.on_time:
                step = min(self.on_time - phase, t1 - t)
            else:
                step = min(period - phase, t1 - t)
                t += step
                continue
            total += step
            t += step
        return total / (t1 - t0) if t1 > t0 else 0.0

    def advance(self, t0: float, t1: float):
        """Push one tick of the envelope down the path. Returns
        ``(delivered_bytes, credited_events)`` for this tick, where
        credited events count the per-packet chains packet mode would
        have processed: ``2*hops + 2`` per delivered
        datagram-equivalent and ``2*i + 1`` per datagram dropped at
        hop ``i`` (send plus two events per hop already crossed)."""
        dt = t1 - t0
        in_bytes = 0.0
        if self.running:
            in_bytes = self.rate / 8.0 * dt * self.duty_fraction(t0, t1)
            self.offered_bytes += in_bytes
            if self.on_offered is not None and in_bytes:
                self.on_offered(in_bytes)
        flow = in_bytes
        credit = 0.0
        packet_bytes = self.packet_bytes
        for i, channel in enumerate(self.channels):
            dropped_before = channel.dropped_bytes
            flow = channel.advance(dt, flow)
            dropped = channel.dropped_bytes - dropped_before
            if dropped > 0.0:
                credit += dropped / packet_bytes * (2 * i + 1)
        if flow > 0.0:
            self.delivered_bytes += flow
            credit += flow / packet_bytes * (2 * len(self.channels) + 2)
            grams = (flow + self._datagram_residual) / packet_bytes
            whole = int(grams)
            self._datagram_residual = (grams - whole) * packet_bytes
            self.delivered_datagrams += whole
            if self.on_delivered is not None:
                self.on_delivered(flow)
        return flow, credit


class FluidEngine:
    """Owns the registered aggregates and the periodic sync tick."""

    __slots__ = (
        "sim",
        "interval",
        "aggregates",
        "_ticking",
        "_last_tick",
        "_credit_residual",
        "ticks",
    )

    def __init__(self, sim, interval: float = SYNC_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("sync interval must be positive")
        self.sim = sim
        self.interval = interval
        self.aggregates: List[FluidAggregate] = []
        self._ticking = False
        self._last_tick = sim._now
        self._credit_residual = 0.0
        self.ticks = 0

    def register(self, aggregate: FluidAggregate) -> FluidAggregate:
        self.aggregates.append(aggregate)
        if not self._ticking:
            self._ticking = True
            self._last_tick = self.sim._now
            self.sim.call_fast(self.interval, self._tick, None)
        return aggregate

    def _tick(self, _arg) -> None:
        sim = self.sim
        now = sim._now
        t0 = self._last_tick
        self._last_tick = now
        self.ticks += 1
        credit = self._credit_residual
        for aggregate in self.aggregates:
            _delivered, tick_credit = aggregate.advance(t0, now)
            credit += tick_credit
        whole = int(credit)
        self._credit_residual = credit - whole
        sim.events_credited += whole
        sim.call_fast(self.interval, self._tick, None)

    def stats(self) -> dict:
        return {
            "interval": self.interval,
            "ticks": self.ticks,
            "aggregates": [
                {
                    "name": a.name,
                    "running": a.running,
                    "offered_bytes": a.offered_bytes,
                    "delivered_bytes": a.delivered_bytes,
                    "delivered_datagrams": a.delivered_datagrams,
                    "dropped_bytes": a.dropped_bytes,
                    "hops": a.hops,
                }
                for a in self.aggregates
            ],
        }
