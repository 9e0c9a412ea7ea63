"""One PDES worker: a full topology build with only owned actors live.

Every shard builds the *entire* scenario from the same seed — topology,
control plane, reservations — so shared state (routes, DiffServ
conditioners, broker tables) is identical everywhere without any
cross-shard RPC. What differs per shard is which **actors** run:
scenario builders install traffic sources, sinks, and application
processes only on nodes the shard owns. The cut-link interfaces owned
by this shard get their :attr:`Interface.remote_egress` hook pointed at
the shard's outbox; the cut-link interfaces owned by peers get a
tripwire that turns any accidental transmission from a non-owned node
into a hard error instead of silent divergence.

Boundary messages are ``(arrival_time, link, direction, channel_seq,
pickled packet)``. The channel sequence number — one counter per
directed cut link — preserves the sender's generation order, so the
receiving shard can replay same-channel messages in exactly the order
serial execution would have pushed them, regardless of how the
transport interleaved them.
"""

from __future__ import annotations

import pickle
from itertools import count
from typing import Callable, List, Optional, Tuple

from ..kernel import Simulator, paused_gc
from ..kernel.events import NORMAL
from ..kernel.simulator import SimulationError
from .plan import ShardPlan

__all__ = ["BoundaryMessage", "ShardRunner"]

#: (dest_shard, arrival_time, link_index, direction, channel_seq, blob).
#: ``direction`` 0 is node_a -> node_b, 1 the reverse.
BoundaryMessage = Tuple[int, float, int, int, int, bytes]


class ShardRunner:
    """Builds and advances one shard's simulator."""

    def __init__(
        self,
        scenario,
        seed: int,
        plan: ShardPlan,
        shard_id: int,
        params: Optional[dict] = None,
    ) -> None:
        if not 0 <= shard_id < plan.n_shards:
            raise ValueError(f"shard_id {shard_id} outside 0..{plan.n_shards - 1}")
        self.scenario = scenario
        self.plan = plan
        self.shard_id = shard_id
        self.sim = Simulator(seed=seed)
        assignment = plan.assignment

        def owns(name: str) -> bool:
            return assignment[name] == shard_id

        self.owns: Callable[[str], bool] = owns
        # The build allocates only long-lived state (qdiscs, timer
        # handles, flow plans); cyclic collections during it free
        # nothing and cost more than half the build.
        with paused_gc():
            self.handle = scenario.build(self.sim, owns, **(params or {}))
        self.boundary_out = 0
        self.boundary_in = 0
        self._outbox: List[BoundaryMessage] = []
        #: (link, direction) -> receiving interface on this shard.
        self._ingress = {}
        if plan.n_shards > 1:
            network = self.handle.network
            for link_idx in plan.cut_links:
                record = network.links[link_idx]
                a_shard = assignment[record.node_a.name]
                b_shard = assignment[record.node_b.name]
                self._wire_egress(
                    link_idx, 0, record.iface_ab, b_shard, a_shard == shard_id
                )
                self._wire_egress(
                    link_idx, 1, record.iface_ba, a_shard, b_shard == shard_id
                )
                if b_shard == shard_id:
                    self._ingress[(link_idx, 0)] = record.iface_ba
                if a_shard == shard_id:
                    self._ingress[(link_idx, 1)] = record.iface_ab

    def _wire_egress(
        self, link_idx: int, direction: int, iface, dest_shard: int, owned: bool
    ) -> None:
        if not owned:
            # The node at this end belongs to a peer shard: nothing on
            # this shard should ever transmit from it. A scenario bug
            # that does must fail loudly, not silently double-deliver.
            def tripwire(arrival: float, packet, _iface=iface) -> None:
                raise SimulationError(
                    f"non-owned interface {_iface!r} transmitted across a "
                    "shard boundary: scenario actors must be ownership-gated"
                )

            iface.remote_egress = tripwire
            return
        chan_seq = count()

        def egress(
            arrival: float,
            packet,
            _dest=dest_shard,
            _link=link_idx,
            _dir=direction,
            _next=chan_seq,
        ) -> None:
            # Append via the attribute, not a captured list: run_window
            # swaps self._outbox for a fresh list every window.
            self.boundary_out += 1
            self._outbox.append(
                (_dest, arrival, _link, _dir, next(_next),
                 pickle.dumps(packet, pickle.HIGHEST_PROTOCOL))
            )

        iface.remote_egress = egress

    # -- window protocol -------------------------------------------------

    def next_time(self) -> float:
        """Earliest pending local event time (``inf`` when idle)."""
        return self.sim.peek()

    def inject(self, messages: List[Tuple[float, int, int, int, bytes]]) -> None:
        """Deliver boundary messages from peer shards.

        Messages are sorted by ``(arrival, link, direction, channel
        seq)`` before scheduling, so the local sequence numbers they
        receive — and therefore all downstream tie-breaking — do not
        depend on the interleaving in which peers produced them.
        Packets are deserialized here: each shard owns a private copy,
        exactly as under process isolation (the in-process backend
        relies on this for byte-identity with the fork backend).
        """
        if not messages:
            return
        messages.sort(key=lambda m: (m[0], m[1], m[2], m[3]))
        inject = self.sim.inject
        ingress = self._ingress
        loads = pickle.loads
        for arrival, link_idx, direction, _seq, blob in messages:
            iface = ingress[(link_idx, direction)]
            inject(arrival, NORMAL, iface._deliver_arrival, loads(blob))
        self.boundary_in += len(messages)

    def run_window(self, limit: float) -> List[BoundaryMessage]:
        """Advance through ``[now, limit)`` and return the outbox."""
        self.sim.run_window(limit)
        out, self._outbox = self._outbox, []
        return out

    def finalize(self, until: float) -> None:
        """Advance the clock to the end of the run.

        By the time the coordinator calls this, every event at or
        before ``until`` has been processed (the barrier loop only
        terminates once the global next-event time passes ``until``),
        so this matches serial ``run(until=...)`` semantics: the clock
        lands exactly on ``until`` and later-scheduled work stays
        unprocessed.
        """
        self.sim.run(until=until)

    def collect(self) -> dict:
        """The scenario's per-shard partial result."""
        return self.scenario.collect(self.handle)

    @property
    def registry(self):
        """The shard's metrics registry, if the scenario keeps one."""
        return getattr(self.handle, "registry", None)
