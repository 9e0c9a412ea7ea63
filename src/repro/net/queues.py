"""Output-queue disciplines (qdiscs).

A qdisc sits on the egress side of an interface. The base discipline
here is drop-tail FIFO; the DiffServ priority-queuing discipline lives
in :mod:`repro.diffserv.phb` and implements the same interface.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from .packet import Packet

__all__ = ["Qdisc", "DropTailQueue"]


class Qdisc:
    """Interface all queue disciplines implement.

    Drop accounting contract: every discipline exposes ``drops`` (the
    packets it refused or discarded, *including* any internal policer
    or AQM losses) and ``total_drops``, the figure telemetry and
    experiments consume. The default ``total_drops`` simply mirrors
    ``drops``; disciplines that keep finer-grained counters (tail vs
    early vs policer) must make sure the two stay consistent — a
    packet handed to ``enqueue`` is either *eventually* dequeued, or
    counted in ``drops`` exactly once. (Dequeue-time droppers such as
    CoDel discard packets they previously accepted; the conservation
    law is therefore ``enqueued == dequeued + queued + total_drops``,
    not ``accepted == dequeued + queued``.)

    Peek contract: ``peek()`` returns, without removing it, exactly
    the packet the next ``dequeue()`` will return (or None). For
    disciplines that decide drops at dequeue time, peek must run the
    drop machinery and *commit* to its answer — the conventional
    implementation pulls the head through ``dequeue()`` and stashes it
    for the next dequeue call, with ``__len__``/``backlog_bytes``
    still counting the stashed packet. Schedulers (DRR, priority) must
    peek children through this method, never through a child's private
    backlog storage.
    """

    #: Packets this discipline dropped (tail, early, or policed).
    drops: int = 0

    def enqueue(self, packet: Packet) -> bool:
        """Queue ``packet``; return False if it was dropped instead."""
        raise NotImplementedError

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the next packet to transmit, or None."""
        raise NotImplementedError

    def peek(self) -> Optional[Packet]:
        """The packet the next ``dequeue()`` will return, not removed.

        May mutate internal state (run dequeue-time drops, stash the
        head) but must stay consistent: repeated peeks return the same
        packet, and the following dequeue returns it too.
        """
        raise NotImplementedError

    def dequeue_batch(self, limit: int) -> List[Packet]:
        """Dequeue up to ``limit`` packets in one call.

        Burst contract: the returned list is *exactly* what ``limit``
        sequential :meth:`dequeue` calls would have produced with no
        interleaved enqueues or clock advances — same packets, same
        order, same drop/mark decisions, same sojourn stamps, same
        backlog afterwards. The default implementation guarantees this
        by construction (it loops ``dequeue``); disciplines may
        override it with a faster drain but must preserve the
        equivalence (property-tested over every registered discipline).
        The burst drain (:class:`repro.net.node.Interface` in hybrid
        mode) is the only kernel-side caller.
        """
        out: List[Packet] = []
        append = out.append
        dequeue = self.dequeue
        while len(out) < limit:
            packet = dequeue()
            if packet is None:
                break
            append(packet)
        return out

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently queued."""
        raise NotImplementedError

    @property
    def total_drops(self) -> int:
        """All losses at this discipline — the unified figure
        telemetry and experiments use. Equals ``drops`` unless a
        subclass documents otherwise."""
        return self.drops


class DropTailQueue(Qdisc):
    """Bounded FIFO that drops arrivals when full.

    The bound may be expressed in packets, bytes, or both; a packet is
    dropped if admitting it would exceed either bound.
    """

    def __init__(
        self,
        limit_packets: Optional[int] = 1000,
        limit_bytes: Optional[int] = None,
    ) -> None:
        if limit_packets is None and limit_bytes is None:
            raise ValueError("at least one of the limits must be set")
        if limit_packets is not None and limit_packets <= 0:
            raise ValueError("limit_packets must be positive")
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError("limit_bytes must be positive")
        self.limit_packets = limit_packets
        self.limit_bytes = limit_bytes
        # Sentinel copies keep the per-packet admission test free of
        # None checks.
        self._limit_p = limit_packets if limit_packets is not None else float("inf")
        self._limit_b = limit_bytes if limit_bytes is not None else float("inf")
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        #: Total packets dropped at this queue.
        self.drops = 0
        self.drop_bytes = 0
        #: Optional drop observer ``(packet) -> None`` — telemetry and
        #: tests hook here instead of subclassing the queue.
        self.on_drop: Optional[Callable[[Packet], None]] = None

    def _dropped(self, packet: Packet) -> bool:
        self.drops += 1
        self.drop_bytes += packet.size
        if self.on_drop is not None:
            self.on_drop(packet)
        return False

    def enqueue(self, packet: Packet) -> bool:
        if (
            len(self._queue) >= self._limit_p
            or self._bytes + packet.size > self._limit_b
        ):
            return self._dropped(packet)
        self._queue.append(packet)
        self._bytes += packet.size
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        return packet

    def peek(self) -> Optional[Packet]:
        return self._queue[0] if self._queue else None

    def dequeue_batch(self, limit: int) -> List[Packet]:
        # Inlined drain: one bounds check and one byte-sum for the
        # whole burst instead of a method dispatch per packet.
        queue = self._queue
        if not queue:
            return []
        n = min(limit, len(queue))
        popleft = queue.popleft
        out = [popleft() for _ in range(n)]
        self._bytes -= sum(p.size for p in out)
        return out

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def backlog_bytes(self) -> int:
        return self._bytes
