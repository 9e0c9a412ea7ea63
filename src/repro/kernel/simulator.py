"""The discrete-event simulator core.

:class:`Simulator` owns the event heap and the simulation clock. Two
styles of concurrency are supported and freely mixed:

* **generator processes** (:meth:`Simulator.process`) for application
  logic that reads naturally as sequential code, and
* **raw timer callbacks** (:meth:`Simulator.call_in` /
  :meth:`Simulator.call_at` / :meth:`Simulator.call_fast`) for hot
  data-path code (packet transmission, TCP timers) where per-event
  generator overhead would dominate.

Determinism: ties in time are broken by an explicit priority and then
by insertion order, so a simulation with a fixed RNG seed is exactly
reproducible.

Hot-path design
---------------
Heap entries are plain tuples tagged by their fourth element so the run
loop dispatches without ``isinstance``:

* ``(time, priority, seq, _FAST, fn, arg)`` — a fire-and-forget
  single-argument timer from :meth:`Simulator.call_fast`. No handle is
  allocated; it cannot be cancelled. Used for per-packet transmission
  and propagation timers.
* ``(time, priority, seq, _EVENT, event)`` — an :class:`Event` whose
  callbacks run when popped.
* ``(time, priority, seq, gen, handle)`` with ``gen >= 0`` — a
  cancellable :class:`TimerHandle`. ``gen`` is the handle's generation
  at push time; :meth:`Simulator.reschedule` bumps the generation so
  the old entry is recognised as dead when popped, letting TCP's
  cancel-and-rearm RTO pattern reuse one handle object instead of
  allocating a new one per ACK.

``seq`` is unique, so tuple comparison never reaches the tag and mixed
entry lengths are safe. Cancelled/superseded entries are discarded
lazily when popped; when more than half the heap is dead
(:data:`_COMPACT_MIN_DEAD` floor) the heap is compacted in one pass.
"""

from __future__ import annotations

import heapq
import math
import zlib
from itertools import count
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

import numpy as np

from .events import AllOf, AnyOf, Event, NORMAL, Timeout
from .process import Process

__all__ = ["Simulator", "TimerHandle", "SimulationError"]

_heappush = heapq.heappush

# Entry type tags (heap entry element 3). Generations are >= 0, so any
# negative tag is a non-handle entry.
_FAST = -2
_EVENT = -1

#: Compaction never triggers below this many dead entries, so small
#: heaps are never rebuilt; above it, a >50% dead fraction triggers a
#: single-pass rebuild.
_COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused or crashes."""


class TimerHandle:
    """A cancellable handle for a scheduled callback."""

    __slots__ = ("sim", "fn", "args", "time", "cancelled", "_gen")

    def __init__(self, sim: "Simulator", fn: Callable, args: tuple, time: float) -> None:
        self.sim = sim
        self.fn = fn
        self.args = args
        self.time = time
        self.cancelled = False
        self._gen = 0

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already run)."""
        if not self.cancelled:
            self.cancelled = True
            sim = self.sim
            sim._dead += 1
            if (
                sim._dead >= _COMPACT_MIN_DEAD
                and sim._dead * 2 > len(sim._queue)
            ):
                sim._compact()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else f"at t={self.time:.6f}"
        return f"<TimerHandle {getattr(self.fn, '__qualname__', self.fn)} {state}>"


class Simulator:
    """Event heap, clock, and factory for events and processes.

    Parameters
    ----------
    seed:
        Seed for :attr:`rng`, the simulation-wide NumPy random
        generator. All stochastic components draw from this generator
        so runs are reproducible.
    """

    # Slots keep the per-event clock/counter stores at fixed offsets
    # (the run loop writes _now and events_processed ~1M times/run).
    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_dead",
        "_active_proc",
        "rng",
        "_seed",
        "_rng_streams",
        "events_processed",
        "events_credited",
        "mode",
        "fluid",
        "fluid_engine",
        "telemetry",
        "_profiler",
        "__weakref__",
    )

    #: Valid datapath fidelity modes (see the ``mode`` parameter).
    MODES = ("packet", "hybrid")

    def __init__(self, seed: int = 0, mode: str = "packet") -> None:
        if mode not in self.MODES:
            raise ValueError(
                f"unknown simulator mode {mode!r}; expected one of {self.MODES}"
            )
        self._now: float = 0.0
        self._queue: list = []
        # Monotonic insertion counter (C-level; only ever advanced
        # with next()) breaking (time, priority) ties deterministically.
        self._seq = count(1)
        # Estimated dead (cancelled or superseded) entries still in the
        # heap. May overcount when a handle is cancelled after firing;
        # compaction resets it to the truth.
        self._dead: int = 0
        self._active_proc: Optional[Process] = None
        self.rng: np.random.Generator = np.random.default_rng(seed)
        # Root seed for named substreams (see rng_stream); streams are
        # cached so repeated lookups return the same generator object.
        self._seed: int = seed
        self._rng_streams: dict = {}
        #: Number of live queue entries processed so far (for
        #: profiling). Dead entries skipped by the run loop do not
        #: count.
        self.events_processed: int = 0
        #: Datapath fidelity mode. ``"packet"`` (the default) is the
        #: byte-identical per-packet event chain. ``"hybrid"`` drains
        #: router egress bursts through one kernel callback per burst
        #: (arrival times stay analytic/exact; mid-burst preemption is
        #: approximated at burst granularity) and advances registered
        #: background aggregates as fluid rate envelopes between
        #: foreground packet events.
        self.mode = mode
        #: True in hybrid mode: interfaces drain egress in bursts and
        #: background aggregates advance analytically.
        self.fluid = mode == "hybrid"
        #: Logical events avoided by hybrid-mode shortcuts. A burst of
        #: n packets drained in one callback credits n-1 (the collapsed
        #: per-packet tx-done events); a fluid aggregate credits the
        #: per-packet event chain it replaced. Always 0 in packet mode,
        #: so the pinned benchmark counts are untouched.
        self.events_credited: int = 0
        #: Fluid background engine (:class:`repro.net.fluid.FluidEngine`),
        #: created lazily by the first registered aggregate in hybrid
        #: mode; stays None otherwise.
        self.fluid_engine = None
        #: Active :class:`repro.telemetry.Telemetry` session, or None.
        #: Instrumented layers throughout the stack read this; the
        #: disabled case is one attribute load and a None check.
        self.telemetry = None
        #: Event-loop profiler (:class:`repro.telemetry.SimProfiler`),
        #: installed by ``Telemetry.attach`` when profiling is on.
        self._profiler = None

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def effective_events(self) -> int:
        """Events processed plus events analytically avoided.

        In packet mode this equals :attr:`events_processed`. In hybrid
        mode it adds :attr:`events_credited`, the per-packet events the
        burst drain and fluid aggregates collapsed, so throughput
        figures stay comparable across modes
        (same simulated work per effective event).
        """
        return self.events_processed + self.events_credited

    def get_fluid_engine(self):
        """The hybrid-mode fluid background engine, created on first
        use. Raises in non-hybrid modes — callers gate on
        :attr:`fluid`."""
        if not self.fluid:
            raise RuntimeError(
                "fluid aggregates need Simulator(mode='hybrid'), "
                f"this simulator is in {self.mode!r} mode"
            )
        engine = self.fluid_engine
        if engine is None:
            from ..net.fluid import FluidEngine  # late: avoids kernel<->net cycle

            engine = self.fluid_engine = FluidEngine(self)
        return engine

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_proc

    @property
    def seed(self) -> int:
        """The seed this simulator was constructed with."""
        return self._seed

    def rng_stream(self, name: str) -> np.random.Generator:
        """A named random substream derived from the simulator seed.

        The stream for a given ``name`` depends only on ``(seed, name)``
        — never on how many other streams exist or in what order they
        were created — so components that draw from named streams
        produce the same values regardless of how a topology is
        partitioned across shards. This is the determinism contract
        sharded runs rely on: use ``rng_stream`` (not :attr:`rng`) for
        any randomness consumed at runtime in a scenario that must be
        shard-count invariant.
        """
        gen = self._rng_streams.get(name)
        if gen is None:
            gen = np.random.default_rng(
                [self._seed & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))]
            )
            self._rng_streams[name] = gen
        return gen

    # -- scheduling -----------------------------------------------------

    def _schedule(self, item: Any, delay: float, priority: int) -> None:
        _heappush(
            self._queue, (self._now + delay, priority, next(self._seq), _EVENT, item)
        )

    def call_in(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` seconds; returns a cancellable handle."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self._now + delay
        handle = TimerHandle(self, fn, args, time)
        _heappush(self._queue, (time, NORMAL, next(self._seq), 0, handle))
        return handle

    def call_at(self, time: float, fn: Callable, *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` at absolute simulation time ``time``.

        Raises :class:`ValueError` if ``time`` is already in the past,
        mirroring negative :meth:`call_in` delays. Callers that want
        "now or later" semantics must clamp explicitly with
        ``max(sim.now, time)``.
        """
        if time < self._now:
            raise ValueError(
                f"call_at time {time!r} is in the past (now={self._now})"
            )
        return self.call_in(time - self._now, fn, *args)

    def call_fast(self, delay: float, fn: Callable, arg: Any) -> None:
        """Run ``fn(arg)`` after ``delay`` seconds, fire-and-forget.

        The data-path fast lane: no :class:`TimerHandle` is allocated
        and the timer cannot be cancelled. Use for per-packet events
        (serialization done, propagation arrival) where handle
        allocation in :meth:`call_in` would dominate the run loop.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        _heappush(
            self._queue, (self._now + delay, NORMAL, next(self._seq), _FAST, fn, arg)
        )

    def reschedule(self, handle: TimerHandle, delay: float) -> TimerHandle:
        """Re-arm ``handle`` to fire ``delay`` seconds from now.

        Behaviourally identical to ``handle.cancel()`` followed by
        ``call_in(delay, handle.fn, *handle.args)`` (one sequence number
        is consumed either way, so event ordering is bit-identical) but
        reuses the handle object: the pending heap entry, if any, is
        orphaned by bumping the handle's generation and is discarded
        lazily. This is the TCP RTO pattern — one handle per
        connection, re-armed on nearly every ACK.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        if handle.cancelled:
            # The old entry was already counted dead when cancelled.
            handle.cancelled = False
        else:
            self._dead += 1
        handle._gen += 1
        handle.time = self._now + delay
        _heappush(
            self._queue, (handle.time, NORMAL, next(self._seq), handle._gen, handle)
        )
        if (
            self._dead >= _COMPACT_MIN_DEAD
            and self._dead * 2 > len(self._queue)
        ):
            self._compact()
        return handle

    def _compact(self) -> None:
        """Drop dead entries and re-heapify in one pass.

        (time, priority, seq) ordering of the survivors is unchanged —
        heapify re-establishes the heap invariant over the same total
        order the lazy path would have produced.
        """
        # In-place rebuild: the run loops keep a local alias to the
        # queue list, so the list object's identity must not change.
        self._queue[:] = [
            e
            for e in self._queue
            if e[3] < 0 or not (e[4].cancelled or e[4]._gen != e[3])
        ]
        heapq.heapify(self._queue)
        self._dead = 0

    # -- factories ------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a generator as a simulation process."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution ------------------------------------------------------

    def peek(self) -> float:
        """Time of the next live queue entry, or ``inf`` if none.

        .. warning:: ``peek`` mutates the heap: dead entries (cancelled
           or superseded timers) at the head are popped and discarded
           so the returned time is that of real pending work.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            tag = entry[3]
            if tag >= 0:
                handle = entry[4]
                if handle.cancelled or handle._gen != tag:
                    heapq.heappop(queue)
                    if self._dead:
                        self._dead -= 1
                    continue
            return entry[0]
        return float("inf")

    def step(self) -> None:
        """Process exactly one live queue entry.

        Dead entries at the head are discarded without advancing the
        clock or counting toward :attr:`events_processed`; a queue
        holding only dead entries drains silently. An empty queue
        raises :class:`IndexError` (as ``heappop`` always has).
        """
        queue = self._queue
        if not queue:
            raise IndexError("step() on an empty event queue")
        while queue:
            entry = heapq.heappop(queue)
            tag = entry[3]
            if tag >= 0:
                handle = entry[4]
                if handle.cancelled or handle._gen != tag:
                    if self._dead:
                        self._dead -= 1
                    continue
            self._dispatch(entry)
            return

    def _dispatch(self, entry: tuple) -> None:
        """Advance the clock to a live entry and run it."""
        tag = entry[3]
        self._now = entry[0]
        self.events_processed += 1
        profiler = self._profiler
        if tag == _FAST:
            fn = entry[4]
            if profiler is None:
                fn(entry[5])
            else:
                started = perf_counter()
                fn(entry[5])
                profiler.record(fn, perf_counter() - started, len(self._queue))
            return
        if tag >= 0:
            handle = entry[4]
            if profiler is None:
                handle.fn(*handle.args)
            else:
                started = perf_counter()
                handle.fn(*handle.args)
                profiler.record(
                    handle.fn, perf_counter() - started, len(self._queue)
                )
            return
        self._dispatch_event(entry[0], entry[4], profiler, advance=False)

    def _dispatch_event(
        self,
        time: float,
        event: Event,
        profiler: Any,
        advance: bool = True,
    ) -> None:
        """Run an event's callbacks (the clock already sits at ``time``
        when called from :meth:`_dispatch`, which passes ``advance=False``)."""
        if advance:
            self._now = time
            self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        if profiler is None:
            for callback in callbacks:
                callback(event)
        else:
            for callback in callbacks:
                started = perf_counter()
                callback(event)
                profiler.record(
                    callback, perf_counter() - started, len(self._queue)
                )
        if not event._ok and not event._defused:
            exc = event._value
            raise SimulationError(
                f"unhandled failure in {event!r}: {exc!r}"
            ) from exc

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if the last processed entry was earlier.

        This is the hot loop: each iteration pops the head exactly once
        (no separate peek walk), dispatches on the entry's type tag,
        and skips dead entries without touching the clock or
        :attr:`events_processed`. The profiler is sampled once on
        entry, so installing one mid-run takes effect at the next
        ``run()`` call (``Telemetry.attach`` always precedes the run).
        """
        queue = self._queue
        pop = heapq.heappop
        timer = perf_counter
        profiler = self._profiler
        # Live entries are tallied locally and flushed on exit; nothing
        # reads events_processed mid-run (telemetry collects after).
        processed = 0
        try:
            if until is not None:
                if until < self._now:
                    raise ValueError(
                        f"until={until} is in the past (now={self._now})"
                    )
                while queue:
                    # Pop first, compare after: the common case (entry is
                    # due) then costs no head peek. An overshooting entry
                    # is pushed back unchanged — same tuple, same seq —
                    # so ordering is unaffected.
                    entry = pop(queue)
                    if entry[0] > until:
                        _heappush(queue, entry)
                        break
                    tag = entry[3]
                    if tag == _FAST:
                        self._now = entry[0]
                        processed += 1
                        fn = entry[4]
                        if profiler is None:
                            fn(entry[5])
                        else:
                            started = timer()
                            fn(entry[5])
                            profiler.record(fn, timer() - started, len(queue))
                    elif tag >= 0:
                        handle = entry[4]
                        if handle.cancelled or handle._gen != tag:
                            if self._dead:
                                self._dead -= 1
                            continue
                        self._now = entry[0]
                        processed += 1
                        if profiler is None:
                            handle.fn(*handle.args)
                        else:
                            started = timer()
                            handle.fn(*handle.args)
                            profiler.record(
                                handle.fn, timer() - started, len(queue)
                            )
                    else:
                        # Inlined _dispatch_event (see that method for
                        # the commentary); counts via the local tally.
                        self._now = entry[0]
                        processed += 1
                        event = entry[4]
                        callbacks, event.callbacks = event.callbacks, None
                        if profiler is None:
                            for callback in callbacks:
                                callback(event)
                        else:
                            for callback in callbacks:
                                started = timer()
                                callback(event)
                                profiler.record(
                                    callback, timer() - started, len(queue)
                                )
                        if not event._ok and not event._defused:
                            exc = event._value
                            raise SimulationError(
                                f"unhandled failure in {event!r}: {exc!r}"
                            ) from exc
                if until != float("inf"):
                    self._now = max(self._now, until)
            else:
                while queue:
                    entry = pop(queue)
                    tag = entry[3]
                    if tag == _FAST:
                        self._now = entry[0]
                        processed += 1
                        fn = entry[4]
                        if profiler is None:
                            fn(entry[5])
                        else:
                            started = timer()
                            fn(entry[5])
                            profiler.record(fn, timer() - started, len(queue))
                    elif tag >= 0:
                        handle = entry[4]
                        if handle.cancelled or handle._gen != tag:
                            if self._dead:
                                self._dead -= 1
                            continue
                        self._now = entry[0]
                        processed += 1
                        if profiler is None:
                            handle.fn(*handle.args)
                        else:
                            started = timer()
                            handle.fn(*handle.args)
                            profiler.record(
                                handle.fn, timer() - started, len(queue)
                            )
                    else:
                        # Inlined _dispatch_event, as in the until loop.
                        self._now = entry[0]
                        processed += 1
                        event = entry[4]
                        callbacks, event.callbacks = event.callbacks, None
                        if profiler is None:
                            for callback in callbacks:
                                callback(event)
                        else:
                            for callback in callbacks:
                                started = timer()
                                callback(event)
                                profiler.record(
                                    callback, timer() - started, len(queue)
                                )
                        if not event._ok and not event._defused:
                            exc = event._value
                            raise SimulationError(
                                f"unhandled failure in {event!r}: {exc!r}"
                            ) from exc
        finally:
            self.events_processed += processed

    def run_window(self, limit: float) -> None:
        """Process every queue entry with ``time < limit`` (strict).

        The conservative-PDES building block: a shard runs a lockstep
        window ``[now, limit)`` and stops with the clock at or before
        ``limit`` without consuming any entry at ``limit`` itself, so
        messages injected by peers *at* ``limit`` (the lookahead
        guarantee) are still in the future. Implemented on top of the
        inclusive :meth:`run` by stepping ``limit`` one ulp down, so
        the clock lands strictly below ``limit`` (the PDES runtime owns
        clock finalisation at the end of the whole run).
        """
        if limit <= self._now:
            return
        bound = math.nextafter(limit, -math.inf)
        if bound < self._now:  # limit is one ulp above now: nothing strictly inside
            return
        self.run(until=bound)

    def inject(self, time: float, priority: int, fn: Callable, arg: Any) -> None:
        """Schedule ``fn(arg)`` at absolute ``time`` from outside the run loop.

        The cross-shard delivery primitive: the PDES runtime turns a
        peer shard's egress message back into a local fast-path entry.
        ``time`` must not be in the past — conservative synchronization
        guarantees arrivals land at or after the current window start.
        """
        if time < self._now:
            raise SimulationError(
                f"inject at t={time!r} is in the past (now={self._now}); "
                "lookahead violated"
            )
        _heappush(self._queue, (time, priority, next(self._seq), _FAST, fn, arg))

    def run_until_event(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` is processed; returns its value.

        Raises :class:`SimulationError` if the queue drains or the time
        ``limit`` passes first.
        """
        queue = self._queue
        pop = heapq.heappop
        while not event.processed:
            # Prune dead heads so the drain/limit checks see real work.
            while queue:
                head = queue[0]
                tag = head[3]
                if tag >= 0:
                    handle = head[4]
                    if handle.cancelled or handle._gen != tag:
                        pop(queue)
                        if self._dead:
                            self._dead -= 1
                        continue
                break
            if not queue:
                raise SimulationError(f"queue drained before {event!r} triggered")
            if queue[0][0] > limit:
                raise SimulationError(f"time limit {limit} passed before {event!r}")
            self._dispatch(pop(queue))
        if not event.ok:
            raise event.value
        return event.value
