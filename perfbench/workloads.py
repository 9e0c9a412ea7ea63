"""The five benchmark workloads.

Each workload runs *reps*. A rep builds everything anew (the
set-up phase), runs the timed phase, and returns a :class:`Rep` with
both host times, a digest of the simulated output, the kernel's event
counts and the failures of the workload's correctness check. Set-up
and timed phase meet where the first simulated event runs: the
:class:`SimWatch` stamps the first ``Simulator.run`` call of a rep, and
the PDES and broker workloads, which drive their own phases, stamp it
themselves. A rep given a :class:`tracer.Tracer` marks the same
boundary on it, so the traced totals split the same way.

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

__all__ = ["Rep", "SimWatch", "WORKLOADS", "nproc"]

#: Shards of the garnet_sharded workload: one per core of the 2-core
#: machine the baseline was recorded on.
GARNET_SHARDS = 2
#: Scenario parameters of a garnet_sharded rep: garnet_xl's grid and
#: 1.2 s with a quarter of its flows. The full scenario takes 5 to 16 s
#: of host time on 2 cores, so a run would hold one rep and report it
#: unfiltered; a quarter of the load lets a run report the median of
#: several. Every flow still ends before the scenario does, so the
#: packet-conservation check holds.
GARNET_PARAMS = {"n_flows": 25_000, "bg_flows": 50}
#: Reserve+cancel pairs per broker_admit rep, split across the clients.
BROKER_PAIRS = 4000
#: Clients and service share one event loop, so clients beyond the
#: core count add no load; the cap keeps every request admissible.
MAX_CLIENTS = 8


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def digest(payload) -> str:
    """sha256 of the canonical JSON of a workload's simulated output."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Rep:
    """One repetition of a workload."""

    setup_s: float
    run_s: float
    digest: str
    events: int = 0
    credited: int = 0
    #: Failed correctness checks; empty when the rep is correct.
    errors: List[str] = field(default_factory=list)
    #: Workload-specific figures (mean bandwidth, latencies, PDES counts).
    info: Dict[str, object] = field(default_factory=dict)


class SetupDone(Exception):
    """Raised at the first simulated event of a set-up-only rep."""


class SimWatch:
    """Tracks every Simulator a rep builds and stamps the first event.

    Installs two patches for the life of the benchmark process, both
    off the per-event path: ``Simulator.__init__`` (to sum
    ``events_processed`` over every simulator a rep built) and
    ``Simulator.run`` (whose first call in a rep is the start of the
    timed phase).
    """

    def __init__(self) -> None:
        from repro.kernel.simulator import Simulator

        from tracer import Patches

        self.sims: list = []
        self.run_started: Optional[float] = None
        self.abort_at_run = False
        self.tracer = None
        self._patches = Patches()
        watch = self

        def make_init(original):
            def __init__(sim, *args, **kwargs):
                original(sim, *args, **kwargs)
                watch.sims.append(sim)
            return __init__

        def make_run(original):
            def run(sim, *args, **kwargs):
                if watch.run_started is None:
                    watch.start_run()
                return original(sim, *args, **kwargs)
            return run

        self._patches.wrap(Simulator, "__init__", make_init)
        self._patches.wrap(Simulator, "run", make_run)

    def reset(self, tracer=None, abort_at_run: bool = False) -> None:
        self.sims = []
        self.run_started = None
        self.tracer = tracer
        self.abort_at_run = abort_at_run

    def start_run(self) -> None:
        """The timed phase begins now (first simulated event)."""
        self.run_started = perf_counter()
        if self.abort_at_run:
            raise SetupDone
        if self.tracer is not None:
            self.tracer.mark_run()

    def events(self):
        return (
            sum(s.events_processed for s in self.sims),
            sum(s.events_credited for s in self.sims),
        )

    def close(self) -> None:
        self._patches.restore()


# -- fig1 (packet and hybrid) -------------------------------------------


def fig1_checks(extra: dict) -> List[str]:
    """The Figure 1 relationships asserted by benchmarks/bench_fig1.py."""
    reserved = extra["reserved_kbps"]
    mean = extra["mean_kbps"]
    checks = {
        "mean below the attempted rate": mean < extra["attempted_kbps"],
        "mean above 0.4 x reservation": mean > 0.4 * reserved,
        "mean below 1.05 x reservation": mean < 1.05 * reserved,
        "std above 0.05 x reservation": extra["std_kbps"] > 0.05 * reserved,
        "min below 0.85 x reservation": extra["min_kbps"] < 0.85 * reserved,
        "max above 0.95 x reservation": extra["max_kbps"] > 0.95 * reserved,
        "some retransmissions": extra["retransmissions"] > 0,
    }
    return [f"fig1: {name} fails" for name, ok in checks.items() if not ok]


def _sim_rep(fn: Callable, watch: SimWatch, tracer) -> tuple:
    """Time one experiment call split at its first simulated event."""
    watch.reset(tracer)
    started = perf_counter()
    out = fn()
    ended = perf_counter()
    events, credited = watch.events()
    return out, watch.run_started - started, ended - watch.run_started, \
        events, credited


def _setup_only(fn: Callable, watch: SimWatch) -> float:
    watch.reset(abort_at_run=True)
    started = perf_counter()
    try:
        fn()
    except SetupDone:
        pass
    else:
        raise RuntimeError("workload never reached its first event")
    return watch.run_started - started


class Fig1:
    """The fig1 ``--quick`` grid in one datapath mode."""

    def __init__(self, mode: str) -> None:
        self.mode = mode

    def _call(self, seed: int):
        from repro.experiments import fig1_tcp_reservation

        return lambda: fig1_tcp_reservation.run(
            quick=True, seed=seed, mode=self.mode
        )

    def rep(self, seed: int, watch: SimWatch, tracer=None) -> Rep:
        result, setup_s, run_s, events, credited = _sim_rep(
            self._call(seed), watch, tracer
        )
        errors = fig1_checks(result.extra)
        if self.mode == "hybrid" and credited <= 0:
            errors.append("fig1_hybrid: no events credited; the fluid "
                          "background engine is not running")
        return Rep(
            setup_s, run_s,
            digest({"rows": result.rows, "extra": result.extra}),
            events, credited, errors,
            {"mean_kbps": result.extra["mean_kbps"]},
        )

    def setup_only(self, seed: int, watch: SimWatch) -> float:
        return _setup_only(self._call(seed), watch)


# -- l4s_codel ----------------------------------------------------------


class L4sCodel:
    """One table1_l4s cell: 1600 kb/s, 1 fps, CoDel on the AF band."""

    def _call(self, seed: int):
        from repro.experiments import table1_l4s
        from repro.experiments.table1_burstiness import NORMAL_DEPTH_DIVISOR

        return lambda: table1_l4s.measure_cell(
            bandwidth_kbps=1600.0,
            fps=1.0,
            bucket_divisor=NORMAL_DEPTH_DIVISOR,
            mode="codel",
            seed=seed,
            duration=5.0,
        )

    def rep(self, seed: int, watch: SimWatch, tracer=None) -> Rep:
        cell, setup_s, run_s, events, credited = _sim_rep(
            self._call(seed), watch, tracer
        )
        # The guards of perf_smoke's aqm-codel workload: the CoDel band
        # must be marking, and the sojourn accounting must be live.
        errors = []
        if cell["ecn_marks"] <= 0:
            errors.append("l4s_codel: no ECN marks; the CoDel datapath "
                          "is not exercised")
        if cell["queue_delay_ms"] <= 0.0:
            errors.append("l4s_codel: no queue delay; sojourn accounting "
                          "is not exercised")
        return Rep(setup_s, run_s, digest(cell), events, credited, errors)

    def setup_only(self, seed: int, watch: SimWatch) -> float:
        return _setup_only(self._call(seed), watch)


# -- garnet_sharded -----------------------------------------------------


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc (Linux)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _time_windows(worker) -> List[float]:
    """Record the host time of every window an inline worker runs."""
    busy: List[float] = []
    begin = worker.begin_step

    def begin_step(limit, msgs):
        started = perf_counter()
        begin(limit, msgs)
        busy.append(perf_counter() - started)

    worker.begin_step = begin_step
    return busy


class GarnetSharded:
    """The garnet_xl grid over two PDES shards, run by ``run_scenario``.

    The workload's reps run it with GARNET_PARAMS; the pin test runs
    garnet_xl itself.

    Untraced reps use the fork backend, one worker per shard. The
    traced rep uses the inline backend, whose merged output the PDES
    layer guarantees to be byte-identical, so every span is collected
    in this process. For the length of a rep the benchmark wraps the
    runtime's barrier loop (``repro.pdes.runtime._coordinate``): its
    call ends set-up (plan, fork, shard builds) and starts the timed
    phase, which runs until ``run_scenario`` returns its merged result
    and telemetry. The wrapper also reads each fork shard's peak RSS
    when the loop ends and, inline, times every shard's windows.
    """

    scenario_name = "garnet_xl"

    def __init__(self, params: Optional[dict] = None) -> None:
        #: Overrides of the scenario's parameters; None runs garnet_xl.
        self.params = params

    def _run(self, seed: int, watch: SimWatch, inline: bool):
        """``run_scenario`` under the barrier-loop hook.

        Returns the PdesResult and what the hook saw: the workers, the
        per-shard window times (inline) and the shards' peak RSS (fork).
        """
        from repro.pdes import run_scenario, runtime

        from tracer import Patches

        seen = {"workers": [], "busy": [], "rss": []}

        def make(original):
            def coordinate(workers, n_shards, lookahead, until):
                seen["workers"] = workers
                watch.start_run()
                if inline:
                    seen["busy"] = [_time_windows(w) for w in workers]
                windows = original(workers, n_shards, lookahead, until)
                if not inline:
                    seen["rss"] = [_vm_hwm_mb(w.proc.pid) for w in workers]
                return windows
            return coordinate

        patches = Patches()
        patches.wrap(runtime, "_coordinate", make)
        try:
            result = run_scenario(self.scenario_name, seed,
                                  shards=GARNET_SHARDS,
                                  params=self.params,
                                  backend="inline" if inline else "fork")
        finally:
            patches.restore()
            # run_scenario joins finished workers and only terminates
            # them on an error (a set-up-only rep raises SetupDone from
            # the hook); wait for every one to end either way.
            if not inline:
                for worker in seen["workers"]:
                    worker.proc.join(timeout=30)
        return result, seen

    def rep(self, seed: int, watch: SimWatch, tracer=None) -> Rep:
        watch.reset(tracer)
        started = perf_counter()
        result, seen = self._run(seed, watch, inline=tracer is not None)
        ended = perf_counter()
        per_shard = result.per_shard_events
        total = result.total_events
        merged = result.merged
        errors = []
        # perf_smoke's pdes guards, plus packet conservation. Inline
        # shards run in this process, so their counts can be checked
        # against the simulators themselves; the traced run compares
        # the inline total with the fork total.
        if tracer is not None:
            in_process = watch.events()[0]
            if in_process != total:
                errors.append(f"garnet: shard counts {per_shard} sum to "
                              f"{total}, simulators processed {in_process}")
        if min(per_shard) <= 0:
            errors.append(f"garnet: a shard is idle {per_shard}")
        if sum(result.boundary_messages) <= 0:
            errors.append("garnet: no boundary messages; the cut is not "
                          "exercised")
        classes = merged["classes"].values()
        sent = sum(c["tx_datagrams"] for c in classes)
        landed = sum(c["rx_datagrams"] for c in classes)
        lost = merged["qdisc_drops"] + merged["route_ttl_drops"]
        if sent != landed + lost:
            errors.append(f"garnet: {sent} datagrams sent, {landed} received "
                          f"and {lost} dropped")
        info = {
            "per_shard_events": per_shard,
            "windows": result.windows,
            "boundary_msgs": sum(result.boundary_messages),
            "shard_rss_mb": seen["rss"],
        }
        if tracer is not None:
            busy = seen["busy"]
            per_window = list(zip(*busy))
            info["barrier_wait_s"] = sum(
                len(w) * max(w) - sum(w) for w in per_window
            )
            info["shard_busy_s"] = sum(sum(b) for b in busy)
            info["imbalance"] = max(per_shard) / (total / len(per_shard))
        return Rep(watch.run_started - started, ended - watch.run_started,
                   digest(merged), total, 0, errors, info)

    def setup_only(self, seed: int, watch: SimWatch) -> float:
        return _setup_only(lambda: self._run(seed, watch, inline=False), watch)


# -- broker_admit -------------------------------------------------------


def _broker_network(sim):
    """Four routers in a line, two hosts on each: paths of 2 to 5 hops."""
    from repro.net import Network, mbps

    network = Network(sim)
    routers = [network.add_router(f"r{i}") for i in range(4)]
    for a, b in zip(routers, routers[1:]):
        network.connect(a, b, bandwidth=mbps(1000.0), delay=1e-3)
    hosts = []
    for i in range(8):
        host = network.add_host(f"h{i}")
        network.connect(host, routers[i % 4], bandwidth=mbps(1000.0),
                        delay=0.1e-3)
        hosts.append(host.name)
    network.build_routes()
    return network, hosts


def broker_requests(seed: int, hosts: List[str], clients: int):
    """Per-client request lists: (src, dst, bandwidth, start, end).

    Each client holds at most one reservation at a time, of at most
    20 Mb/s, so even MAX_CLIENTS of them fill under a quarter of a
    1 Gb/s link's premium share: every request is admissible.
    """
    rng = random.Random(seed)
    per_client = []
    for client in range(clients):
        reqs = []
        for _ in range(BROKER_PAIRS // clients):
            src, dst = rng.sample(hosts, 2)
            start = round(rng.uniform(0.0, 50.0), 3)
            reqs.append((src, dst, round(rng.uniform(1e6, 20e6)), start,
                         round(start + rng.uniform(1.0, 50.0), 3)))
        per_client.append(reqs)
    return per_client


class BrokerAdmit:
    """A closed loop of ``nproc`` clients (at most MAX_CLIENTS) against
    one BrokerService.

    Each client sends one request frame holding a reserve and the
    matching cancel (by the reserve's idempotency key) and waits for
    the reply before sending the next. Clients and service share this
    process's event loop and talk over localhost TCP.
    """

    @staticmethod
    def clients() -> int:
        return min(nproc(), MAX_CLIENTS)

    async def _start(self, seed: int, clients: int):
        from repro.broker_service import BrokerService
        from repro.broker_service.protocol import encode_frame
        from repro.gara import BandwidthBroker
        from repro.kernel import Simulator
        from repro.resilience import Journal

        network, hosts = _broker_network(Simulator(seed=seed))
        broker = BandwidthBroker(network, journal=Journal("broker"))
        service = BrokerService(broker, Journal("broker-service"), tick=None)
        await service.start()
        frames = []
        for client, reqs in enumerate(broker_requests(seed, hosts, clients)):
            owner = f"c{client}"
            frames.append([
                encode_frame(["batch", i, [
                    ["rsv", i, f"{owner}-{i}", owner, *req],
                    ["can", i, None, None, f"{owner}-{i}"],
                ]])
                for i, req in enumerate(reqs)
            ])
        conns = [
            await asyncio.open_connection("127.0.0.1", service.port)
            for _ in range(clients)
        ]
        return service, frames, conns

    @staticmethod
    async def _client(frames, reader, writer, latencies, outcomes) -> None:
        from repro.broker_service.protocol import read_frame

        for frame in frames:
            sent = perf_counter()
            writer.write(frame)
            await writer.drain()
            reply = await read_frame(reader)
            latencies.append(perf_counter() - sent)
            rsv, can = reply[2] if reply[1] == 0 else ([None, -1], [None, -1])
            outcomes.append((reply[1], rsv[1], can[1],
                             can[2] if can[1] == 0 else None))

    @staticmethod
    async def _stop(service, conns) -> None:
        for _reader, writer in conns:
            writer.close()
            await writer.wait_closed()
        await service.close()

    async def _rep(self, seed: int, watch: SimWatch) -> Rep:
        clients = self.clients()
        started = perf_counter()
        service, frames, conns = await self._start(seed, clients)
        try:
            latencies: List[float] = []
            outcomes = [[] for _ in range(clients)]
            watch.start_run()
            await asyncio.gather(*[
                self._client(frames[c], *conns[c], latencies, outcomes[c])
                for c in range(clients)
            ])
            ended = perf_counter()
        finally:
            await self._stop(service, conns)
        attempted = sum(len(f) for f in frames)
        live = sum(len(t) for t in service.broker._tables.values())
        bad = sum(1 for o in outcomes for r in o if r != (0, 0, 0, 1))
        errors = []
        # bench_broker_service.run_once's invariants, per request.
        if service.admissions != attempted or service.cancels != attempted:
            errors.append(f"broker: admitted {service.admissions}, cancelled "
                          f"{service.cancels}, attempted {attempted}")
        if live:
            errors.append(f"broker: {live} slot entries still live")
        if bad:
            # The only error bad replies add; run.failed_requests counts
            # any other error as a run-level failure.
            errors.append(f"broker: {bad} requests got an error or refusal")
        run_s = ended - watch.run_started
        return Rep(
            watch.run_started - started, run_s,
            digest({"outcomes": outcomes, "admissions": service.admissions,
                    "cancels": service.cancels}),
            errors=errors,
            info={"latencies": latencies, "pairs": attempted,
                  "bad_replies": bad, "admissions_per_s": attempted / run_s},
        )

    def rep(self, seed: int, watch: SimWatch, tracer=None) -> Rep:
        watch.reset(tracer)
        return asyncio.run(self._rep(seed, watch))

    def setup_only(self, seed: int, watch: SimWatch) -> float:
        async def go():
            started = perf_counter()
            service, _frames, conns = await self._start(seed, self.clients())
            elapsed = perf_counter() - started
            await self._stop(service, conns)
            return elapsed

        watch.reset()
        return asyncio.run(go())


WORKLOADS = {
    "fig1_packet": Fig1("packet"),
    "fig1_hybrid": Fig1("hybrid"),
    "l4s_codel": L4sCodel(),
    "garnet_sharded": GarnetSharded(GARNET_PARAMS),
    "broker_admit": BrokerAdmit(),
}
