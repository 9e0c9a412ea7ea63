"""Large-scale GARNET grids: parameterized mesh/torus topologies.

The paper's GARNET testbed is seven nodes; scaling experiments (the
"digital twin of a large-scale DiffServ network" target) need
thousands. :func:`garnet_grid` builds an R x C router mesh (optionally
a torus) with one host hanging off every router, using **algorithmic
dimension-ordered routing** instead of routing tables: a 1,000-router
grid would need ~2M next-hop entries per process under
:meth:`Network.build_routes`, while :class:`GridRouter` computes the
next hop from address arithmetic in O(1) with no per-node state.

Node creation order is fixed (router then host, row-major), so
coordinates are recoverable from addresses alone::

    idx  = (addr - 1) // 2        # cell index, row-major
    row, col = divmod(idx, cols)
    is_host = (addr % 2 == 0)

:func:`plan_flows` draws a deterministic flow plan (sources,
destinations with locality bias, DiffServ class mix, start times)
from a caller-supplied RNG — pass a named ``sim.rng_stream`` so the
plan is identical no matter how the grid is sharded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..kernel import Simulator
from .node import Host, Interface, Router
from .queues import DropTailQueue
from .topology import Network
from .units import mbps

__all__ = ["GridRouter", "GridTestbed", "GridFlow", "garnet_grid", "plan_flows"]


class GridRouter(Router):
    """A mesh router with dimension-ordered (column-first) routing.

    Next hops come from coordinate arithmetic on the destination
    address — ``routes`` stays empty. Ports are the egress interfaces
    toward each neighbor; a port is None at a mesh edge (non-torus).
    """

    def __init__(self, sim: Simulator, name: str, addr: int) -> None:
        super().__init__(sim, name, addr)
        self.row = 0
        self.col = 0
        self.rows = 1
        self.cols = 1
        self.torus = False
        self.port_e: Optional[Interface] = None
        self.port_w: Optional[Interface] = None
        self.port_n: Optional[Interface] = None
        self.port_s: Optional[Interface] = None
        self.port_host: Optional[Interface] = None

    def receive(self, packet, iface) -> None:
        # Hot path: one address decode + at most two comparisons per
        # hop. Column is corrected first, then row (dimension order
        # keeps the mesh deadlock-free and the paths deterministic).
        if packet.dst == self.addr:
            self.deliver(packet)
            return
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.ttl_drops += 1
            return
        idx = (packet.dst - 1) >> 1
        dst_r, dst_c = divmod(idx, self.cols)
        col = self.col
        if dst_c != col:
            if self.torus:
                dc = (dst_c - col) % self.cols
                egress = self.port_e if dc <= self.cols - dc else self.port_w
            else:
                egress = self.port_e if dst_c > col else self.port_w
        elif dst_r != self.row:
            if self.torus:
                dr = (dst_r - self.row) % self.rows
                egress = self.port_s if dr <= self.rows - dr else self.port_n
            else:
                egress = self.port_s if dst_r > self.row else self.port_n
        else:
            egress = self.port_host
        if egress is None:
            self.no_route_drops += 1
            return
        egress.send(packet)


@dataclass
class GridTestbed:
    """An R x C GARNET grid: routers in a mesh/torus, one host each."""

    network: Network
    rows: int
    cols: int
    torus: bool
    link_delay: float
    access_delay: float
    #: Routers and hosts in row-major cell order (index = row*cols+col).
    routers: List[GridRouter] = field(default_factory=list)
    hosts: List[Host] = field(default_factory=list)

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def router_at(self, row: int, col: int) -> GridRouter:
        return self.routers[row * self.cols + col]

    def host_at(self, row: int, col: int) -> Host:
        return self.hosts[row * self.cols + col]

    def coord_of_addr(self, addr: int) -> Tuple[int, int]:
        return divmod((addr - 1) >> 1, self.cols)

    def partition_hint(self, n_shards: int) -> Dict[str, int]:
        """Row-stripe partition: contiguous row bands, one per shard.

        The optimal link-boundary cut for a row-major grid: only
        vertical (south) links between adjacent stripes — and the torus
        wrap column — are cut, every cut link has the uniform mesh
        ``link_delay``, and each host stays with its router, so the
        PDES lookahead equals the mesh link delay for every shard
        count. Feed this to :func:`repro.net.topology.partition_topology`
        via its ``hint`` parameter.
        """
        if not 1 <= n_shards <= self.rows:
            raise ValueError(
                f"n_shards must be in 1..{self.rows} (rows), got {n_shards}"
            )
        hint: Dict[str, int] = {}
        for r in range(self.rows):
            shard = r * n_shards // self.rows
            for c in range(self.cols):
                cell = r * self.cols + c
                hint[self.routers[cell].name] = shard
                hint[self.hosts[cell].name] = shard
        return hint


def garnet_grid(
    sim: Simulator,
    rows: int,
    cols: int,
    torus: bool = False,
    link_bandwidth: float = mbps(155.0),
    link_delay: float = 0.5e-3,
    access_bandwidth: float = mbps(100.0),
    access_delay: float = 0.05e-3,
    queue_packets: int = 100,
    qdisc_factory=None,
) -> GridTestbed:
    """Build an ``rows x cols`` router grid with one host per router.

    Mesh links default to the GARNET OC3 backbone parameters; access
    links to switched Fast Ethernet. ``qdisc_factory`` (if given)
    builds the egress queue for every mesh-link direction — pass a
    :class:`repro.diffserv.PriorityQdisc` factory for DiffServ grids.
    Host egress gets a deep drop-tail buffer, as in :func:`garnet`.

    The network is **not** given routing tables —
    :class:`GridRouter` routes algorithmically and hosts are
    single-homed — so construction stays O(nodes + links) at any
    scale. Do not call ``build_routes`` on the result.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows >= 1 and cols >= 1")
    if torus and (rows < 3 or cols < 3):
        # A 2-wide torus would create parallel links between the same
        # router pair, which Network's simple graph cannot represent.
        raise ValueError("torus grids need rows >= 3 and cols >= 3")
    net = Network(sim)
    qf = qdisc_factory or (lambda: DropTailQueue(limit_packets=queue_packets))
    routers: List[GridRouter] = []
    hosts: List[Host] = []
    # Creation order is the addressing contract (see module docstring):
    # router then host, row-major.
    for r in range(rows):
        for c in range(cols):
            router = GridRouter(sim, f"r{r}_{c}", net._next_addr)
            net._next_addr += 1
            net._register(router)
            router.row, router.col = r, c
            router.rows, router.cols = rows, cols
            router.torus = torus
            routers.append(router)
            hosts.append(net.add_host(f"h{r}_{c}"))
    for r in range(rows):
        for c in range(cols):
            cell = r * cols + c
            router = routers[cell]
            # East link (wraps on a torus).
            if c + 1 < cols or (torus and cols > 1):
                east = routers[r * cols + (c + 1) % cols]
                rec = net.connect(router, east, link_bandwidth, link_delay, qf)
                router.port_e = rec.iface_ab
                east.port_w = rec.iface_ba
            # South link (wraps on a torus).
            if r + 1 < rows or (torus and rows > 1):
                south = routers[((r + 1) % rows) * cols + c]
                rec = net.connect(router, south, link_bandwidth, link_delay, qf)
                router.port_s = rec.iface_ab
                south.port_n = rec.iface_ba
            # Access link; the host side gets the deep end-system buffer.
            host = hosts[cell]
            rec = net.connect(router, host, access_bandwidth, access_delay, qf)
            router.port_host = rec.iface_ab
            rec.iface_ba.qdisc = DropTailQueue(limit_packets=2000)
    return GridTestbed(
        network=net,
        rows=rows,
        cols=cols,
        torus=torus,
        link_delay=link_delay,
        access_delay=access_delay,
        routers=routers,
        hosts=hosts,
    )


class GridFlow(NamedTuple):
    """One planned flow: a short datagram burst between two grid hosts."""

    src_cell: int   # row-major cell index of the source host
    dst_cell: int   # row-major cell index of the destination host
    dscp: int       # DiffServ codepoint carried by every packet
    start: float    # simulation time of the first send
    size: int       # datagram size in bytes
    count: int      # datagrams sent back-to-back


#: Default per-class mix: (dscp, fraction). EF=46 premium, AF21=18
#: assured, BE=0 best effort — the GARNET service classes.
DEFAULT_CLASS_MIX: Tuple[Tuple[int, float], ...] = (
    (46, 0.10),
    (18, 0.30),
    (0, 0.60),
)


def plan_flows(
    testbed: GridTestbed,
    n_flows: int,
    rng: np.random.Generator,
    t_start: float = 0.05,
    t_end: float = 1.0,
    class_mix: Tuple[Tuple[int, float], ...] = DEFAULT_CLASS_MIX,
    locality: int = 4,
    size_range: Tuple[int, int] = (256, 1400),
    count_range: Tuple[int, int] = (1, 3),
) -> List[GridFlow]:
    """Draw a deterministic plan of ``n_flows`` host-to-host flows.

    Destinations are locality-biased: the destination cell is the
    source cell displaced by a uniform offset in
    ``[-locality, +locality]^2`` (excluding zero; coordinates wrap), so
    most traffic stays within a few hops, as in real grid sites.
    Class fractions come from ``class_mix``; start times are uniform
    in ``[t_start, t_end)``.

    Pass a *named* stream (``sim.rng_stream("flows")``): every shard
    of a partitioned run computes the identical plan and installs only
    the flows whose source host it owns.
    """
    if t_end < t_start:
        raise ValueError("t_end must be >= t_start")
    rows, cols = testbed.rows, testbed.cols
    n_cells = rows * cols
    src = rng.integers(0, n_cells, n_flows)
    dr = rng.integers(-locality, locality + 1, n_flows)
    dc = rng.integers(-locality, locality + 1, n_flows)
    # A zero offset would make a flow loop back to its source; nudge it
    # one column east (deterministically).
    zero = (dr == 0) & (dc == 0)
    dc = np.where(zero, 1, dc)
    src_r, src_c = np.divmod(src, cols)
    dst = ((src_r + dr) % rows) * cols + (src_c + dc) % cols
    u = rng.random(n_flows)
    dscps = np.zeros(n_flows, dtype=np.int64)
    edge = 0.0
    assigned = np.zeros(n_flows, dtype=bool)
    for dscp, fraction in class_mix:
        edge += fraction
        pick = (~assigned) & (u < edge)
        dscps[pick] = dscp
        assigned |= pick
    if not assigned.all():
        # Mix fractions that sum below 1.0 leave a remainder: it rides
        # in the last class.
        dscps[~assigned] = class_mix[-1][0]
    starts = rng.uniform(t_start, t_end, n_flows)
    sizes = rng.integers(size_range[0], size_range[1] + 1, n_flows)
    counts = rng.integers(count_range[0], count_range[1] + 1, n_flows)
    # tolist() yields plain ints and floats in one pass per column,
    # not a numpy scalar per field.
    return list(map(GridFlow._make, zip(
        src.tolist(), dst.tolist(), dscps.tolist(),
        starts.tolist(), sizes.tolist(), counts.tolist(),
    )))
