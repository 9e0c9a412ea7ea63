"""Shared experiment infrastructure: GARNET deployments and run helpers.

Every experiment builds a fresh :class:`GarnetDeployment` per data
point, so points are statistically independent and individually
reproducible from their seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..apps import UdpTrafficGenerator
from ..core import MpichGQ
from ..kernel import Simulator
from ..net import GarnetTestbed, garnet, mbps
from ..transport.tcp import TcpConfig
from .. import telemetry as _telemetry

__all__ = [
    "GarnetDeployment",
    "build_deployment",
    "ExperimentResult",
]


@dataclass
class GarnetDeployment:
    """A ready-to-run GARNET testbed with MPICH-GQ deployed."""

    sim: Simulator
    testbed: GarnetTestbed
    gq: MpichGQ
    contention: Optional[UdpTrafficGenerator] = None


def build_deployment(
    seed: int = 0,
    backbone_bandwidth: float = mbps(30.0),
    access_bandwidth: float = mbps(100.0),
    backbone_delay: float = 0.5e-3,
    contention_rate: Optional[float] = None,
    ef_share: float = 0.7,
    eager_threshold: int = 64 * 1024,
    tcp_config: Optional[TcpConfig] = None,
    bucket_divisor: Optional[float] = None,
    start_contention: bool = True,
    aqm=None,
    resilient: bool = False,
    mode: str = "packet",
) -> GarnetDeployment:
    """GARNET + MPICH-GQ (ranks 0/1 on the premium hosts) + optional
    UDP contention between the competitive hosts. ``aqm`` optionally
    switches the domain from the paper's drop-tail configuration to a
    WRED / WRED+ECN one (see :class:`repro.aqm.AqmPolicy`);
    ``resilient`` attaches the broker's write-ahead journal so
    crash/restart experiments recover state instead of losing it.
    ``mode`` selects the datapath fidelity (``"packet"`` or
    ``"hybrid"`` — see :class:`repro.kernel.Simulator`); in hybrid mode
    the UDP contention generator advances as a fluid rate envelope."""
    sim = Simulator(seed=seed, mode=mode)
    testbed = garnet(
        sim,
        backbone_bandwidth=backbone_bandwidth,
        access_bandwidth=access_bandwidth,
        backbone_delay=backbone_delay,
    )
    gq = MpichGQ.on_garnet(
        testbed,
        ef_share=ef_share,
        eager_threshold=eager_threshold,
        tcp_config=tcp_config,
        bucket_divisor=bucket_divisor,
        aqm=aqm,
        resilient=resilient,
    )
    contention = None
    if contention_rate:
        contention = UdpTrafficGenerator(
            testbed.competitive_src,
            testbed.competitive_dst,
            rate=contention_rate,
        )
        if start_contention:
            contention.start()
    deployment = GarnetDeployment(sim, testbed, gq, contention)
    # If a telemetry session is active (runner --out, benchmarks with
    # --metrics-out), attach it so the registry scrapes this deployment
    # at snapshot time. No-op — and zero per-event cost — otherwise.
    tel = _telemetry.active()
    if tel is not None:
        tel.attach(sim)
        tel.observe(deployment)
    return deployment


@dataclass
class ExperimentResult:
    """Uniform container the runner and benchmarks consume."""

    experiment: str
    description: str
    #: Tabular data: header row + value rows.
    headers: List[str] = field(default_factory=list)
    rows: List[List[Any]] = field(default_factory=list)
    #: Named (x, y) series for trace figures.
    series: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    #: Free-form extras (per-experiment summary stats).
    extra: Dict[str, Any] = field(default_factory=dict)

    def row_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.headers, row)) for row in self.rows]
