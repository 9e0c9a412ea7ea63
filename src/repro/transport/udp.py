"""UDP: connectionless datagram sockets.

Used by the contention generator (the paper's UDP blaster, §5.2) and by
anything that wants unreliable delivery. Datagrams above the MTU are
rejected rather than fragmented (the generator always sends MTU-sized
packets anyway).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..kernel import Event, Store
from ..net.node import Host
from ..net.packet import DEFAULT_TTL, IP_HEADER_BYTES, PROTO_UDP, Packet, UDP_HEADER_BYTES

__all__ = ["UdpLayer", "UdpSocket", "UDP_MAX_PAYLOAD", "MTU_BYTES"]

#: Ethernet-style MTU: 1500 bytes of IP payload.
MTU_BYTES = 1500
UDP_MAX_PAYLOAD = MTU_BYTES - IP_HEADER_BYTES - UDP_HEADER_BYTES

_EPHEMERAL_BASE = 32768


class UdpLayer:
    """Per-host UDP: port allocation and datagram demultiplexing."""

    __slots__ = (
        "host", "sim", "_sockets", "_next_ephemeral", "rx_datagrams",
        "no_port_drops",
    )

    def __init__(self, host: Host) -> None:
        self.host = host
        self.sim = host.sim
        self._sockets: Dict[int, "UdpSocket"] = {}
        self._next_ephemeral = _EPHEMERAL_BASE
        self.rx_datagrams = 0
        self.no_port_drops = 0
        host.register_protocol(PROTO_UDP, self)

    def create_socket(self, port: Optional[int] = None, dscp: int = 0) -> "UdpSocket":
        if port is None:
            port = self._alloc_port()
        if port in self._sockets:
            raise ValueError(f"UDP port {port} already bound on {self.host.name}")
        sock = UdpSocket(self, port, dscp=dscp)
        self._sockets[port] = sock
        return sock

    def _alloc_port(self) -> int:
        while self._next_ephemeral in self._sockets:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def close_socket(self, sock: "UdpSocket") -> None:
        self._sockets.pop(sock.port, None)

    def receive(self, packet: Packet) -> None:
        sock = self._sockets.get(packet.dport)
        if sock is None:
            self.no_port_drops += 1
        else:
            self.rx_datagrams += 1
            sock._on_datagram(packet)


class UdpSocket:
    """A bound UDP endpoint."""

    __slots__ = (
        "layer", "port", "dscp", "_inbox", "tx_datagrams", "tx_bytes",
        "closed",
    )

    def __init__(self, layer: UdpLayer, port: int, dscp: int = 0) -> None:
        self.layer = layer
        self.port = port
        self.dscp = dscp
        self._inbox: Store = Store(layer.sim)
        self.tx_datagrams = 0
        self.tx_bytes = 0
        self.closed = False

    @property
    def host(self) -> Host:
        return self.layer.host

    def sendto(
        self,
        nbytes: int,
        dst: int,
        dport: int,
        payload: Any = None,
    ) -> bool:
        """Emit one datagram of ``nbytes`` application bytes.

        Returns False if the local egress queue dropped it.
        """
        if self.closed:
            raise RuntimeError("socket is closed")
        if nbytes <= 0 or nbytes > UDP_MAX_PAYLOAD:
            raise ValueError(
                f"datagram payload must be in (0, {UDP_MAX_PAYLOAD}], got {nbytes}"
            )
        # Positional construction (src, dst, sport, dport, proto, size,
        # payload, dscp, ttl, created_at): the contention generator
        # builds one of these per datagram.
        packet = Packet(
            self.host.addr,
            dst,
            self.port,
            dport,
            PROTO_UDP,
            nbytes + IP_HEADER_BYTES + UDP_HEADER_BYTES,
            payload,
            self.dscp,
            DEFAULT_TTL,
            self.layer.sim._now,
        )
        self.tx_datagrams += 1
        self.tx_bytes += nbytes
        return self.host.send_packet(packet)

    def recvfrom(self) -> Event:
        """Event yielding ``(payload_bytes, src_addr, sport, payload)``."""
        if self.closed:
            raise RuntimeError("socket is closed")
        return self._inbox.get()

    def _on_datagram(self, packet: Packet) -> None:
        if self.closed:
            return
        app_bytes = packet.size - IP_HEADER_BYTES - UDP_HEADER_BYTES
        self._inbox.put((app_bytes, packet.src, packet.sport, packet.payload))

    def close(self) -> None:
        self.closed = True
        self.layer.close_socket(self)

    def __repr__(self) -> str:
        return f"<UdpSocket {self.host.name}:{self.port}>"
