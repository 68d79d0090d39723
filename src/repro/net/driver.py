"""NIC driver: receive ring, NAPI-style ingress, and KLOC early demux.

§4.2.3: "As network packets arrive, the device driver allocates a generic
packet buffer but does not know the socket to which this packet belongs."
With KLOCs, the driver extracts the socket cheaply (a hash lookup on the
flow tuple), stores it in the skbuff's 8-byte field, and adds the packet
buffers to the right knode immediately; without KLOCs, association — and
hence any placement decision — waits until the TCP layer.

Ingress is zero-copy: the rx-ring page becomes the skbuff's data buffer,
and the driver replenishes the ring with a fresh RX_BUF allocation — the
driver-buffer churn visible in Fig 2a's socket-buffer slice.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.alloc.base import KernelObject
from repro.core.errors import NetworkError
from repro.core.objtypes import KernelObjectType
from repro.core.units import NS
from repro.net.skbuff import SKBuff

if TYPE_CHECKING:
    from repro.core.context import KernelContext
    from repro.vfs.inode import Inode

#: Default receive ring depth (rx descriptors).
RX_RING_SIZE = 256
#: Cost of the driver-level flow-hash lookup that fills the 8-byte socket
#: field (§4.2.3 — cheap, unlike full header extraction).
EARLY_DEMUX_COST_NS = 150 * NS


def _resolve_no_inode(port: int) -> Optional["Inode"]:
    """Default resolver: no port → inode mapping (early demux finds
    nothing)."""
    return None


class NICDriver:
    """Receive ring + packet construction."""

    def __init__(
        self,
        ctx: "KernelContext",
        *,
        ring_size: int = RX_RING_SIZE,
        early_demux: bool = False,
        resolve_inode: Optional[Callable[[int], Optional["Inode"]]] = None,
    ) -> None:
        if ring_size <= 0:
            raise NetworkError(f"rx ring needs entries: {ring_size}")
        self.ctx = ctx
        self.ring_size = ring_size
        #: §4.2.3's KLOC extension: extract the socket in the driver.
        self.early_demux = early_demux
        #: Maps a port to the owning socket's inode (for early demux).
        self._resolve_inode = resolve_inode or _resolve_no_inode
        self._ring: Deque[KernelObject] = deque()
        self.rx_packets = 0
        self.tx_packets = 0
        self.ring_refills = 0

    def fill_ring(self, *, cpu: int = 0) -> int:
        """(Re)populate the rx ring with driver buffers."""
        added = 0
        while len(self._ring) < self.ring_size:
            buf = self.ctx.alloc_object(KernelObjectType.RX_BUF, None, cpu=cpu)
            self._ring.append(buf)
            added += 1
        if added:
            self.ring_refills += 1
        return added

    def receive(self, port: int, nbytes: int, *, cpu: int = 0) -> SKBuff:
        """One packet arrives for ``port``; returns the constructed skbuff.

        The ring entry becomes skb->data (zero copy); a fresh RX_BUF
        replenishes the ring. With ``early_demux`` the socket's inode is
        resolved here and the buffers are charged to its knode.
        """
        if nbytes <= 0:
            raise NetworkError(f"packet needs bytes: {nbytes}")
        if not self._ring:
            self.fill_ring(cpu=cpu)

        inode = None
        if self.early_demux:
            inode = self._resolve_inode(port)
            self.ctx.clock.advance(EARLY_DEMUX_COST_NS)

        data = self._ring.popleft()
        # NIC DMA writes the payload into the driver buffer.
        self.ctx.access_object(data, nbytes, write=True, cpu=cpu)
        if inode is not None:
            self._reassociate(data, inode)

        header = self.ctx.alloc_object(KernelObjectType.SKBUFF, inode, cpu=cpu)
        self.ctx.access_object(header, write=True, cpu=cpu)

        # Replenish the ring slot.
        refill = self.ctx.alloc_object(KernelObjectType.RX_BUF, None, cpu=cpu)
        self._ring.append(refill)

        self.rx_packets += 1
        skb = SKBuff(header=header, data=data, nbytes=nbytes, ingress=True)
        if inode is not None:
            skb.sock_hint = inode.ino
        return skb

    def transmit(self, skb: SKBuff, *, cpu: int = 0) -> None:
        """DMA the packet out and free its buffers."""
        self.ctx.access_object(skb.data, skb.nbytes, cpu=cpu)  # NIC reads payload
        self.ctx.free_object(skb.header, cpu=cpu)
        self.ctx.free_object(skb.data, cpu=cpu)
        self.tx_packets += 1

    def drain_ring(self, *, cpu: int = 0) -> None:
        """Free all ring buffers (device teardown)."""
        while self._ring:
            self.ctx.free_object(self._ring.popleft(), cpu=cpu)

    def _reassociate(self, obj: KernelObject, inode: "Inode") -> None:
        """Charge a generically-allocated buffer to the socket's knode."""
        adopt = getattr(self.ctx, "adopt_object", None)
        if adopt is not None:
            adopt(obj, inode)

    @property
    def ring_level(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"NICDriver(rx={self.rx_packets}, tx={self.tx_packets}, "
            f"ring={self.ring_level}/{self.ring_size}, early_demux={self.early_demux})"
        )
