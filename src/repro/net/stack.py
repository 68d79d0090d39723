"""Network stack facade: socket lifecycle, send/recv, ingress simulation.

Ties the driver, TCP layer, and sockets together behind the handful of
calls workloads use (``socket() / deliver() / recv() / send() / close()``),
and drives the same KLOC lifecycle hooks as the filesystem — a socket's
inode creation is a knode creation (§4.2.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.core.errors import NetworkError
from repro.core.objtypes import KernelObjectType
from repro.net.driver import NICDriver
from repro.net.skbuff import MTU_BYTES, SKBuff
from repro.net.socket import Socket
from repro.net.tcp import TCPLayer
from repro.vfs.inode import InodeTable

if TYPE_CHECKING:
    from repro.core.context import KernelContext


class NetworkStack:
    """Everything above the wire and below the application."""

    def __init__(
        self,
        ctx: "KernelContext",
        *,
        early_demux: bool = False,
        rx_ring_size: int = 256,
    ) -> None:
        self.ctx = ctx
        self.inodes = InodeTable()
        self.tcp = TCPLayer(ctx)
        self.driver = NICDriver(
            ctx,
            ring_size=rx_ring_size,
            early_demux=early_demux,
            resolve_inode=self._inode_for_port,
        )
        self._sockets: Dict[int, Socket] = {}
        self._next_sid = 1

    def _inode_for_port(self, port: int):
        socket = self.tcp.socket_for(port)
        return socket.inode if socket is not None else None

    # ------------------------------------------------------------------
    # socket lifecycle
    # ------------------------------------------------------------------

    def socket(self, port: int, *, cpu: int = 0) -> Socket:
        """Create and bind a socket (socket() + bind() + accept() rolled
        into one, which is all the workloads need)."""
        if self.tcp.socket_for(port) is not None:
            raise NetworkError(f"port {port} already in use")
        sock_obj = self.ctx.alloc_object(KernelObjectType.SOCK, None, cpu=cpu)
        inode = self.inodes.create(is_socket=True, backing=sock_obj)
        self.ctx.on_inode_create(inode, cpu=cpu)
        self.ctx.adopt_object(sock_obj, inode)
        socket = Socket(self._next_sid, port, inode, sock_obj)
        self._next_sid += 1
        self._sockets[socket.sid] = socket
        self.tcp.bind(socket)
        inode.open()
        self.ctx.on_inode_open(inode, cpu=cpu)
        return socket

    def close(self, socket: Socket, *, cpu: int = 0) -> None:
        """Close a socket: drain its queue and tear down its objects."""
        if socket.closed:
            raise NetworkError(f"socket {socket.sid} already closed")
        while socket.rx_queue:
            skb = socket.rx_queue.popleft()
            self.ctx.free_object(skb.header, cpu=cpu)
            self.ctx.free_object(skb.data, cpu=cpu)
        socket.closed = True
        self.tcp.unbind(socket)
        del self._sockets[socket.sid]
        socket.inode.close()
        self.ctx.on_inode_close(socket.inode, cpu=cpu)
        self.ctx.on_inode_unlink(socket.inode, cpu=cpu)
        self.ctx.free_object(socket.sock_obj, cpu=cpu)
        self.inodes.drop(socket.inode.ino)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def deliver(self, port: int, nbytes: int, *, cpu: int = 0) -> int:
        """Simulate ingress: a remote peer sends ``nbytes`` to ``port``.

        Splits into MTU-sized packets; each goes through the driver (ring
        buffer, skbuff construction, optional early demux) and the TCP
        layer into the socket's receive queue. Returns packets delivered.
        """
        if self.tcp.socket_for(port) is None:
            raise NetworkError(f"no socket bound to port {port}")
        packets = 0
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, MTU_BYTES)
            skb = self.driver.receive(port, chunk, cpu=cpu)
            self.tcp.ingress(skb, port, cpu=cpu)
            remaining -= chunk
            packets += 1
        return packets

    def recv(self, socket: Socket, *, cpu: int = 0) -> int:
        """Application reads everything queued; returns bytes consumed."""
        ctx = self.ctx
        consumed = 0
        while True:
            skb = socket.dequeue()
            if skb is None:
                break
            # Copy-to-user: the application reads the payload.
            ctx.access_object(skb.data, skb.nbytes, cpu=cpu)
            ctx.free_object(skb.header, cpu=cpu)
            ctx.free_object(skb.data, cpu=cpu)
            consumed += skb.nbytes
        return consumed

    def send(self, socket: Socket, nbytes: int, *, cpu: int = 0) -> int:
        """Application sends ``nbytes``; returns packets transmitted."""
        if nbytes <= 0:
            raise NetworkError(f"send needs bytes: {nbytes}")
        if socket.closed:
            raise NetworkError(f"socket {socket.sid} is closed")
        packets = 0
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, MTU_BYTES)
            header = self.ctx.alloc_object(
                KernelObjectType.SKBUFF, socket.inode, cpu=cpu
            )
            data = self.ctx.alloc_object(
                KernelObjectType.SKBUFF_DATA, socket.inode, cpu=cpu
            )
            # Copy-from-user into the kernel buffer.
            self.ctx.access_object(data, chunk, write=True, cpu=cpu)
            skb = SKBuff(
                header=header,
                data=data,
                nbytes=chunk,
                sock_hint=socket.inode.ino,
                ingress=False,
            )
            self.tcp.egress(socket, skb, cpu=cpu)
            self.driver.transmit(skb, cpu=cpu)
            remaining -= chunk
            packets += 1
        socket.bytes_sent += nbytes
        return packets

    def live_sockets(self) -> int:
        return len(self._sockets)

    def __repr__(self) -> str:
        return f"NetworkStack(sockets={self.live_sockets()}, driver={self.driver!r})"
