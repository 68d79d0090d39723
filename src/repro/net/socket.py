"""Sockets: file-like endpoints with receive queues.

Each socket owns an inode (``is_socket=True``) so its kernel objects —
the sock structure, queued skbuffs, driver buffers — hang off a knode
exactly like a file's (Figure 1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.alloc.base import KernelObject
from repro.core.errors import NetworkError
from repro.net.skbuff import SKBuff
from repro.vfs.inode import Inode


class Socket:
    """One connected socket endpoint."""

    def __init__(self, sid: int, port: int, inode: Inode, sock_obj: KernelObject) -> None:
        self.sid = sid
        self.port = port
        self.inode = inode
        #: Table 1's *sock* object holding this socket's kernel state.
        self.sock_obj = sock_obj
        self.rx_queue: Deque[SKBuff] = deque()
        self.closed = False
        self.bytes_received = 0
        self.bytes_sent = 0
        self.packets_received = 0

    @property
    def rx_backlog(self) -> int:
        return len(self.rx_queue)

    def enqueue(self, skb: SKBuff) -> None:
        if self.closed:
            raise NetworkError(f"socket {self.sid} is closed")
        self.rx_queue.append(skb)
        self.packets_received += 1
        self.bytes_received += skb.nbytes

    def dequeue(self) -> Optional[SKBuff]:
        if self.closed:
            raise NetworkError(f"socket {self.sid} is closed")
        if not self.rx_queue:
            return None
        return self.rx_queue.popleft()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"Socket(#{self.sid} port={self.port} {state} backlog={self.rx_backlog})"
