"""Redis model: in-memory KV store with sockets and disk checkpoints.

Table 3: "In-memory key-value store that periodically checkpoints to
disk. 16 Redis instances serve requests from 16 clients with 4M keys,
75% sets, 25% gets."

Kernel-visible signature:

* **Network-dominated op path** — every request arrives as packets
  through the driver rx ring and TCP demux; replies flow back out. The
  socket-buffer object churn (Fig 2a's Redis mix) and the early-demux
  benefit (§4.2.3) both come from here.
* **Long-lived hot sockets** — one socket per instance stays open, so
  with KLOCs its buffers are always allocated hot.
* **Periodic RDB checkpoints** — a fraction of the heap is written to a
  fresh dump file, fsynced, closed, and the previous dump unlinked: a
  burst of page-cache/journal allocations whose KLOC immediately turns
  cold ("Redis ... uses only a few large files to checkpoint data").
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.units import GB, KB
from repro.net.socket import Socket
from repro.workloads.base import Workload, WorkloadConfig
from repro.workloads.keydist import ZipfKeys

#: Requests between checkpoint dumps (scaled from Redis's save cadence).
OPS_PER_CHECKPOINT = 2500
#: Fraction of the heap serialized per checkpoint dump (RDB dumps the
#: whole store; the simulator's dumps overlap, so each round serializes
#: half — the tracked-object peak is what Table 6 measures).
CHECKPOINT_FRACTION = 0.5
#: Request/reply sizes on the wire.
REQUEST_BYTES = 128


def redis_config(scale_factor: int = 512) -> WorkloadConfig:
    return WorkloadConfig(
        name="redis",
        dataset_bytes=40 * GB,
        scale_factor=scale_factor,
        num_threads=16,
        value_bytes=1024,
        extra={"set_fraction": 0.75},
    )


class RedisWorkload(Workload):
    """16 instances serving a 75/25 set/get mix with checkpointing."""

    def __init__(self, kernel, config: WorkloadConfig = None) -> None:  # type: ignore[assignment]
        super().__init__(kernel, config or redis_config())
        self._sockets: List[Socket] = []
        self._keys: Optional[ZipfKeys] = None
        self._checkpoint_seq = 0
        self._prev_dump: Optional[str] = None
        self._ops_since_checkpoint = 0
        self.checkpoints = 0

    def _setup(self) -> None:
        # The resident store: Redis keeps its working state in the heap
        # (Table 3 measures a 14GB footprint for this configuration).
        heap_bytes = self.config.scaled(14 * GB)
        self.proc.alloc_region("heap", heap_bytes)
        # Per-instance event-loop state and client I/O buffers: small and
        # constantly reused, unlike the big key-value heap.
        self.proc.alloc_region("client_bufs", 64 * KB * self.config.num_threads)
        self._keys = ZipfKeys(self.rng, 4_000_000)
        for instance in range(self.config.num_threads):
            self._sockets.append(self.sys.socket(6379 + instance))

    def teardown(self) -> None:
        for sock in self._sockets:
            self.sys.close_socket(sock)
        self._sockets.clear()
        super().teardown()

    # ------------------------------------------------------------------

    def run_op(self, op_index: int, cpu: int) -> None:
        sock = self._sockets[op_index % len(self._sockets)]
        is_set = self.rng.random() < self.config.extra.get("set_fraction", 0.75)
        key = self._keys.next_key()
        value = self.config.value_bytes

        # Request arrives on the wire and is consumed.
        request = REQUEST_BYTES + (value if is_set else 0)
        self.kernel.net.deliver(sock.port, request, cpu=cpu)
        self.sys.recv(sock, cpu=cpu)

        # Heap work — Redis ops are reference-heavy in userspace (§3.1's
        # Fig 2c puts Redis at ~38% kernel references): protocol parse and
        # reply serialization hit the per-client buffers; the dict probe
        # and value access hit the Zipf-hot region of the key-value heap.
        page_hint = key // 4  # ~4 values per page
        for i in range(3):  # protocol parse, arg vector, command dispatch
            self.proc.touch("client_bufs", KB, page_hint=op_index + i)
        for i in range(3):  # dict probe, robj, expiry check
            self.proc.touch("heap", KB, page_hint=page_hint + 7 * i)
        self.proc.touch("heap", value, write=is_set, page_hint=page_hint + 1)
        for i in range(4):  # reply serialization + event-loop bookkeeping
            self.proc.touch("client_bufs", KB, write=True, page_hint=op_index + 3 + i)

        # Reply: OK for sets, the value for gets.
        reply = 16 if is_set else value
        self.sys.send(sock, reply, cpu=cpu)

        self._ops_since_checkpoint += 1
        if self._ops_since_checkpoint >= OPS_PER_CHECKPOINT:
            self._ops_since_checkpoint = 0
            self._checkpoint(cpu=cpu)

    def _checkpoint(self, *, cpu: int) -> None:
        """Fork-style RDB dump: serialize part of the heap to a new file."""
        dump_bytes = int(self.proc.region_pages("heap") * 4096 * CHECKPOINT_FRACTION)
        name = f"/redis/dump-{self._checkpoint_seq:06d}.rdb"
        self._checkpoint_seq += 1
        fh = self.sys.creat(name, cpu=cpu)
        offset = 0
        chunk = 64 * KB
        while offset < dump_bytes:
            # Serialize from the heap, write to the page cache.
            self.proc.touch("heap", chunk, page_hint=offset // 4096)
            self.sys.write(fh, offset, min(chunk, dump_bytes - offset), cpu=cpu)
            offset += chunk
        self.sys.fsync(fh, cpu=cpu, background=True)
        self.sys.close(fh, cpu=cpu)
        if self._prev_dump is not None:
            self.sys.unlink(self._prev_dump, cpu=cpu)
        self._prev_dump = name
        self.checkpoints += 1
