"""Cassandra model: YCSB over a heavyweight JVM store with an app cache.

Table 3: "NoSQL DB running YCSB with 16 threads, 50% read-write ratio."

The behaviours §7.1 calls out to explain why "KLOCs is similar to
Nimble++ for Cassandra":

* **A large application-level cache (512MB for 200K keys)** absorbs most
  reads before they reach the kernel — "because this large cache
  satisfies many requests at the application level, kernel I/O is
  reduced, performance is less sensitive to kernel object placement".
* **High language overhead** — each op burns extra app-side references
  (JVM object graphs, GC pressure), diluting the kernel share further.
* Writes append to a commitlog and occasionally flush memtables to
  SSTables, Cassandra-style; YCSB requests arrive over sockets.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.units import GB, KB, MB
from repro.net.socket import Socket
from repro.vfs.filesystem import FileHandle
from repro.workloads.base import Workload, WorkloadConfig
from repro.workloads.ycsb import YCSBGenerator, YCSBOp

#: Probability a read is served from the row cache (the paper's 512MB
#: cache over 200K keys keeps hit rates high under Zipf).
APP_CACHE_HIT_RATE = 0.85
#: Writes between memtable → SSTable flushes.
WRITES_PER_FLUSH = 512
SSTABLE_BYTES = 128 * KB
#: JVM object-graph pointer chases per op (1KB cache-line-cluster reads).
JVM_GRAPH_TOUCHES = 10
#: JVM allocation/GC-card writes per op.
JVM_WRITE_TOUCHES = 6
#: Interpreter/JIT/lock CPU time per op — tier-independent work that is
#: the core of §7.1's "high Java and language overheads towards storage
#: access", and the reason Cassandra benefits least from fast memory.
JVM_CPU_NS = 1500


def cassandra_config(scale_factor: int = 512) -> WorkloadConfig:
    return WorkloadConfig(
        name="cassandra",
        dataset_bytes=40 * GB,
        scale_factor=scale_factor,
        num_threads=16,
        value_bytes=1024,
    )


class CassandraWorkload(Workload):
    """YCSB 50/50 against a cache-heavy JVM store."""

    def __init__(self, kernel, config: WorkloadConfig = None) -> None:  # type: ignore[assignment]
        super().__init__(kernel, config or cassandra_config())
        self._sockets: List[Socket] = []
        self._ycsb: Optional[YCSBGenerator] = None
        self._commitlog: Optional[FileHandle] = None
        self._commitlog_offset = 0
        self._writes_since_flush = 0
        self._sstables: List[str] = []
        self._next_sstable = 0
        self.flushes = 0

    def _setup(self) -> None:
        # The 512MB application-level cache (§7.1) + the JVM heap, scaled.
        self.proc.alloc_region("row_cache", self.config.scaled(512 * MB))
        self.proc.alloc_region("jvm_heap", self.config.scaled(10 * GB))
        self._ycsb = YCSBGenerator(self.rng, num_keys=200_000, read_fraction=0.5)
        for client in range(self.config.num_threads):
            self._sockets.append(self.sys.socket(9042 + client))
        self._commitlog = self.sys.creat("/cassandra/commitlog")
        # Seed a few SSTables so cache misses have something to read.
        for _ in range(8):
            self._flush_memtable(cpu=0)

    def teardown(self) -> None:
        if self._commitlog is not None:
            self.sys.close(self._commitlog)
            self._commitlog = None
        for sock in self._sockets:
            self.sys.close_socket(sock)
        self._sockets.clear()
        super().teardown()

    # ------------------------------------------------------------------

    def run_op(self, op_index: int, cpu: int) -> None:
        request = self._ycsb.next_request()
        sock = self._sockets[op_index % len(self._sockets)]

        # YCSB request over the wire.
        self.kernel.net.deliver(sock.port, 256, cpu=cpu)
        self.sys.recv(sock, cpu=cpu)

        # JVM overhead on every op: pointer-chased object graph reads,
        # allocation/GC-card writes, and tier-independent CPU time.
        for i in range(JVM_GRAPH_TOUCHES):
            self.proc.touch("jvm_heap", KB, page_hint=request.key + 31 * i)
        for i in range(JVM_WRITE_TOUCHES):
            self.proc.touch("jvm_heap", KB, write=True, page_hint=op_index + 7 * i)
        self.kernel.clock.advance(JVM_CPU_NS)

        if request.op is YCSBOp.READ:
            self._do_read(request.key, cpu)
        else:
            self._do_update(request.key, cpu)

        self.sys.send(sock, self.config.value_bytes, cpu=cpu)

    def _do_read(self, key: int, cpu: int) -> None:
        hit = self.rng.random() < APP_CACHE_HIT_RATE
        self.proc.touch("row_cache", self.config.value_bytes, page_hint=key)
        if hit or not self._sstables:
            return
        # Cache miss: read from a random SSTable.
        name = self.rng.choice(self._sstables)
        fh = self.sys.open(name, cpu=cpu)
        offset = self.rng.randint(0, max(0, SSTABLE_BYTES - self.config.value_bytes))
        self.sys.read(fh, offset, self.config.value_bytes, cpu=cpu)
        self.sys.close(fh, cpu=cpu)

    def _do_update(self, key: int, cpu: int) -> None:
        # Commitlog append + memtable (row cache doubles as memtable here).
        self.sys.write(
            self._commitlog, self._commitlog_offset, self.config.value_bytes, cpu=cpu
        )
        self._commitlog_offset += self.config.value_bytes
        self.proc.touch(
            "row_cache", self.config.value_bytes, write=True, page_hint=key
        )
        self._writes_since_flush += 1
        if self._writes_since_flush >= WRITES_PER_FLUSH:
            self._writes_since_flush = 0
            self._flush_memtable(cpu=cpu)

    def _flush_memtable(self, *, cpu: int) -> None:
        name = f"/cassandra/sstable-{self._next_sstable:06d}.db"
        self._next_sstable += 1
        fh = self.sys.creat(name, cpu=cpu)
        offset = 0
        while offset < SSTABLE_BYTES:
            self.sys.write(fh, offset, 32 * KB, cpu=cpu)
            offset += 32 * KB
        self.sys.fsync(fh, cpu=cpu, background=True)
        self.sys.close(fh, cpu=cpu)
        self._sstables.append(name)
        self.flushes += 1
        # Keep the on-disk population bounded, like size-tiered compaction.
        while len(self._sstables) > 64:
            self.sys.unlink(self._sstables.pop(0), cpu=cpu)
