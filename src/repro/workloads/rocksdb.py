"""RocksDB model: LSM-tree key-value store over the simulated filesystem.

Table 3: "Facebook's persistent key-value store based on log-structured
merge tree. DBbench with 1M keys and 16 client threads, 50% random and
sequential writes and reads."

The kernel-visible signature this model reproduces:

* **File churn** — writes fill an in-memory memtable; each flush writes a
  fresh SST file sequentially, fsyncs, and *closes* it. Closed SSTs turn
  cold (their KLOCs go inactive) but their page-cache pages linger — the
  fast-memory pollution Fig 4 shows Naive suffering from.
* **Compaction** — periodically merges the oldest SSTs into one new file
  and unlinks the inputs: kernel objects are freed, not migrated (§3.2).
* **Point reads** — Zipf-skewed toward recent SSTs, through an LRU handle
  cache; cold files are opened and closed per read, driving knode
  activity transitions.
* **~50% OS time** — every op also touches the app-side memtable/block
  cache, keeping the reference split near Fig 2c's RocksDB band.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.core.units import GB, KB
from repro.vfs.filesystem import FileHandle
from repro.workloads.base import Workload, WorkloadConfig

#: Simulated SST size. The paper's SSTs are 4MB; shrinking them by the
#: full scale factor would make per-file metadata dominate, so SSTs scale
#: by 32x (4MB → 128KB), preserving a hundreds-of-files population.
SST_BYTES = 128 * KB
#: Writes buffered before a memtable flush (memtable / value size).
WRITES_PER_FLUSH = 64
#: Flushes between compactions; each compaction merges this many inputs.
FLUSHES_PER_COMPACTION = 8
COMPACTION_FANIN = 4
#: Open file-handle cache (RocksDB's table cache). Holds the read-hot
#: upper-level SSTs; cold-tail reads open and close their file, so cold
#: files' knodes toggle active → inactive exactly as §3.2 describes.
HANDLE_CACHE_SIZE = 128


def rocksdb_config(scale_factor: int = 512) -> WorkloadConfig:
    return WorkloadConfig(
        name="rocksdb",
        dataset_bytes=40 * GB,
        scale_factor=scale_factor,
        num_threads=16,
        value_bytes=1024,
    )


class RocksDBWorkload(Workload):
    """dbbench-style driver over the LSM file lifecycle."""

    def __init__(self, kernel, config: WorkloadConfig = None) -> None:  # type: ignore[assignment]
        super().__init__(kernel, config or rocksdb_config())
        self._sst_names: List[str] = []
        self._next_sst = 0
        self._writes_since_flush = 0
        self._flushes_since_compaction = 0
        self._handles: "OrderedDict[str, FileHandle]" = OrderedDict()
        self.flushes = 0
        self.compactions = 0

    # ------------------------------------------------------------------

    def _setup(self) -> None:
        """Load phase: memtable, then the initial SST population, then the
        read-side caches (the block cache only warms once reads start, so
        it is the *last* thing to allocate — under greedy placement it
        therefore lands behind the load phase's page-cache pollution)."""
        self.proc.alloc_region("memtable", WRITES_PER_FLUSH * self.config.value_bytes)
        # The read-side caches grow as the load phase proceeds (malloc on
        # demand, interleaved with file I/O), as they do in the real app.
        self.proc.alloc_region("block_cache", 4096)
        self.proc.alloc_region("table_readers", 4096)
        block_cache_target = self.config.scaled(4 * GB)
        # Table readers, index/filter blocks, per-thread buffers: the bulk
        # of dbbench's 12.4GB footprint (Table 3), mostly cold.
        table_reader_target = self.config.scaled(7 * GB)
        initial_files = max(4, self.config.sim_dataset_bytes // SST_BYTES)
        bc_step = max(1, block_cache_target // initial_files)
        tr_step = max(1, table_reader_target // initial_files)
        for _ in range(initial_files):
            self._flush_memtable(cpu=0)
            self.proc.extend_region("block_cache", bc_step)
            self.proc.extend_region("table_readers", tr_step)

    def teardown(self) -> None:
        for handle in self._handles.values():
            self.sys.close(handle)
        self._handles.clear()
        super().teardown()

    # ------------------------------------------------------------------
    # LSM mechanics
    # ------------------------------------------------------------------

    def _flush_memtable(self, *, cpu: int) -> None:
        """Write the memtable out as a brand-new SST: the open → write →
        sync → close lifecycle of Figure 3(b). The close is the KLOC
        signal that the write burst's kernel objects are reclaimable;
        read-hot files are reopened moments later and pulled back page by
        page as they are actually referenced.
        """
        name = f"/sst/{self._next_sst:08d}.sst"
        self._next_sst += 1
        fh = self.sys.creat(name, cpu=cpu)
        offset = 0
        chunk = 16 * KB
        while offset < SST_BYTES:
            self.sys.write(fh, offset, chunk, cpu=cpu)
            offset += chunk
        self.sys.fsync(fh, cpu=cpu, background=True)
        self.sys.close(fh, cpu=cpu)
        self._sst_names.append(name)
        self.flushes += 1

        self._flushes_since_compaction += 1
        if self._flushes_since_compaction >= FLUSHES_PER_COMPACTION:
            self._flushes_since_compaction = 0
            self._compact(cpu=cpu)

    def _compact(self, *, cpu: int) -> None:
        """Merge the oldest SSTs into one output, unlink the inputs."""
        if len(self._sst_names) < COMPACTION_FANIN + 1:
            return
        inputs = self._sst_names[:COMPACTION_FANIN]
        self._sst_names = self._sst_names[COMPACTION_FANIN:]
        for name in inputs:
            self._evict_handle(name, cpu=cpu)
            fh = self.sys.open(name, cpu=cpu)
            offset = 0
            while offset < SST_BYTES:
                self.sys.read(fh, offset, 16 * KB, cpu=cpu)
                offset += 16 * KB
            self.sys.close(fh, cpu=cpu)

        out = f"/sst/{self._next_sst:08d}.sst"
        self._next_sst += 1
        fh = self.sys.creat(out, cpu=cpu)
        offset = 0
        total = SST_BYTES * COMPACTION_FANIN
        while offset < total:
            self.sys.write(fh, offset, 16 * KB, cpu=cpu)
            offset += 16 * KB
        self.sys.fsync(fh, cpu=cpu, background=True)
        self.sys.close(fh, cpu=cpu)
        # Merged output replaces the inputs at the cold end of the LSM.
        self._sst_names.insert(0, out)
        for name in inputs:
            self.sys.unlink(name, cpu=cpu)
        self.compactions += 1

    # ------------------------------------------------------------------
    # handle cache
    # ------------------------------------------------------------------

    def _handle_for(self, name: str, *, cpu: int) -> FileHandle:
        handle = self._handles.get(name)
        if handle is not None:
            self._handles.move_to_end(name)
            return handle
        handle = self.sys.open(name, cpu=cpu)
        self._cache_handle(name, handle, cpu=cpu)
        return handle

    def _cache_handle(self, name: str, handle: FileHandle, *, cpu: int) -> None:
        self._handles[name] = handle
        if len(self._handles) > HANDLE_CACHE_SIZE:
            _, old = self._handles.popitem(last=False)
            self.sys.close(old, cpu=cpu)

    def _evict_handle(self, name: str, *, cpu: int) -> None:
        handle = self._handles.pop(name, None)
        if handle is not None:
            self.sys.close(handle, cpu=cpu)

    # ------------------------------------------------------------------
    # op mix: 50% reads, 50% writes (half of each sequential/random)
    # ------------------------------------------------------------------

    def run_op(self, op_index: int, cpu: int) -> None:
        if self.rng.random() < 0.5:
            self._do_write(op_index, cpu)
        else:
            self._do_read(cpu)

    def _do_write(self, op_index: int, cpu: int) -> None:
        # App side: skiplist probe, then arena append into the memtable.
        self.proc.touch("memtable", 4 * KB, page_hint=self._writes_since_flush + 5)
        self.proc.touch(
            "memtable",
            self.config.value_bytes,
            write=True,
            page_hint=self._writes_since_flush,
        )
        self._writes_since_flush += 1
        if self._writes_since_flush >= WRITES_PER_FLUSH:
            self._writes_since_flush = 0
            self._flush_memtable(cpu=cpu)

    #: Point-read locality: the block cache absorbs most reads at the
    #: application level; only misses reach the filesystem. RocksDB's
    #: file page cache is therefore write-once-read-rarely — the reason
    #: flush output can be downgraded at close without penalty.
    BLOCK_CACHE_HIT_RATE = 0.85
    #: Misses that target recently flushed SSTs (blocks not yet promoted
    #: into the block cache); the rest sweep the store uniformly. Recency
    #: locality lives in the *application* cache, so file-page-cache
    #: misses are nearly uniform — flushed SSTs really do turn cold at
    #: close, which is the signal KLOCs exploits.
    RECENT_MISS_FRACTION = 0.1
    HOT_FILE_WINDOW = 16

    def _do_read(self, cpu: int) -> None:
        if not self._sst_names:
            return
        # Index binary search + block-cache probe happen on every read.
        key = self.rng.randint(0, 1 << 20)
        self.proc.touch("block_cache", 4 * KB, page_hint=key)
        self.proc.touch(
            "block_cache", self.config.value_bytes, write=True, page_hint=key + 3
        )
        if self.rng.random() < 0.05:
            self.proc.touch("table_readers", 4 * KB, page_hint=key * 7)
        if self.rng.random() < self.BLOCK_CACHE_HIT_RATE:
            return  # served from the application-level cache

        nfiles = len(self._sst_names)
        if self.rng.random() < self.RECENT_MISS_FRACTION:
            window = min(self.HOT_FILE_WINDOW, nfiles)
            rank = min(self.rng.zipf(window, theta=0.9), window - 1)
        else:
            rank = self.rng.randint(0, nfiles - 1)
        name = self._sst_names[-1 - rank]
        handle = self._handle_for(name, cpu=cpu)
        offset = self.rng.randint(0, max(0, SST_BYTES - self.config.value_bytes))
        self.sys.read(handle, offset, self.config.value_bytes, cpu=cpu)

    @property
    def live_ssts(self) -> int:
        return len(self._sst_names)
