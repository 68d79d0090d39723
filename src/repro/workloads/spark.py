"""Spark model: Terasort over an HDFS-style chunked file layout.

Table 3: "Apache Spark with Hadoop, running Terasort on 20GB of data
with 16 threads. The workload first generates the dataset followed by
the analytics."

Phases (each ``run_op`` advances the phase machine by one unit of work):

1. **Generate** — write the input as HDFS-style chunk files, sequentially.
2. **Shuffle** — read every input chunk, sort in an app-side buffer
   (heavy app references), write spill files.
3. **Merge** — read the spills, write sorted output chunks, unlink spills
   and inputs (checkpoint-and-delete, §3.1's footnote on HDFS caching).

Spark's op unit is one chunk-step, so throughput is records-proportional
rather than request-oriented.
"""

from __future__ import annotations

from typing import List

from repro.core.units import GB, KB, MB
from repro.workloads.base import Workload, WorkloadConfig

#: HDFS chunk size: 128MB in the paper's deployments, scaled by 64x like
#: RocksDB's SSTs to keep per-file metadata proportionate.
CHUNK_BYTES = 2 * MB
IO_UNIT = 64 * KB


def spark_config(scale_factor: int = 512) -> WorkloadConfig:
    return WorkloadConfig(
        name="spark",
        dataset_bytes=20 * GB,
        scale_factor=scale_factor,
        num_threads=16,
        value_bytes=100,  # terasort records
    )


class SparkWorkload(Workload):
    """Generate → shuffle → merge phase machine."""

    def __init__(self, kernel, config: WorkloadConfig = None) -> None:  # type: ignore[assignment]
        super().__init__(kernel, config or spark_config())
        self._inputs: List[str] = []
        self._spills: List[str] = []
        self._outputs: List[str] = []
        self._phase = "generate"
        self._cursor = 0

    def _setup(self) -> None:
        # Executor heap + sort buffer (Spark's in-memory working set).
        self.proc.alloc_region("executor_heap", self.config.scaled(16 * GB))
        self.proc.alloc_region("sort_buffer", self.config.scaled(4 * GB))
        self._total_chunks = max(2, self.config.sim_dataset_bytes // CHUNK_BYTES)

    @property
    def phase(self) -> str:
        return self._phase

    def run_op(self, op_index: int, cpu: int) -> None:
        if self._phase == "generate":
            self._generate_chunk(cpu)
        elif self._phase == "shuffle":
            self._shuffle_chunk(cpu)
        else:
            self._merge_chunk(cpu)

    # ------------------------------------------------------------------

    def _write_file(self, name: str, nbytes: int, cpu: int, *, from_region: str) -> None:
        fh = self.sys.creat(name, cpu=cpu)
        offset = 0
        while offset < nbytes:
            self.proc.touch(from_region, IO_UNIT, write=True, page_hint=offset // 4096)
            self.sys.write(fh, offset, IO_UNIT, cpu=cpu)
            offset += IO_UNIT
        self.sys.fsync(fh, cpu=cpu)
        self.sys.close(fh, cpu=cpu)

    def _read_file(self, name: str, nbytes: int, cpu: int, *, to_region: str) -> None:
        fh = self.sys.open(name, cpu=cpu)
        offset = 0
        while offset < nbytes:
            self.sys.read(fh, offset, IO_UNIT, cpu=cpu)
            self.proc.touch(to_region, IO_UNIT, write=True, page_hint=offset // 4096)
            offset += IO_UNIT
        self.sys.close(fh, cpu=cpu)

    def _generate_chunk(self, cpu: int) -> None:
        name = f"/hdfs/input/part-{len(self._inputs):05d}"
        self._write_file(name, CHUNK_BYTES, cpu, from_region="executor_heap")
        self._inputs.append(name)
        if len(self._inputs) >= self._total_chunks:
            self._phase = "shuffle"
            self._cursor = 0

    def _shuffle_chunk(self, cpu: int) -> None:
        name = self._inputs[self._cursor]
        self._read_file(name, CHUNK_BYTES, cpu, to_region="sort_buffer")
        # Sort the partition: heavy app-side work over the sort buffer.
        self.proc.touch("sort_buffer", CHUNK_BYTES // 4, write=True)
        spill = f"/spark/spill-{self._cursor:05d}"
        self._write_file(spill, CHUNK_BYTES, cpu, from_region="sort_buffer")
        self._spills.append(spill)
        self._cursor += 1
        if self._cursor >= len(self._inputs):
            self._phase = "merge"
            self._cursor = 0

    def _merge_chunk(self, cpu: int) -> None:
        if self._cursor >= len(self._spills):
            return  # job complete; further ops are no-ops
        spill = self._spills[self._cursor]
        self._read_file(spill, CHUNK_BYTES, cpu, to_region="sort_buffer")
        out = f"/hdfs/output/part-{self._cursor:05d}"
        self._write_file(out, CHUNK_BYTES, cpu, from_region="sort_buffer")
        self._outputs.append(out)
        self.sys.unlink(spill, cpu=cpu)
        self.sys.unlink(self._inputs[self._cursor], cpu=cpu)
        self._cursor += 1
        if self._cursor >= len(self._spills):
            self._phase = "done"

    @property
    def done(self) -> bool:
        return self._phase == "done"

    def ops_to_complete(self) -> int:
        """Total ops needed to run the whole job once."""
        return 3 * self._total_chunks
