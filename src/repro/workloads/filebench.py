"""Filebench model: raw filesystem stress, with selectable personalities.

Table 3: "File system benchmark using 16 threads, executing 50%
sequential and random reads on a 32GB file" (plus the §3.1 discussion of
its write path: page cache updates, journalling, metadata radix trees,
block driver buffers).

This is the most kernel-intensive workload — §3.1: "Filebench spends 86%
of execution time inside the OS" — which the model reproduces by doing
almost no application-side work per op.

Like the real Filebench, the driver supports *personalities* via
``extra={"profile": ...}``:

* ``"fileserver"`` (default, the paper's configuration): 16 big
  per-thread files, 4KB-64KB reads/writes, half sequential/half random.
* ``"varmail"``: mail-spool churn — create/append/fsync/read/delete of
  small files. Maximal inode/dentry/journal turnover: the KLOC stressor.
* ``"webserver"``: open-read-close over a large population of small
  files plus an append-only access log.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.errors import ConfigError
from repro.core.units import GB, KB
from repro.vfs.filesystem import FileHandle
from repro.workloads.base import Workload, WorkloadConfig

#: I/O sizes drawn per op (Filebench's 4KB blocks, coalesced bursts).
IO_BYTES = [4 * KB, 16 * KB, 64 * KB]
#: Fraction of ops that write (the workload is read-heavy).
WRITE_FRACTION = 0.3


def filebench_config(scale_factor: int = 512) -> WorkloadConfig:
    return WorkloadConfig(
        name="filebench",
        dataset_bytes=32 * GB,
        scale_factor=scale_factor,
        num_threads=16,
        value_bytes=4 * KB,
    )


#: varmail personality parameters.
VARMAIL_FILE_BYTES = 16 * KB
VARMAIL_POPULATION = 256
#: webserver personality parameters.
WEBSERVER_FILE_BYTES = 32 * KB
WEBSERVER_POPULATION = 256

PROFILES = ("fileserver", "varmail", "webserver")


class FilebenchWorkload(Workload):
    """16 threads driving one of the Filebench personalities."""

    def __init__(self, kernel, config: WorkloadConfig = None) -> None:  # type: ignore[assignment]
        super().__init__(kernel, config or filebench_config())
        self.profile = self.config.extra.get("profile", "fileserver")
        if self.profile not in PROFILES:
            raise ConfigError(
                f"unknown filebench profile {self.profile!r}; "
                f"choose from {PROFILES}"
            )
        self._handles: List[FileHandle] = []
        self._file_bytes = 0
        self._seq_offset: Dict[int, int] = {}
        self._mail_names: List[str] = []
        self._next_mail = 0
        self._log_handle: FileHandle = None  # type: ignore[assignment]
        self._log_offset = 0

    # ------------------------------------------------------------------
    # setup per personality
    # ------------------------------------------------------------------

    def _setup(self) -> None:
        # A token application buffer — Filebench itself is a thin shim.
        self.proc.alloc_region("iobuf", 64 * KB * self.config.num_threads)
        if self.profile == "fileserver":
            self._setup_fileserver()
        elif self.profile == "varmail":
            self._setup_small_files("/mail", VARMAIL_POPULATION, VARMAIL_FILE_BYTES)
        else:
            self._setup_small_files(
                "/htdocs", WEBSERVER_POPULATION, WEBSERVER_FILE_BYTES
            )
            self._log_handle = self.sys.creat("/logs/access.log")

    def _setup_fileserver(self) -> None:
        nfiles = self.config.num_threads
        self._file_bytes = self.config.sim_dataset_bytes // nfiles
        for i in range(nfiles):
            fh = self.sys.creat(f"/fb/file-{i:02d}", cpu=i % self.kernel.num_cpus)
            offset = 0
            while offset < self._file_bytes:
                self.sys.write(fh, offset, 64 * KB, cpu=i % self.kernel.num_cpus)
                offset += 64 * KB
            self.sys.fsync(fh, cpu=i % self.kernel.num_cpus)
            self._handles.append(fh)
            self._seq_offset[i] = 0

    def _setup_small_files(self, root: str, population: int, nbytes: int) -> None:
        for i in range(population):
            name = f"{root}/f{i:06d}"
            fh = self.sys.creat(name)
            self.sys.write(fh, 0, nbytes)
            self.sys.close(fh)
            self._mail_names.append(name)
        self._next_mail = population

    def teardown(self) -> None:
        for fh in self._handles:
            self.sys.close(fh)
        self._handles.clear()
        if self._log_handle is not None:
            self.sys.close(self._log_handle)
            self._log_handle = None
        super().teardown()

    # ------------------------------------------------------------------
    # op mixes
    # ------------------------------------------------------------------

    def run_op(self, op_index: int, cpu: int) -> None:
        if self.profile == "fileserver":
            self._fileserver_op(op_index, cpu)
        elif self.profile == "varmail":
            self._varmail_op(cpu)
        else:
            self._webserver_op(cpu)
        # Minimal app-side work: copy + checksum in the I/O buffer.
        self.proc.touch("iobuf", 4 * KB, write=True)
        self.proc.touch("iobuf", 4 * KB, page_hint=op_index)

    def _fileserver_op(self, op_index: int, cpu: int) -> None:
        thread = op_index % self.config.num_threads
        fh = self._handles[thread]
        nbytes = self.rng.choice(IO_BYTES)
        sequential = self.rng.random() < 0.5
        if sequential:
            offset = self._seq_offset[thread]
            self._seq_offset[thread] = (offset + nbytes) % max(
                1, self._file_bytes - nbytes
            )
        else:
            offset = self.rng.randint(0, max(0, self._file_bytes - nbytes))
        if self.rng.random() < WRITE_FRACTION:
            self.sys.write(fh, offset, nbytes, cpu=cpu)
        else:
            self.sys.read(fh, offset, nbytes, cpu=cpu)

    def _varmail_op(self, cpu: int) -> None:
        """Mail-spool churn: deliver (create+fsync), read, or delete."""
        roll = self.rng.random()
        if roll < 0.4 or not self._mail_names:  # deliver new mail
            name = f"/mail/f{self._next_mail:06d}"
            self._next_mail += 1
            fh = self.sys.creat(name, cpu=cpu)
            self.sys.write(fh, 0, VARMAIL_FILE_BYTES, cpu=cpu)
            self.sys.fsync(fh, cpu=cpu)
            self.sys.close(fh, cpu=cpu)
            self._mail_names.append(name)
        elif roll < 0.8:  # read a mailbox file
            name = self.rng.choice(self._mail_names)
            fh = self.sys.open(name, cpu=cpu)
            self.sys.read(fh, 0, VARMAIL_FILE_BYTES, cpu=cpu)
            self.sys.close(fh, cpu=cpu)
        else:  # expunge
            index = self.rng.randint(0, len(self._mail_names) - 1)
            self.sys.unlink(self._mail_names.pop(index), cpu=cpu)

    def _webserver_op(self, cpu: int) -> None:
        """Serve a page: open-read-close + an access-log append."""
        name = self.rng.choice(self._mail_names)
        fh = self.sys.open(name, cpu=cpu)
        self.sys.read(fh, 0, WEBSERVER_FILE_BYTES, cpu=cpu)
        self.sys.close(fh, cpu=cpu)
        self.sys.write(self._log_handle, self._log_offset, 256, cpu=cpu)
        self._log_offset += 256
