"""Workload base: configuration scaling, the run loop, and results.

The paper's inputs are 10GB ("small") and 40GB ("large") against an 8GB
fast tier — the fast tier holds roughly a fifth of the large working set.
The simulator preserves those *ratios* at MB scale via ``scale_factor``:
every byte quantity in a config is the paper's value divided by the
factor (default 512, mapping 40GB → 80MB; the figure runs use 1024).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict

from repro.core.errors import ConfigError
from repro.core.units import GB, SEC
from repro.kernel.process import Process
from repro.kernel.syscalls import SyscallInterface

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel

#: Default paper-bytes → sim-bytes divisor (40GB → 80MB, 8GB fast → 16MB).
DEFAULT_SCALE_FACTOR = 512


@dataclass(frozen=True)
class WorkloadConfig:
    """Scaled workload parameters (Table 3)."""

    name: str
    #: Paper-scale dataset size; divide by ``scale_factor`` for sim bytes.
    dataset_bytes: int = 40 * GB
    scale_factor: int = DEFAULT_SCALE_FACTOR
    num_threads: int = 16
    value_bytes: int = 1024
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scale_factor <= 0:
            raise ConfigError(f"scale factor must be positive: {self.scale_factor}")
        if self.dataset_bytes <= 0:
            raise ConfigError(f"dataset must be positive: {self.dataset_bytes}")

    @property
    def sim_dataset_bytes(self) -> int:
        return self.dataset_bytes // self.scale_factor

    def scaled(self, nbytes: int) -> int:
        """Scale an arbitrary paper-scale byte quantity."""
        return max(1, nbytes // self.scale_factor)

    def small(self) -> "WorkloadConfig":
        """The 10GB variant of this config (Fig 2b's Small bars)."""
        return replace(self, dataset_bytes=10 * GB)


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    name: str
    ops: int
    elapsed_ns: int
    setup_ns: int = 0

    @property
    def throughput_ops_per_sec(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.ops / (self.elapsed_ns / SEC)

    def __repr__(self) -> str:
        return (
            f"WorkloadResult({self.name}, ops={self.ops}, "
            f"elapsed={self.elapsed_ns / SEC:.3f}s, "
            f"tput={self.throughput_ops_per_sec:.0f} ops/s)"
        )


class Workload:
    """Base driver: owns a process, a syscall interface, and RNG streams."""

    def __init__(self, kernel: "Kernel", config: WorkloadConfig) -> None:
        self.kernel = kernel
        self.config = config
        self.sys = SyscallInterface(kernel)
        self.proc = Process(kernel, config.name)
        self.rng = kernel.rng.stream(config.name)
        self._setup_done = False
        self._setup_ns = 0

    # -- subclass surface --------------------------------------------------

    def setup(self) -> None:
        """Build initial state (load phase). Subclasses override _setup."""
        if self._setup_done:
            return
        start = self.kernel.clock.now()
        self._setup()
        self._setup_ns = self.kernel.clock.now() - start
        self._setup_done = True

    def _setup(self) -> None:
        raise NotImplementedError

    def run_op(self, op_index: int, cpu: int) -> None:
        """Execute one operation of the workload's mix."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release application memory and open handles."""
        self.proc.teardown()

    # -- driver --------------------------------------------------------------

    def run(self, ops: int) -> WorkloadResult:
        """Run ``ops`` operations round-robin across modeled threads."""
        if ops <= 0:
            raise ConfigError(f"ops must be positive: {ops}")
        self.setup()
        start = self.kernel.clock.now()
        for i in range(ops):
            cpu = self.kernel.cpus.cpu_for_thread(i % self.config.num_threads)
            self.run_op(i, cpu)
        elapsed = self.kernel.clock.now() - start
        return WorkloadResult(
            name=self.config.name,
            ops=ops,
            elapsed_ns=elapsed,
            setup_ns=self._setup_ns,
        )
