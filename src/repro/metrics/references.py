"""Reference attribution: who memory accesses hit (Figure 2c).

The paper samples this with VTune/perf counters; the simulator counts
every modeled reference exactly, attributed by page owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from repro.mem.frame import PageOwner

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel


@dataclass
class ReferenceReport:
    """Counts of memory references by origin."""

    kernel_refs: int = 0
    app_refs: int = 0
    kernel_bytes: int = 0
    app_bytes: int = 0
    by_owner: Dict[PageOwner, int] = field(default_factory=dict)

    @property
    def total_refs(self) -> int:
        return self.kernel_refs + self.app_refs

    def kernel_fraction(self) -> float:
        """Fig 2c's y-axis: % of references to kernel objects."""
        total = self.total_refs
        return self.kernel_refs / total if total else 0.0

    def owner_fraction(self, owner: PageOwner) -> float:
        total = self.total_refs
        return self.by_owner.get(owner, 0) / total if total else 0.0


def reference_report(kernel: "Kernel") -> ReferenceReport:
    """Sum the kernel's charge cells: every owner but APP is kernel."""
    refs = kernel.refs_by_owner
    nbytes = kernel.ref_bytes_by_owner
    app = PageOwner.APP
    return ReferenceReport(
        kernel_refs=sum(refs.values()) - refs[app],
        app_refs=refs[app],
        kernel_bytes=sum(nbytes.values()) - nbytes[app],
        app_bytes=nbytes[app],
        by_owner=refs,
    )
