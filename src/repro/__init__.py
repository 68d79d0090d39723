"""kloc-repro: reproduction of *KLOCs: Kernel-Level Object Contexts for
Heterogeneous Memory Systems* (Kannan, Ren, Bhattacharjee — ASPLOS 2021).

The package simulates the kernel subsystems the paper modifies — memory
tiers, slab/buddy/KLOC allocators, an ext4-like filesystem, a socket
stack — and implements the paper's contribution (the KLOC abstraction:
knodes, the global kmap, per-CPU knode fast paths, and en-masse kernel
object migration) together with every baseline tiering policy the paper
evaluates against.

Top-level convenience imports expose the public API most users need::

    from repro import Clock, PAGE_SIZE
    from repro.platforms import TwoTierPlatform
    from repro.experiments import run_figure4
"""

from repro.core.clock import Clock
from repro.core.units import GB, KB, MB, MS, NS, PAGE_SIZE, SEC, US

__version__ = "1.0.0"

__all__ = [
    "Clock",
    "PAGE_SIZE",
    "KB",
    "MB",
    "GB",
    "NS",
    "US",
    "MS",
    "SEC",
    "__version__",
]
