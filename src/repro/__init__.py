"""kloc-repro: reproduction of *KLOCs: Kernel-Level Object Contexts for
Heterogeneous Memory Systems* (Kannan, Ren, Bhattacharjee — ASPLOS 2021).

The package simulates the kernel subsystems the paper modifies — memory
tiers, slab/buddy/KLOC allocators, an ext4-like filesystem, a socket
stack — and implements the paper's contribution (the KLOC abstraction:
knodes, the global kmap, per-CPU knode fast paths, and en-masse kernel
object migration) together with every baseline tiering policy the paper
evaluates against.

The packages re-export nothing; import each name from its defining
module. The usual entry points::

    from repro.platforms.twotier import build_two_tier_kernel
    from repro.experiments import run_figure4
"""

__version__ = "1.0.0"
