"""Kernel data structures: red-black tree, radix tree and LRU lists —
the building blocks §4.2 reuses ("we rely on principled use of data
structures already widely employed in real-world OS kernels"). Import
each from its own module. §4.3's per-CPU knode lists live with the
other KLOC structures, in :mod:`repro.kloc.percpu_cache`."""
