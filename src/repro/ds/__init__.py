"""Kernel data structures: red-black tree, radix tree, LRU lists and
per-CPU lists — the building blocks §4.2 reuses ("we rely on principled
use of data structures already widely employed in real-world OS
kernels"). Import each from its own module."""
