"""Kernel memory allocators.

Three families, mirroring §3.3/§4.4:

* :class:`SlabAllocator` — fast, physically addressed, **non-relocatable**
  (kmalloc / kmem_cache_alloc).
* :class:`PageAllocator` — buddy-style whole-page allocations, relocatable.
* :class:`KlocAllocator` — the paper's new interface: slab-like object
  packing on relocatable, knode-grouped pages (the 400+ redirected sites).

Import each from its own module.
"""
