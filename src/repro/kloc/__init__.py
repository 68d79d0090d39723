"""The KLOC abstraction — the paper's contribution.

A *kernel-level object context* groups every kernel object belonging to
one file/socket inode behind a ``knode`` (Figure 1). The pieces:

* :class:`Knode` — per-inode "table of contents": *rbtree-cache* (page-
  backed objects) and *rbtree-slab* (small ones) as oid-keyed dicts
  walked in oid order (Table 6 still charges 8 B of rb pointer per
  object), an ``age``, and an ``inuse`` flag.
* :class:`KMap` — every knode, in an id-keyed dict kept in id order.
* :class:`PerCPUKnodeCache` — §4.3's per-CPU fast-path lists.
* :class:`KlocRegistry` — which allocation sites are redirected to the
  KLOC allocation interface (the "400+ sites").
* :class:`KlocManager` — lifecycle glue driven by the kernel's inode and
  object hooks.
* :class:`KlocMigrationDaemon` — asynchronous en-masse migration of cold
  knodes' objects (§4.4).
* :class:`KlocAPI` — Table 2's interface, verbatim.

Import each from its own module: a run without KLOC tracking loads only
:mod:`repro.kloc.registry`.
"""
