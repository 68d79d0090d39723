#!/usr/bin/env python3
"""Quickstart: stand up a simulated kernel with KLOCs and watch the
abstraction work.

Builds the paper's two-tier platform (scaled down 1024x), runs a few
thousand RocksDB-style operations under the KLOCs policy, and prints
what the KLOC machinery did: knodes created, objects tracked, per-CPU
fast-path hit rate, migrations, and where memory references landed.

Run:  python examples/quickstart.py
"""

from repro.experiments.runner import make_workload
from repro.kloc.api import KlocAPI
from repro.metrics.references import reference_report
from repro.metrics.report import format_table
from repro.platforms.twotier import build_two_tier_kernel


def main() -> None:
    # 1. A kernel on the two-tier platform, tiered by the KLOCs policy.
    kernel, policy = build_two_tier_kernel("klocs", scale_factor=1024)
    api = KlocAPI(kernel.kloc_manager)
    api.sys_enable_kloc("rocksdb")  # the admin-facing switch (§4.2.1)

    # 2. An LSM key-value workload issuing real open/write/fsync/close
    #    and socket traffic against the simulated kernel.
    workload = make_workload(kernel, "rocksdb")
    workload.setup()
    kernel.reset_reference_counters()
    result = workload.run(8000)

    # 3. What happened.
    manager = kernel.kloc_manager
    daemon = kernel.kloc_daemon
    print(f"ran {result.ops} ops in {result.elapsed_ns / 1e6:.1f} simulated ms "
          f"({result.throughput_ops_per_sec:,.0f} ops/s)\n")

    print(format_table(
        ["metric", "value"],
        [
            ["knodes created (files+sockets)", manager.knodes_created],
            ["knodes deleted (unlinks)", manager.knodes_deleted],
            ["live knodes in kmap", len(manager.kmap)],
            ["per-CPU fast-path hit rate", f"{manager.percpu.rbtree_access_reduction():.0%}"],
            ["KLOC metadata bytes", manager.metadata_bytes()],
            ["pages downgraded (fast→slow)", daemon.downgraded_pages],
            ["pages upgraded (slow→fast)", daemon.upgraded_pages],
            ["references served from fast memory", f"{kernel.fast_ref_fraction():.0%}"],
            ["kernel-object share of references", f"{reference_report(kernel).kernel_fraction():.0%}"],
        ],
        title="KLOC machinery after the run",
    ))

    # 4. Peek inside one KLOC with the Table 2 API.
    knode = next(iter(api.get_lru_knodes(limit=1)), None)
    if knode is not None:
        cache_objs = sum(1 for _ in api.itr_knode_cache(knode))
        slab_objs = sum(1 for _ in api.itr_knode_slab(knode))
        print(f"\ncoldest knode #{knode.knode_id} (inode {knode.ino}): "
              f"{cache_objs} page-backed + {slab_objs} slab objects, "
              f"inuse={knode.inuse}, age={knode.age}, "
              f"last CPU={api.find_cpu(knode)}")

    workload.teardown()


if __name__ == "__main__":
    main()
