"""Second property-test batch: clock scheduling, migration engine, the
per-CPU lists, and the page-cache manager under random op tapes."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clock import Clock
from repro.core.config import MigrationSpec, fast_dram_spec, slow_dram_spec
from repro.core.units import MB
from repro.kloc.kmap import KMap
from repro.kloc.percpu_cache import PerCPUKnodeCache
from repro.mem.frame import PageOwner
from repro.mem.migration import MigrationEngine
from repro.mem.topology import MemoryTopology


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=50),
    st.integers(min_value=1, max_value=1000),
)
def test_periodic_fires_bounded_by_elapsed_over_period(advances, period):
    """A periodic callback fires at least once per jump past its deadline
    and never more than elapsed/period + 1 times in total."""
    clock = Clock()
    fires = []
    clock.schedule_periodic(period, fires.append)
    for delta in advances:
        clock.advance(delta)
    elapsed = sum(advances)
    assert len(fires) <= elapsed // period + 1
    # Firing times are strictly increasing and respect deadlines.
    assert fires == sorted(fires)
    if elapsed >= period:
        assert fires, "must fire at least once after a full period"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.booleans(), min_size=1, max_size=60),
    st.integers(min_value=1, max_value=4),
)
def test_migration_roundtrips_preserve_accounting(directions, threads):
    """Random ping-pong migration keeps tier counters exact and the
    engine's totals equal to the topology's migration counts."""
    topo = MemoryTopology(
        [fast_dram_spec(capacity_bytes=1 * MB), slow_dram_spec(capacity_bytes=4 * MB)]
    )
    engine = MigrationEngine(topo, MigrationSpec(copy_threads=threads))
    frames = topo.allocate(32, ["fast"], PageOwner.PAGE_CACHE)
    for to_slow in directions:
        engine.migrate(frames, "slow" if to_slow else "fast")
    topo.check_invariants()
    total = topo.migrations_between("fast", "slow") + topo.migrations_between(
        "slow", "fast"
    )
    assert total == engine.total_moved
    tier = frames[0].tier_name
    assert all(f.tier_name == tier for f in frames)  # batches move together


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # cpu
            st.integers(min_value=0, max_value=20),  # item
            st.booleans(),  # record vs invalidate
        ),
        max_size=200,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_percpu_lists_never_exceed_cap_and_stay_coherent(ops, cap):
    lists = PerCPUKnodeCache(KMap(), num_cpus=4, max_per_cpu=cap)
    for cpu, item, record in ops:
        if record:
            lists.record(item, cpu=cpu)
            assert lists.entries(cpu)[-1] == item
        else:
            lists.invalidate(item)
            assert lists.find_cpu(item) is None
        assert lists.total_entries == lists.recount()
    for cpu in range(4):
        entries = lists.entries(cpu)
        assert len(entries) <= cap
        assert len(entries) == len(set(entries))
        for item in entries:
            assert lists.find_cpu(item) is not None
    for item in range(21):
        holders = [cpu for cpu in range(4) if item in lists.entries(cpu)]
        assert lists.find_cpu(item) == (max(holders) if holders else None)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_pagecache_manager_never_evicts_hot_before_cold(data):
    """Eviction candidates always come from the inactive tail before any
    active (twice-touched) page is offered."""
    from repro.vfs.pagecache import CachePage, PageCache, PageCacheManager
    from tests.fakes import FakeKernel
    from repro.core.objtypes import KernelObjectType

    kernel = FakeKernel()
    mgr = PageCacheManager(max_pages=1000)
    cache = PageCache(
        1,
        alloc_node=lambda: kernel.alloc_object(KernelObjectType.RADIX_NODE),
        free_node=kernel.free_object,
    )
    mgr.register(cache)
    n = data.draw(st.integers(min_value=4, max_value=40))
    pages = []
    for i in range(n):
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        page = CachePage(obj, 1, i)
        cache.tree.insert(i, page)
        mgr.lru.insert(page)
        pages.append(page)
    hot_indexes = set(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1), unique=True, max_size=n // 2
            )
        )
    )
    for i in hot_indexes:
        mgr.lru.touch(pages[i])  # promotes to active
    want = data.draw(st.integers(min_value=1, max_value=n))
    victims = [p.index for _c, p in mgr.eviction_victims(want)]
    cold = [i for i in range(n) if i not in hot_indexes]
    # Every cold page must be offered before any hot page.
    if len(victims) <= len(cold):
        assert set(victims).issubset(set(cold))
    else:
        assert set(cold).issubset(set(victims))
