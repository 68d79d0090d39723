"""``refs_by_tier`` and ``refs_by_owner`` are marginals of one counter.

``Kernel._charge`` keeps a single (owner, tier) counter, the one behind
``access_ns_by``; the two reference reports are summed from it. Here a
wrapper around ``_charge`` recounts every charge per (owner, tier) on a
two-tier run and on an Optane run (the NUMA cost path), and both reports
must equal the recount's marginals.
"""

from collections import Counter

import pytest

from repro.experiments.runner import make_workload
from repro.mem.frame import PageOwner
from repro.platforms.optane import build_optane_kernel
from repro.platforms.twotier import build_two_tier_kernel

SCALE = 4096


def _recounting(kernel):
    """Count every charge per (owner, tier) behind ``kernel._charge``."""
    counts = Counter()
    charge = kernel._charge  # noqa: SLF001

    def counting(frame, nbytes, write):
        counts[(frame.owner, frame.tier_name)] += 1
        return charge(frame, nbytes, write)

    kernel._charge = counting  # noqa: SLF001
    return counts


def _measure(kernel, workload, ops, *, move_task=False):
    counts = _recounting(kernel)
    wl = make_workload(kernel, workload, scale_factor=SCALE)
    wl.setup()
    kernel.reset_reference_counters()
    counts.clear()
    wl.run(ops)
    if move_task:
        kernel.set_task_node(1)  # remote accesses from here on
        wl.run(ops)
    return counts


def _two_tier():
    kernel, _ = build_two_tier_kernel("klocs", scale_factor=SCALE, seed=42)
    return kernel, _measure(kernel, "rocksdb", 400)


def _optane():
    kernel, _ = build_optane_kernel("autonuma", scale_factor=SCALE, seed=42)
    assert kernel.nodes
    return kernel, _measure(kernel, "redis", 300, move_task=True)


@pytest.fixture(scope="module", params=["two_tier", "optane"])
def recounted(request):
    return {"two_tier": _two_tier, "optane": _optane}[request.param]()


def test_refs_by_tier_is_the_tier_marginal(recounted):
    kernel, counts = recounted
    want = Counter()
    for (owner, tier), n in counts.items():
        want[(tier, owner is not PageOwner.APP)] += n
    assert kernel.refs_by_tier == dict(want)
    tiers = list(kernel.topology.tiers)
    keys = list(kernel.refs_by_tier)
    assert keys == sorted(keys, key=lambda k: (tiers.index(k[0]), k[1]))


def test_refs_by_owner_is_the_owner_marginal(recounted):
    kernel, counts = recounted
    want = {owner: 0 for owner in PageOwner}
    for (owner, _tier), n in counts.items():
        want[owner] += n
    assert kernel.refs_by_owner == want
    assert list(kernel.refs_by_owner) == list(PageOwner)


def test_recount_keys_are_access_ns_by_keys(recounted):
    kernel, counts = recounted
    assert set(kernel.access_ns_by) == set(counts)


def test_both_reports_sum_to_all_references(recounted):
    kernel, counts = recounted
    total = kernel.kernel_refs + kernel.app_refs
    assert total == sum(counts.values()) > 0
    assert sum(kernel.refs_by_tier.values()) == total
    assert sum(kernel.refs_by_owner.values()) == total
    assert kernel.refs_by_owner[PageOwner.APP] == kernel.app_refs


def test_reset_leaves_only_the_measured_storage_and_background_time(monkeypatch):
    """``storage_ns_total`` and ``background_ns_total`` are zeroed with
    the other reference counters, so after a measured run each holds
    exactly what the measured phase charged."""
    from repro.kernel.kernel import Kernel

    charged = Counter()
    storage_io = Kernel.storage_io
    background_cpu_work = Kernel.background_cpu_work

    def counting_io(self, *args, **kwargs):
        cost = storage_io(self, *args, **kwargs)
        charged["storage"] += cost
        return cost

    def counting_background(self, cost_ns):
        charged["background"] += cost_ns // self.num_cpus if cost_ns > 0 else 0
        background_cpu_work(self, cost_ns)

    # Patched on the class: the KLOC daemon binds background_cpu_work
    # when the kernel is built.
    monkeypatch.setattr(Kernel, "storage_io", counting_io)
    monkeypatch.setattr(Kernel, "background_cpu_work", counting_background)
    kernel, _ = build_two_tier_kernel("klocs", scale_factor=SCALE, seed=42)
    wl = make_workload(kernel, "rocksdb", scale_factor=SCALE)
    wl.setup()
    assert kernel.storage_ns_total > 0 and kernel.background_ns_total > 0
    kernel.reset_reference_counters()
    charged.clear()
    wl.run(2000)
    assert charged["storage"] > 0 and charged["background"] > 0
    assert kernel.storage_ns_total == charged["storage"]
    assert kernel.background_ns_total == charged["background"]
