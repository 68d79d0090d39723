"""``refs_by_tier``, ``refs_by_owner`` and the reference report are
marginals of one counter.

``Kernel.access_frame`` keeps a single (owner, tier) counter of time,
references and bytes, the one behind ``access_ns_by``; every reference
report is summed from it. Here a wrapper around ``access_frame`` recounts
every charge and its bytes per (owner, tier) on a two-tier run and on an
Optane run (the NUMA cost path), and every report must equal the
recount's marginals.
"""

from collections import Counter

import pytest

from repro.experiments.runner import make_workload
from repro.mem.frame import PageOwner
from repro.metrics.references import reference_report
from repro.platforms.optane import build_optane_kernel
from repro.platforms.twotier import build_two_tier_kernel

SCALE = 4096


def _recounting(kernel):
    """Count every charge and its bytes per (owner, tier) behind
    ``kernel.access_frame``, which ``access_object`` and the processes the
    workload builds afterwards call through the instance."""
    counts = Counter()
    nbytes_by = Counter()
    charge = kernel.access_frame

    def counting(frame, nbytes, write=False):
        key = (frame.owner, frame.tier_name)
        counts[key] += 1
        nbytes_by[key] += nbytes
        return charge(frame, nbytes, write)

    kernel.access_frame = counting
    return counts, nbytes_by


def _measure(kernel, workload, ops, *, move_task=False):
    counts, nbytes_by = _recounting(kernel)
    wl = make_workload(kernel, workload, scale_factor=SCALE)
    wl.setup()
    kernel.reset_reference_counters()
    counts.clear()
    nbytes_by.clear()
    wl.run(ops)
    if move_task:
        kernel.set_task_node(1)  # remote accesses from here on
        wl.run(ops)
    return counts, nbytes_by


def _two_tier():
    kernel, _ = build_two_tier_kernel("klocs", scale_factor=SCALE, seed=42)
    return (kernel, *_measure(kernel, "rocksdb", 400))


def _optane():
    kernel, _ = build_optane_kernel("autonuma", scale_factor=SCALE, seed=42)
    assert kernel.nodes
    return (kernel, *_measure(kernel, "redis", 300, move_task=True))


@pytest.fixture(scope="module", params=["two_tier", "optane"])
def recounted(request):
    return {"two_tier": _two_tier, "optane": _optane}[request.param]()


def test_refs_by_tier_is_the_tier_marginal(recounted):
    kernel, counts, _ = recounted
    want = Counter()
    for (owner, tier), n in counts.items():
        want[(tier, owner is not PageOwner.APP)] += n
    assert kernel.refs_by_tier == dict(want)
    tiers = list(kernel.topology.tiers)
    keys = list(kernel.refs_by_tier)
    assert keys == sorted(keys, key=lambda k: (tiers.index(k[0]), k[1]))


def test_refs_by_owner_is_the_owner_marginal(recounted):
    kernel, counts, _ = recounted
    want = {owner: 0 for owner in PageOwner}
    for (owner, _tier), n in counts.items():
        want[owner] += n
    assert kernel.refs_by_owner == want
    assert list(kernel.refs_by_owner) == list(PageOwner)


def test_recount_keys_are_access_ns_by_keys(recounted):
    kernel, counts, _ = recounted
    assert set(kernel.access_ns_by) == set(counts)


def test_both_reports_sum_to_all_references(recounted):
    kernel, counts, _ = recounted
    total = reference_report(kernel).total_refs
    assert total == sum(counts.values()) > 0
    assert sum(kernel.refs_by_tier.values()) == total
    assert sum(kernel.refs_by_owner.values()) == total


def test_reference_report_totals_are_the_recount(recounted):
    kernel, counts, nbytes_by = recounted
    want = Counter()
    for (owner, _tier), n in counts.items():
        want["app_refs" if owner is PageOwner.APP else "kernel_refs"] += n
    for (owner, _tier), n in nbytes_by.items():
        want["app_bytes" if owner is PageOwner.APP else "kernel_bytes"] += n
    report = reference_report(kernel)
    got = {name: getattr(report, name) for name in want}
    assert got == dict(want)
    assert set(want) == {"kernel_refs", "app_refs", "kernel_bytes", "app_bytes"}
    assert min(want.values()) > 0
    assert report.by_owner == kernel.refs_by_owner


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
