"""Reports rebuilt from what each registry id measures at default ops.

The numbers are the ones ``python -m repro.experiments <id>`` prints at
seed 42 under SIM_VERSION "2". Counts (pages, references, Table 6's
bytes, migrations) are exact, so the tightest claim, cassandra's
metadata being exactly the second smallest, is reproduced as measured;
ratios are rounded to digits far finer than any claim's margin.
"""

from repro.experiments.fig2 import Fig2Report, Fig2Result
from repro.experiments.fig4 import FIG4_POLICIES, Fig4Report
from repro.experiments.fig5 import (
    FIG5A_POLICIES, FIG5C_ORDER, Fig5aReport, Fig5bReport, Fig5cReport,
)
from repro.experiments.fig6 import Fig6Cell, Fig6Report
from repro.experiments.percpu_ablation import PerCPUReport
from repro.experiments.prefetch import PrefetchReport
from repro.experiments.runner import TwoTierRun
from repro.experiments.table6 import Table6Report
from repro.mem.frame import PageOwner
from repro.metrics.footprint import FootprintSnapshot
from repro.metrics.lifetime import LifetimeReport
from repro.metrics.references import ReferenceReport

#: workload -> (pages by owner: app, page cache, slab, journal, sockbuf,
#: block io; (kernel refs, app refs); mean ms: app, slab, page cache).
FIG2 = {
    "rocksdb": ((3218, 30176, 184, 749, 0, 3996), (49922, 80992),
                (41.514, 1.881, 6.949)),
    "redis": ((3840, 14336, 40035, 75, 40256, 24304), (182274, 234336),
              (153.028, 0.138, 21.601)),
    "filebench": ((256, 8237, 30, 326, 0, 107390), (476391, 48000),
                  (210.338, 0.002, None)),
    "cassandra": ((2688, 3354, 40029, 376, 40256, 5610), (191967, 340000),
                  (174.967, 0.002, None)),
    "spark": ((5120, 15360, 39, 67, 0, 10632), (69048, 26880),
              (81.595, 0.534, 43.047)),
}
FIG2B = {"rocksdb": (0.88377, 0.91603), "redis": (0.96874, 0.96874),
         "filebench": (0.99758, 0.99780)}  # small, large
FIG4 = {  # speedup vs all_slow, in FIG4_POLICIES order
    "rocksdb": (1.0, 1.48373, 1.63733, 1.69390, 1.62619, 1.90535, 4.68992),
    "redis": (1.0, 1.13849, 1.35282, 1.50403, 1.83648, 1.83645, 2.24420),
    "filebench": (1.0, 1.27711, 1.13032, 1.35047, 1.29990, 1.39776, 2.80520),
    "cassandra": (1.0, 1.42654, 1.37090, 1.48840, 1.60602, 1.61949, 2.22226),
}
FIG5A = {  # speedup vs all_remote, in FIG5A_POLICIES order
    "rocksdb": (1.0, 2.03172, 2.13989, 2.52721, 2.69797),
    "redis": (1.0, 1.41983, 1.46524, 1.75098, 1.68675),
}
FIG5B = {  # policy -> (slow page cache, slow slab, down, up, fast ref frac)
    "naive": (26706, 154, 0, 0, 0.46521),
    "nimble": (32229, 184, 1019, 533, 0.55052),
    "nimble++": (24805, 142, 3637, 1304, 0.60601),
    "klocs": (16421, 778, 17530, 6460, 0.70823),
}
FIG5C = {  # speedup vs app-only, in FIG5C_ORDER
    "rocksdb": (1.0, 1.13446, 1.13446, 1.13473, 1.13473, 1.12484),
    "redis": (1.0, 0.99712, 0.99712, 1.11781, 1.11782, 1.14262),
}
#: (capacity GB, 1:ratio) -> avg, min, max for nimble, nimble++, klocs.
FIG6 = {
    (4, 8): (1.389, 1.284, 1.495, 1.452, 1.402, 1.501, 1.554, 1.492, 1.615),
    (4, 4): (1.283, 1.213, 1.354, 1.299, 1.261, 1.337, 1.399, 1.338, 1.460),
    (4, 2): (1.192, 1.170, 1.213, 1.226, 1.216, 1.236, 1.301, 1.238, 1.363),
    (8, 8): (1.495, 1.353, 1.637, 1.599, 1.504, 1.694, 1.871, 1.836, 1.905),
    (8, 4): (1.339, 1.257, 1.420, 1.427, 1.373, 1.481, 1.593, 1.553, 1.632),
    (8, 2): (1.243, 1.197, 1.290, 1.319, 1.307, 1.330, 1.433, 1.348, 1.519),
    (32, 8): (1.685, 1.449, 1.921, 2.294, 2.232, 2.357, 2.802, 2.360, 3.244),
    (32, 4): (1.436, 1.308, 1.563, 1.855, 1.800, 1.909, 2.098, 1.910, 2.286),
    (32, 2): (1.332, 1.240, 1.423, 1.606, 1.592, 1.620, 1.750, 1.708, 1.791),
}
TABLE6 = {"rocksdb": 119480, "redis": 31808, "filebench": 75616,
          "cassandra": 32440, "spark": 76672}  # peak metadata bytes
OWNERS = ("APP", "PAGE_CACHE", "SLAB", "JOURNAL", "SOCKBUF", "BLOCK_IO")


def _fig2(*workloads):
    rows = []
    for w in workloads:
        pages, (kernel_refs, app_refs), lives_ms = FIG2[w]
        rows.append(Fig2Result(
            w,
            FootprintSnapshot(allocated={
                PageOwner[owner]: n for owner, n in zip(OWNERS, pages) if n
            }),
            ReferenceReport(kernel_refs=kernel_refs, app_refs=app_refs),
            LifetimeReport(*(ms and ms * 1e6 for ms in lives_ms)),
        ))
    return Fig2Report(rows=rows)


def _fig5b_row(policy, cache, slab, down, up, fast):
    return TwoTierRun(
        "rocksdb", policy, result=None, fast_ref_fraction=fast, footprint=None,
        references=None, slow_allocs={"page_cache": cache, "slab": slab},
        migrations_down=down, migrations_up=up,
    )


def measured_report(experiment_id):
    """A fresh report for ``experiment_id`` holding the measured numbers."""
    builders = {
        "fig2a": lambda: _fig2(*FIG2),
        "fig2b": lambda: Fig2Report(scaling={
            w: {"small": small, "large": large} for w, (small, large) in FIG2B.items()
        }),
        "fig2c": lambda: _fig2(*FIG2),
        "fig2d": lambda: _fig2("rocksdb", "redis"),
        "fig4": lambda: Fig4Report(
            speedups={w: dict(zip(FIG4_POLICIES, v)) for w, v in FIG4.items()}
        ),
        "fig5a": lambda: Fig5aReport(
            speedups={w: dict(zip(FIG5A_POLICIES, v)) for w, v in FIG5A.items()}
        ),
        "fig5b": lambda: Fig5bReport(
            rows=[_fig5b_row(p, *v) for p, v in FIG5B.items()]
        ),
        "fig5c": lambda: Fig5cReport(
            speedups={w: dict(zip(FIG5C_ORDER, v)) for w, v in FIG5C.items()}
        ),
        "fig6": lambda: Fig6Report(cells=[
            Fig6Cell(cap, ratio, policy, *v[3 * i: 3 * i + 3])
            for (cap, ratio), v in FIG6.items()
            for i, policy in enumerate(("nimble", "nimble++", "klocs"))
        ]),
        "table6": lambda: Table6Report(metadata_bytes=dict(TABLE6)),
        "percpu": lambda: PerCPUReport(0.94615, 6233, 19446),
        "prefetch": lambda: PrefetchReport(ratios={
            ("rocksdb", "klocs"): 1.55135, ("rocksdb", "naive"): 1.45966,
        }),
    }
    return builders[experiment_id]()
