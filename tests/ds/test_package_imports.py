"""Building a kernel does not load the red-black tree.

``repro.ds`` re-exports nothing, so a kernel build and a workload import
load only the data-structure modules they use. Checked in a fresh
interpreter, since the test session itself imports ``repro.ds.rbtree``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_kernel_build_does_not_import_rbtree():
    code = (
        "import sys\n"
        "import repro.kernel.kernel, repro.workloads.rocksdb\n"
        "print('repro.ds.rbtree' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "False"
