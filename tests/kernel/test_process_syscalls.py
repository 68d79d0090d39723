"""Tests for the process model and syscall layer."""

import pytest

from repro.core.errors import SimulationError, VFSError
from repro.core.units import KB, MB, PAGE_SIZE
from repro.kernel.process import Process
from repro.kernel.syscalls import SyscallInterface
from repro.kernel.cpu import CpuSet
from repro.metrics.references import reference_report
from tests.kernel.test_kernel import make_kernel


@pytest.fixture
def kernel():
    return make_kernel()


class TestProcess:
    def test_region_lifecycle(self, kernel):
        proc = Process(kernel, "app")
        pages = proc.alloc_region("heap", 1 * MB)
        assert pages == 1 * MB // PAGE_SIZE
        assert proc.has_region("heap")
        assert proc.total_pages() == pages
        assert proc.free_region("heap") == pages
        assert not proc.has_region("heap")

    def test_duplicate_region_rejected(self, kernel):
        proc = Process(kernel, "app")
        proc.alloc_region("heap", PAGE_SIZE)
        with pytest.raises(SimulationError):
            proc.alloc_region("heap", PAGE_SIZE)

    def test_extend_region(self, kernel):
        proc = Process(kernel, "app")
        proc.alloc_region("heap", PAGE_SIZE)
        proc.extend_region("heap", 3 * PAGE_SIZE)
        assert proc.region_pages("heap") == 4

    def test_extend_missing_rejected(self, kernel):
        proc = Process(kernel, "app")
        with pytest.raises(SimulationError):
            proc.extend_region("nope", PAGE_SIZE)

    def test_touch_charges_and_attributes(self, kernel):
        proc = Process(kernel, "app")
        proc.alloc_region("heap", 4 * PAGE_SIZE)
        cost = proc.touch("heap", 2 * PAGE_SIZE, write=True)
        assert cost > 0
        assert reference_report(kernel).app_refs == 2

    def test_touch_wraps_around(self, kernel):
        proc = Process(kernel, "app")
        proc.alloc_region("heap", 2 * PAGE_SIZE)
        proc.touch("heap", 4 * PAGE_SIZE, page_hint=1)  # wraps twice
        assert reference_report(kernel).app_refs == 4

    def test_touch_missing_region_rejected(self, kernel):
        proc = Process(kernel, "app")
        with pytest.raises(SimulationError):
            proc.touch("ghost", 100)

    def test_teardown_frees_everything(self, kernel):
        proc = Process(kernel, "app")
        proc.alloc_region("a", PAGE_SIZE)
        proc.alloc_region("b", PAGE_SIZE)
        proc.teardown()
        assert proc.total_pages() == 0
        kernel.topology.check_invariants()


class TestCpuSet:
    def test_round_robin(self):
        cpus = CpuSet(4)
        assert [cpus.next_cpu() for _ in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_thread_pinning(self):
        cpus = CpuSet(4)
        assert cpus.cpu_for_thread(0) == 0
        assert cpus.cpu_for_thread(5) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            CpuSet(0)


class TestSyscalls:
    def test_file_path_roundtrip(self, kernel):
        sys = SyscallInterface(kernel)
        fh = sys.creat("/x")
        sys.write(fh, 0, 4 * KB)
        assert sys.read(fh, 0, 4 * KB) == 4 * KB
        sys.fsync(fh)
        sys.close(fh)
        sys.unlink("/x")
        assert sys.counts == {
            "creat": 1, "write": 1, "read": 1, "fsync": 1, "close": 1, "unlink": 1
        }
        assert sys.total_syscalls() == 6

    def test_socket_path_roundtrip(self, kernel):
        sys = SyscallInterface(kernel)
        sock = sys.socket(80)
        kernel.net.deliver(80, 500)
        assert sys.recv(sock) == 500
        assert sys.send(sock, 500) >= 1
        sys.close_socket(sock)
        assert sys.counts["socket"] == 1

    def test_syscalls_charge_entry_cost(self, kernel):
        sys = SyscallInterface(kernel)
        before = kernel.clock.now()
        sys.creat("/y")
        assert kernel.clock.now() > before

    def test_errors_propagate(self, kernel):
        sys = SyscallInterface(kernel)
        with pytest.raises(VFSError):
            sys.open("/missing")
