"""Tests for the network substrate: driver, TCP layer, sockets, stack."""

import pytest

from repro.core.errors import NetworkError
from repro.core.objtypes import KernelObjectType
from repro.net.driver import NICDriver
from repro.net.skbuff import MTU_BYTES
from repro.net.stack import NetworkStack
from tests.fakes import FakeKernel


@pytest.fixture
def kernel():
    return FakeKernel()


def _no_inode(port):
    return None


@pytest.fixture
def net(kernel):
    return NetworkStack(kernel, rx_ring_size=16)


class TestDriver:
    def test_ring_fill(self, kernel):
        driver = NICDriver(kernel, resolve_inode=_no_inode, ring_size=8)
        assert driver.fill_ring() == 8
        assert driver.ring_level == 8

    def test_receive_replenishes_ring(self, kernel, net):
        net.socket(80)
        net.driver.fill_ring()
        level = net.driver.ring_level
        net.driver.receive(80, 500)
        assert net.driver.ring_level == level  # consumed one, refilled one

    def test_receive_builds_skbuff_from_ring_buffer(self, kernel, net):
        net.socket(80)
        skb = net.driver.receive(80, 500)
        assert skb.data.otype is KernelObjectType.RX_BUF  # zero copy
        assert skb.header.otype is KernelObjectType.SKBUFF
        assert skb.nbytes == 500

    def test_no_early_demux_leaves_hint_empty(self, kernel, net):
        net.socket(80)
        skb = net.driver.receive(80, 100)
        assert skb.sock_hint is None

    def test_early_demux_fills_hint(self, kernel):
        net = NetworkStack(kernel, early_demux=True)
        sock = net.socket(80)
        skb = net.driver.receive(80, 100)
        assert skb.sock_hint == sock.inode.ino

    def test_invalid_packet_rejected(self, kernel, net):
        with pytest.raises(NetworkError):
            net.driver.receive(80, 0)

    def test_bad_ring_size(self, kernel):
        with pytest.raises(NetworkError):
            NICDriver(kernel, resolve_inode=_no_inode, ring_size=0)

    def test_drain_ring_frees_buffers(self, kernel):
        driver = NICDriver(kernel, resolve_inode=_no_inode, ring_size=4)
        driver.fill_ring()
        driver.drain_ring()
        assert driver.ring_level == 0
        freed = [o for o in kernel.freed_objects if o.otype is KernelObjectType.RX_BUF]
        assert len(freed) == 4


class TestTCP:
    def test_ingress_queues_on_socket(self, kernel, net):
        sock = net.socket(80)
        net.deliver(80, 100)
        assert sock.rx_backlog == 1

    def test_ingress_unknown_port_rejected(self, kernel, net):
        with pytest.raises(NetworkError):
            net.deliver(99, 100)

    def test_late_demux_charged_without_kloc(self, kernel, net):
        net.socket(80)
        net.deliver(80, 100)
        assert net.tcp.late_demuxes == 1

    def test_early_demux_elides_late_extraction(self, kernel):
        net = NetworkStack(kernel, early_demux=True)
        net.socket(80)
        net.deliver(80, 100)
        assert net.tcp.late_demuxes == 0

    def test_duplicate_bind_rejected(self, kernel, net):
        net.socket(80)
        with pytest.raises(NetworkError):
            net.socket(80)


class TestSocketDataPath:
    def test_deliver_splits_at_mtu(self, kernel, net):
        sock = net.socket(80)
        packets = net.deliver(80, 2 * MTU_BYTES + 1)
        assert packets == 3
        assert sock.rx_backlog == 3

    def test_recv_consumes_and_frees(self, kernel, net):
        sock = net.socket(80)
        net.deliver(80, 1000)
        kernel.freed_objects.clear()
        consumed = net.recv(sock)
        assert consumed == 1000
        assert sock.rx_backlog == 0
        freed_types = {o.otype for o in kernel.freed_objects}
        assert KernelObjectType.SKBUFF in freed_types
        assert KernelObjectType.RX_BUF in freed_types  # the zero-copy payload

    def test_recv_empty_returns_zero(self, kernel, net):
        sock = net.socket(80)
        assert net.recv(sock) == 0

    def test_send_allocates_and_frees_buffers(self, kernel, net):
        sock = net.socket(80)
        kernel.freed_objects.clear()
        packets = net.send(sock, 3000)
        assert packets == 2
        freed_types = {o.otype for o in kernel.freed_objects}
        assert KernelObjectType.SKBUFF in freed_types
        assert KernelObjectType.SKBUFF_DATA in freed_types
        assert sock.bytes_sent == 3000

    def test_send_invalid(self, kernel, net):
        sock = net.socket(80)
        with pytest.raises(NetworkError):
            net.send(sock, 0)


class TestSocketLifecycle:
    def test_socket_gets_inode_and_knode_hooks(self, kernel, net):
        sock = net.socket(80)
        assert sock.inode.is_socket
        assert kernel.created_inodes[-1] is sock.inode
        assert kernel.opened_inodes[-1] is sock.inode

    def test_close_drains_and_frees(self, kernel, net):
        sock = net.socket(80)
        net.deliver(80, 500)
        net.close(sock)
        assert sock.closed
        assert net.live_sockets() == 0
        assert kernel.closed_inodes[-1] is sock.inode
        assert kernel.unlinked_inodes[-1] is sock.inode
        freed_types = {o.otype for o in kernel.freed_objects}
        assert KernelObjectType.SOCK in freed_types

    def test_double_close_rejected(self, kernel, net):
        sock = net.socket(80)
        net.close(sock)
        with pytest.raises(NetworkError):
            net.close(sock)

    def test_closed_socket_rejects_traffic(self, kernel, net):
        sock = net.socket(80)
        net.close(sock)
        with pytest.raises(NetworkError):
            net.send(sock, 10)
        with pytest.raises(NetworkError):
            net.deliver(80, 10)

    def test_port_reusable_after_close(self, kernel, net):
        sock = net.socket(80)
        net.close(sock)
        sock2 = net.socket(80)
        assert sock2.sid != sock.sid

    def test_memory_fully_returned(self, kernel, net):
        sock = net.socket(80)
        net.deliver(80, 5000)
        net.recv(sock)
        net.send(sock, 5000)
        net.close(sock)
        net.driver.drain_ring()
        kernel.topology.check_invariants()
        assert kernel.topology.live_pages() == 0
