"""The kernel-context protocol is the one seam between subsystems and kernel.

The filesystem, the network stack and the process model call every
``KernelContext`` service unconditionally, so the real kernel and the
test fake must both define each one with the parameters the protocol
declares. Without this check a fake that lacks a service fails only deep
inside a subsystem test.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.context import KernelContext
from repro.core.units import MB
from repro.kernel.kernel import Kernel
from tests.fakes import FakeKernel


def _methods(proto: type) -> list:
    return sorted(
        name
        for name, value in vars(proto).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


def _params(func) -> list:
    return [(p.name, p.kind) for p in inspect.signature(func).parameters.values()]


SERVICES = _methods(KernelContext)


def test_protocol_declares_the_services_subsystems_call():
    called = {"access_frame", "access_object", "adopt_object", "notify_prefetch"}
    assert called <= set(SERVICES)


@pytest.mark.parametrize("impl", [Kernel, FakeKernel], ids=lambda c: c.__name__)
@pytest.mark.parametrize("name", SERVICES)
def test_context_defines_service_with_protocol_parameters(impl, name):
    method = getattr(impl, name, None)
    assert inspect.isfunction(method), f"{impl.__name__} lacks {name}"
    assert _params(method) == _params(getattr(KernelContext, name))


def test_contexts_carry_protocol_attributes():
    from repro.core.config import two_tier_platform_spec
    from repro.policies import NaivePolicy

    spec = two_tier_platform_spec(fast_capacity_bytes=4 * MB, slow_capacity_bytes=40 * MB)
    for ctx in (Kernel(spec, NaivePolicy(), seed=3), FakeKernel()):
        for attr in KernelContext.__annotations__:
            assert hasattr(ctx, attr), f"{type(ctx).__name__} lacks {attr}"
