"""Kernel facade: wires memory, allocators, VFS, networking, KLOCs, and
the active tiering policy into one simulated OS instance
(:mod:`repro.kernel.kernel`). Import each from its own module."""
