"""Simulation core: virtual clock, units, deterministic RNG, config, errors."""

from repro.core.clock import Clock
from repro.core.errors import (
    AllocationError,
    ConfigError,
    ReproError,
    SimulationError,
)
from repro.core.rng import DeterministicRNG
from repro.core.units import GB, KB, MB, MS, NS, PAGE_SIZE, SEC, US

__all__ = [
    "Clock",
    "DeterministicRNG",
    "ReproError",
    "AllocationError",
    "SimulationError",
    "ConfigError",
    "PAGE_SIZE",
    "KB",
    "MB",
    "GB",
    "NS",
    "US",
    "MS",
    "SEC",
]
