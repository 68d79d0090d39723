"""Simulation core: virtual clock, units, deterministic RNG, config, errors.
Import each from its own module."""
