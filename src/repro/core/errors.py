"""Exception hierarchy for the KLOC reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with one clause while tests can assert
on the specific subclasses.
"""


class ReproError(Exception):
    """Base class for all errors raised by the kloc-repro package."""


class ConfigError(ReproError):
    """A configuration value is missing, out of range, or inconsistent."""


class SimulationError(ReproError):
    """The simulation reached a state that violates its own invariants."""


class SanitizerError(SimulationError):
    """The ``REPRO_SANITIZE=1`` runtime sanitizer caught a memory-safety
    or accounting bug: double free, use-after-free through a poisoned
    reference, incremental-counter drift, or a teardown leak.

    Subclasses :class:`SimulationError` so existing invariant handlers
    still catch it; the message always names the object and the site
    (file:line) that triggered — and, for frees, the site of the first
    free. See :mod:`repro.core.sanitize`.
    """


class AllocationError(ReproError):
    """A memory allocation could not be satisfied by any tier."""


class VFSError(ReproError):
    """Filesystem-level failure (missing file, bad path, closed handle)."""


class NetworkError(ReproError):
    """Network-stack failure (unknown socket, closed connection)."""
