"""KASAN/lockdep for the simulated kernel: the ``REPRO_SANITIZE=1`` mode.

The fast paths layered in over the last PRs (result cache, frame
indexes, O(1) incremental accounting) are bit-identical *by contract*:
freed objects are never touched again, every incremental counter matches
a recomputation, teardown finds the books balanced. The kernel the paper
patches enforces exactly these invariant classes mechanically — KASAN
poisons freed memory so use-after-free faults instead of corrupting,
lockdep cross-checks the locking model on every acquire. This module is
the simulator's equivalent.

With ``REPRO_SANITIZE=1``:

* every freed :class:`~repro.alloc.base.KernelObject` and
  :class:`~repro.mem.frame.PageFrame` is recorded with its free site
  (file:line), so a double free or a use-after-free raises
  :class:`~repro.core.errors.SanitizerError` naming the object, the
  faulting site, and where it was first freed;
* freed ``KernelObject`` handles are **poisoned**: their ``frame``
  pointer is replaced by a :class:`PoisonedRef` whose every attribute
  access raises — stale pointers fault loudly instead of silently
  reading dead bookkeeping (KASAN's redzone, in object form);
* the KLOC migration daemon cross-checks the incremental metadata
  counters (kmap population, tracked rb-pointers, per-CPU entries)
  against a full structure recomputation at every scan boundary;
* :meth:`Kernel teardown <repro.kernel.kernel.Kernel.sanitize_teardown>`
  audits the books — tier page counters vs the frame table, allocator
  alloc/free balances vs live structures, per-CPU entry counts — and
  reports any leak.

The mode is **behavior-preserving**: checks read state, they never
advance the clock or mutate counters, so a sanitized run's payload is
bit-identical to a plain run (enforced by
``tests/experiments/test_sanitize_equivalence.py``). It runs the same
charge path as a plain run, batched accesses included: the freed-object
and freed-frame tests every access path makes raise the sanitizer's
diagnostic (:meth:`Sanitizer.dead_object_error`,
:meth:`Sanitizer.dead_frame_error`) instead of a plain
``SimulationError``. Like the other ``REPRO_*`` knobs, the flag is read
at construction time only.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core.errors import SanitizerError

if TYPE_CHECKING:
    from repro.alloc.base import KernelObject
    from repro.mem.frame import PageFrame


def sanitize_enabled() -> bool:  # simlint: config-site
    """True when ``REPRO_SANITIZE`` is set (read at construction time)."""
    return bool(os.environ.get("REPRO_SANITIZE"))


def call_site(depth: int = 2) -> str:
    """``file:line`` of the caller ``depth`` frames up — the "site" every
    sanitizer diagnostic names. Depth 2 skips this helper and the
    sanitizer method that wants its caller."""
    frame = sys._getframe(depth)  # noqa: SLF001 - diagnostic introspection
    filename = frame.f_code.co_filename
    # Trim to the repo-relative tail for stable, readable reports.
    for marker in ("src/repro/", "tests/"):
        idx = filename.rfind(marker)
        if idx != -1:
            filename = filename[idx:]
            break
    return f"{filename}:{frame.f_lineno}"


class PoisonedRef:
    """The tombstone installed over a freed object's ``frame`` pointer.

    Any attribute read through a stale handle raises
    :class:`SanitizerError` naming the freed object and both sites —
    the KASAN redzone fault, delivered as an exception.
    """

    __slots__ = ("_descr", "_free_site")

    def __init__(self, descr: str, free_site: str) -> None:
        object.__setattr__(self, "_descr", descr)
        object.__setattr__(self, "_free_site", free_site)

    def __getattr__(self, name: str) -> Any:
        descr = object.__getattribute__(self, "_descr")
        free_site = object.__getattribute__(self, "_free_site")
        raise SanitizerError(
            f"use-after-free: read of .{name} through poisoned {descr} "
            f"at {call_site()} (freed at {free_site})"
        )

    def __repr__(self) -> str:
        return f"<poisoned {object.__getattribute__(self, '_descr')}>"


class Sanitizer:
    """Shared free-site ledger + consistency checker for one kernel.

    One instance is created by :class:`~repro.mem.topology.MemoryTopology`
    when the mode is on and shared by every allocator (they all hold the
    topology); the :class:`~repro.kernel.kernel.Kernel` threads the same
    instance into the KLOC manager so teardown sees one coherent ledger.
    """

    def __init__(self) -> None:
        #: fid → free site of every frame ever freed.
        self.freed_frames: Dict[int, str] = {}
        #: (allocator family, oid) → free site. Oids are per-family.
        self.freed_objects: Dict[Tuple[str, int], str] = {}
        self.checks = 0
        self.cross_checks = 0

    # ------------------------------------------------------------------
    # free-path hooks (double-free detection + ledger upkeep)
    # ------------------------------------------------------------------

    def on_frame_free(self, frame: "PageFrame", site: Optional[str] = None) -> None:
        """Record a frame free; raise on the second free of the same fid."""
        self.checks += 1
        fid = frame.fid
        first = self.freed_frames.get(fid)
        if first is not None or frame.freed_at is not None:
            raise SanitizerError(
                f"double free of frame {fid} ({frame.owner.value}, "
                f"tier {frame.tier_name}) at {site or call_site()}; "
                f"first freed at {first or 'before sanitizer attach'}"
            )
        self.freed_frames[fid] = site or call_site()

    def on_object_free(
        self, obj: "KernelObject", family: str, site: Optional[str] = None
    ) -> None:
        """Record an object free; raise on the second free of the handle."""
        self.checks += 1
        key = (family, obj.oid)
        first = self.freed_objects.get(key)
        if first is not None or obj.freed_at is not None:
            raise SanitizerError(
                f"double free of {family} object #{obj.oid} "
                f"({obj.otype.name}) at {site or call_site()}; "
                f"first freed at {first or 'before sanitizer attach'}"
            )
        self.freed_objects[key] = site or call_site()

    def poison_object(self, obj: "KernelObject") -> None:
        """Install the frame tombstone on a freed object handle."""
        site = self.freed_objects.get((obj.allocator, obj.oid), "unknown site")
        obj.frame = PoisonedRef(  # type: ignore[assignment]
            f"{obj.allocator} object #{obj.oid} ({obj.otype.name})", site
        )

    # ------------------------------------------------------------------
    # access-path checks (use-after-free)
    # ------------------------------------------------------------------

    def dead_frame_error(self, frame: "PageFrame") -> SanitizerError:
        """Build the UAF diagnostic for an access to a freed frame."""
        site = self.freed_frames.get(frame.fid, "before sanitizer attach")
        return SanitizerError(
            f"use-after-free: access to freed frame {frame.fid} "
            f"({frame.owner.value}, tier {frame.tier_name}) at "
            f"{call_site()}; freed at {site}"
        )

    def dead_object_error(self, obj: "KernelObject") -> SanitizerError:
        """Build the UAF diagnostic for an access to a freed object."""
        site = self.freed_objects.get(
            (obj.allocator, obj.oid), "before sanitizer attach"
        )
        return SanitizerError(
            f"use-after-free: access to freed {obj.allocator} object "
            f"#{obj.oid} ({obj.otype.name}) at {call_site()}; freed at {site}"
        )

    # ------------------------------------------------------------------
    # counter cross-checks (scan boundaries + teardown)
    # ------------------------------------------------------------------

    def expect(self, what: str, incremental: object, recomputed: object) -> None:
        """Fail if an incrementally maintained counter (or cached value)
        drifted from the ground-truth recomputation."""
        self.cross_checks += 1
        if incremental != recomputed:
            raise SanitizerError(
                f"counter drift in {what}: incremental value {incremental} "
                f"!= recomputed {recomputed} (checked at {call_site()})"
            )

    def report(self) -> Dict[str, int]:
        """Summary counters, for tests and teardown logging."""
        return {
            "frames_freed": len(self.freed_frames),
            "objects_freed": len(self.freed_objects),
            "checks": self.checks,
            "cross_checks": self.cross_checks,
        }

    def __repr__(self) -> str:
        return (
            f"Sanitizer(frames={len(self.freed_frames)}, "
            f"objects={len(self.freed_objects)}, checks={self.checks})"
        )
