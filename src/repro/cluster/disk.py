"""Disk model: one arm, FIFO service, seek + streaming transfer.

Disk activity is what the paper's load metric weights highest for static
content (load_Disk = 9 of 10), and the cache-miss path through this model is
what separates the three placement schemes in Figure 2.
"""

from __future__ import annotations

from typing import Generator

from ..sim import Resource, Simulator
from .spec import DiskSpec

__all__ = ["Disk"]


class Disk:
    """A single-spindle disk serving whole-object reads FIFO."""

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = ""):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._arm = Resource(sim, capacity=1, name=f"{name}.disk")
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_seconds = 0.0
        #: service-time multiplier, >= 1.0 (fault injection: degraded disk)
        self.slowdown = 1.0

    def set_slowdown(self, factor: float) -> None:
        """Degrade the disk: every read/write takes ``factor``x longer."""
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1.0, got {factor}")
        self.slowdown = factor

    def clear_slowdown(self) -> None:
        self.slowdown = 1.0

    def _service(self, nbytes: int, write: bool) -> Generator:
        """Hold the arm for one whole-object transfer and count it.

        A degraded disk (``slowdown > 1.0``) never collapses its hold, so
        the disk-slowdown chaos fault keeps its exact two-event
        interleaving.
        """
        duration = self.spec.read_time(nbytes) * self.slowdown
        yield from self._arm.hold(duration, "disk",
                                  collapse=self.slowdown == 1.0)
        if write:
            self.writes += 1
            self.bytes_written += nbytes
        else:
            self.reads += 1
            self.bytes_read += nbytes
        self.busy_seconds += duration

    def read(self, nbytes: int) -> Generator:
        """Read an object; use ``yield from disk.read(nbytes)``."""
        yield from self._service(nbytes, write=False)

    def write(self, nbytes: int) -> Generator:
        """Write an object (content copy landing); same service model."""
        yield from self._service(nbytes, write=True)

    def utilization(self) -> float:
        return self._arm.utilization()

    @property
    def queue_len(self) -> int:
        return self._arm.queue_len
