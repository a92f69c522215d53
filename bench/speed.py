"""Item timing scaled by the machine's speed at the moment it was measured.

The host that runs the benchmark switches between a fast and a slow
state, every few tenths of a second and for up to about ten seconds at a
time, and differs by up to about 40 % between them; every time a run
measures moves with it.  So while the rounds run, a fixed reference kernel (the
reference checker's own enumeration of the n = 4 tree, which shares no
code with ``beckettgray``) is timed every ``PERIOD`` seconds, between two
items.  Each measured time is then scaled by ``REFERENCE_KERNEL_S`` over
the kernel's time around it: it reads as the time the same work takes
when the kernel takes ``REFERENCE_KERNEL_S``.  A change to the program
moves the scaled times as it moves the raw ones; the drift of the machine
moves the kernel too, and cancels.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import reference

PERIOD = 0.05  # seconds between two kernel samples
REFERENCE_KERNEL_S = 6.5e-4  # the kernel's median time on the reference machine
WINDOW = 2  # samples taken on each side of an item to judge its speed


def kernel():
    reference.enumerate_codes(4)


class Gauge:
    """Samples the kernel's time and scales measured times by it."""

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds, in order
        self.spent = 0.0  # seconds spent in the kernel, all samples together
        self._due = 0.0

    def sample(self) -> int:
        """Time the kernel once; returns the number of samples so far."""
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._due = t1 + PERIOD
        return len(self.samples)

    def tick(self) -> int:
        """Sample the kernel if one is due; returns the number of samples so far."""
        if perf_counter() >= self._due:
            return self.sample()
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Factor for a time measured after sample ``mark``: the kernel's median
        over the ``WINDOW`` samples before it and after it, against its
        reference time."""
        near = self.samples[max(0, mark - WINDOW): mark + WINDOW]
        return REFERENCE_KERNEL_S / statistics.median(near)


class NullGauge(Gauge):
    """Leaves times as measured; the traced run uses it."""

    def sample(self) -> int:
        return 0

    def scale(self, mark: int) -> float:
        return 1.0


class ItemTimer:
    """Times the items of a round, each marked with the gauge's last sample."""

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.items: list[tuple[float, int]] = []  # (seconds as measured, mark)

    @contextmanager
    def item(self):
        mark = self.gauge.tick()
        t0 = perf_counter()
        yield
        self.items.append((perf_counter() - t0, mark))
