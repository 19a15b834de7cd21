"""Scale measured times to a fixed reference speed of the machine.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes: every instruction runs slower while the
host is busy, so process CPU time drifts as much as wall time.  The
benchmark therefore times, every ``Meter.INTERVAL_S`` seconds of measured
work, a fixed pure-Python kernel that does the same kinds of work as the
program (tuples, dicts, sets, sorting, small calls), and divides each
measured time by the machine's slowdown at that moment::

    slowdown = kernel time now / REFERENCE_KERNEL_S
    scaled time = measured time / slowdown

A scaled time is what the work would take on a machine that runs the kernel
in exactly ``REFERENCE_KERNEL_S``.  The kernel is benchmark code, so a
change to the program moves the scaled times as much as the measured ones;
only the machine's own drift is divided out.  The unscaled figures are kept
in each run's record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The kernel's time on the reference machine; a definition, not a measurement.
REFERENCE_KERNEL_S = 250e-6
KERNEL_REPEATS = 3


def kernel() -> int:
    """Fixed interpreter-bound work, about as long as a few small decisions."""
    counts: dict = {}
    for i in range(300):
        key = (i % 37, i % 11, f"p{i % 23}")
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    kept = frozenset(key for key, _ in ranked[:150])
    return len(kept) + sum(n for key, n in ranked if key[0] < 3)


def slowdown() -> float:
    """The machine's speed now, relative to the reference: above 1 is slower."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times) / REFERENCE_KERNEL_S


class Meter:
    """Times calls one by one and scales each to the reference speed.

    ``meter(fn, *args, **kwargs)`` calls ``fn`` and records its time.  The
    slowdown is measured before the first call, again whenever
    ``INTERVAL_S`` of timed work has passed, and once more by ``finish``;
    each call's time is divided by the mean of the slowdowns measured just
    before and just after its block of calls.
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.raw: list[float] = []  # seconds per call, unscaled
        self.block: list[int] = []  # index of the slowdown measured before each call
        self.slowdowns = [slowdown()]
        self._since = 0.0

    def __call__(self, fn, *args, **kwargs):
        if self._since >= self.INTERVAL_S:
            self.slowdowns.append(slowdown())
            self._since = 0.0
        start = perf_counter()
        result = fn(*args, **kwargs)
        elapsed = perf_counter() - start
        self._since += elapsed
        self.raw.append(elapsed)
        self.block.append(len(self.slowdowns) - 1)
        return result

    def finish(self) -> list[float]:
        """Scaled seconds per call, in call order."""
        bounds = self.slowdowns + [slowdown()]
        return [t * 2 / (bounds[b] + bounds[b + 1]) for t, b in zip(self.raw, self.block)]


def untimed(fn, *args, **kwargs):
    """The meter of work that is not measured: warm-up, traced passes, references."""
    return fn(*args, **kwargs)
