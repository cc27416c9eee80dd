"""Host speed reference for the benchmark's end-to-end times.

On a shared virtual machine a vCPU's speed changes by up to a factor of
two with the load of other tenants, in bursts from a fraction of a second
to minutes; process CPU time rises with wall time, so the cause is slower
execution, not waiting.  Ten runs of the same code then spread by a third
in wall time.  The benchmark therefore times a fixed pure-Python kernel
between ops and reports each op's time at a reference speed: its wall time
times ``REFERENCE_S`` over the mean kernel time just before and just after
it.  A change to bellsim moves these times as it moves wall time; a change
in the host's speed moves the kernel with it and cancels.

The kernel sums ``Fraction`` objects, the same interpreter work (object
allocation, integer gcd, method dispatch) that bellsim's exact route spends
its time on.  The two vCPUs of one VM change speed apart from each other,
so the kernel runs where the op runs: unpinned, on the benchmark
process's own CPU, for ops in that process, and once pinned to each
allowed CPU for ``bellsim`` child processes, which may run their two
threads on any.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

REFERENCE_S = 0.03        # kernel seconds at the reference speed
KERNEL_SUMS = 16          # about 30 ms on one vCPU of a shared cloud VM
SAMPLE_EVERY_S = 0.5      # ops shorter than this share one sample


def _kernel() -> float:
    start = time.perf_counter_ns()
    for _ in range(KERNEL_SUMS):
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(i, i + 7)
    return (time.perf_counter_ns() - start) / 1e9


def kernel_seconds(every_cpu: bool = False) -> float:
    """Wall time of the kernel where this process runs, or its mean over
    every CPU this process may use."""
    if not every_cpu:
        return _kernel()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


class Meter:
    """Samples the kernel between ops and gives each op its speed scale.

    ``after(results)`` is called after each op with the op results so far;
    once ``SAMPLE_EVERY_S`` has passed since the last sample it samples
    again and sets ``scale`` on every result since then to ``REFERENCE_S``
    over the mean of the samples before and after them.  ``close`` samples
    once more for the ops still open.
    """

    def __init__(self, every_cpu: bool):
        self.every_cpu = every_cpu
        self.samples = [kernel_seconds(every_cpu)]
        self.last = time.monotonic()
        self.open_from = 0

    def after(self, results, force=False):
        if not force and time.monotonic() - self.last < SAMPLE_EVERY_S:
            return
        self.samples.append(kernel_seconds(self.every_cpu))
        self.last = time.monotonic()
        scale = REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2)
        for r in results[self.open_from:]:
            r.scale = scale
        self.open_from = len(results)

    def close(self, results):
        if self.open_from < len(results):
            self.after(results, force=True)
