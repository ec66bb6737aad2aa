"""Machine speed, for reporting end-to-end times at a fixed reference speed.

The machines this benchmark is made for share their CPUs with other load and
run the same code up to about 2x slower in phases lasting from a second to
minutes; the process's CPU time slows down with its wall time, and no hardware
counter of the program's own work is readable in their VMs.  So a run times a
fixed pure-Python loop, the calibration kernel, in the process that runs the
jobs and while they run, and scales each measured time by

    REF_KERNEL_S * mean of 1 / kernel time over the same pass of the job list,

which gives the time the job would have taken at the kernel speed
1 / REF_KERNEL_S.  The kernel's own time is taken out of the job times before
scaling.  A change to the program does not change the kernel, so a faster
program reads faster.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

# Kernel times that define the reference speed, about those of a warm kernel
# and of child_kernel on the reference box (2.1 GHz x86-64 VM, Python 3.11.7).
# Only the scale of the reported times depends on them.
REF_KERNEL_S = 330e-6
REF_CHILD_S = 0.040
SAMPLE_EVERY_S = 0.025

_KEYS = [(i % 31, i % 7, i % 3) for i in range(1500)]


def kernel():
    """Dict updates under tuple keys with integer products: the shape of the
    sparse polynomial arithmetic the program spends its time in."""
    acc = {}
    for i, k in enumerate(_KEYS):
        acc[k] = acc.get(k, 0) + i * 7919 % 104729
    return len(acc)


CHILD_SOURCE = """\
acc = {}
for i in range(5000):
    k = (i % 31, i % 7, i % 3)
    acc[k] = acc.get(k, 0) + i * 7919 % 104729
"""


def child_kernel():
    """A fresh interpreter that runs a short loop: the calibration for jobs
    that are fresh interpreters themselves.  Their start-up (exec, page
    faults, imports) slows down with the host differently from a warm loop
    in this process, which tracks them poorly."""
    subprocess.run([sys.executable, "-c", CHILD_SOURCE], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)


class Speed:
    """Kernel samples of one run, and the time spent taking them."""

    def __init__(self, kernel=kernel, ref=REF_KERNEL_S, charge=None):
        self.kernel = kernel
        self.ref = ref
        self.charge = charge    # called with each sample's time (traced runs)
        self.samples = []
        self.spent = 0.0

    @classmethod
    def for_children(cls):
        return cls(child_kernel, REF_CHILD_S)

    def sample(self):
        t0 = perf_counter()
        self.kernel()
        d = perf_counter() - t0
        self.samples.append(d)
        self.spent += d
        if self.charge is not None:
            self.charge(d)

    @contextmanager
    def sampling(self, every=SAMPLE_EVERY_S):
        """Take a sample every `every` seconds (SIGALRM) while the block runs."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def factor(self, start=0):
        """The reference kernel time times the mean speed 1/k of the samples
        from index `start` on.  Samples taken at a steady rate make this the
        integral of the speed over the pass, which tracks a long job much
        better than the median kernel time does; a sample slowed by
        preemption weighs little."""
        if len(self.samples) <= start:
            self.sample()
        return self.ref * statistics.fmean(1 / k for k in self.samples[start:])
