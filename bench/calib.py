"""Calibration: turns wall time into reference time.

Shared virtual machines change speed by up to 1.5x from one second to the
next (on a 2-vCPU Intel Xeon VM, another tenant's load on the same core),
which no run can average away. The kernel below is fixed work of the
kind nilmat does, written without nilmat; how long it takes says how fast
the machine is running at that moment. On that VM, with the host at about
half speed, the median job time of repeated same-seed runs moved by
19-48% in wall time and by 3-5% in reference time.

A Sampler times the kernel right before and after each job and, through
SIGALRM, every INTERVAL_S during it. A job's reference time is

    (wall time - time spent in samples) * mean(KERNEL_REFERENCE_S / kernel time)

that is, its time on a machine where the kernel takes KERNEL_REFERENCE_S.
Averaging the kernel's speed (1 / time) weights each sample by the wall
time it stands for.
"""

import bisect
import signal
import statistics
import time
from array import array
from fractions import Fraction

KERNEL_REFERENCE_S = 0.00045
INTERVAL_S = 0.05
EDGE_SAMPLES = 2


def kernel():
    """Solve a 4x4 rational system by Gauss-Jordan elimination and test the
    solution against twelve inequalities: the Fraction work that dominates
    nilmat's jobs. Of the kernels tried (this one, and a mix of Fraction
    sums, argparse parsing and bitmask products) this one tracked job times
    best on every workload."""
    n = 4
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(n)] + [Fraction(i + 1)] for i in range(n)]
    for i, shift in enumerate((13, 9, 17, 11)):
        a[i][i] += shift
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        p = a[c][c]
        a[c] = [x / p for x in a[c]]
        for r in range(n):
            f = a[r][c]
            if r != c and f != 0:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    x = [row[n] for row in a]
    return sum(
        sum(Fraction((i + 1) * (j + 2) % 7 - 3) * v for j, v in enumerate(x)) >= -i
        for i in range(12)
    )


def kernel_seconds():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed(kernel_times):
    """Machine speed relative to the reference, from kernel times."""
    return statistics.fmean(KERNEL_REFERENCE_S / k for k in kernel_times)


class Sampler:
    """Kernel samples taken between and during jobs; a context manager that
    owns SIGALRM while entered."""

    def __init__(self):
        self.kernels = array("d")
        self.starts = array("d")  # when each sample began
        self.spent = array("d")  # wall time in samples, up to and including each
        self._busy = False
        self._previous = None

    def sample(self, *_):
        if self._busy:  # the timer fired inside a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.kernels.append(t1 - t0)
        self.starts.append(t0)
        self.spent.append((self.spent[-1] if self.spent else 0.0) + time.perf_counter() - t0)
        self._busy = False

    def sampling_between(self, t0, t1):
        """Wall time spent in samples that began within [t0, t1)."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return (self.spent[j - 1] if j else 0.0) - (self.spent[i - 1] if i else 0.0)

    def edge(self):
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn):
        """Run fn(); return (its result, wall seconds net of sampling,
        reference seconds)."""
        self.edge()
        first = len(self.kernels) - EDGE_SAMPLES
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        elapsed = t1 - t0 - self.sampling_between(t0, t1)
        self.edge()
        return result, elapsed, elapsed * speed(self.kernels[first:])
