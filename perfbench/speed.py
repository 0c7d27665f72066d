"""Wall time corrected for the machine's speed, measured while the work runs.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds and up to 2x over minutes, with CPU time tracking wall time,
so raw times of the same code spread far past any usable regression bound.
`SpeedClock` samples that speed throughout a run: every SAMPLE_PERIOD
seconds a SIGALRM handler times a fixed calibration kernel (a small damped
Newton solve: sparse assembly, `splu`, `solve`, short numpy vector ops and
Python loops, the same mix as raspen's inner loops).  The handler's own
time is cut out of the work, and each stretch of work between two samples
is scaled by REFERENCE_KERNEL_S over the kernel's mean time at those
samples.  A scaled time therefore reads as the seconds the work would take
on a machine where one kernel call takes REFERENCE_KERNEL_S; a change that
makes raspen slower or faster moves it in full, a change of machine speed
mostly not.  The kernel uses numpy and scipy only, never raspen, so no
change to the library moves it.
"""

import bisect
import signal
import time

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu  # bound now: the tracer patches the module

# Nominal kernel time: about one call's time on an idle x86-64 core.
REFERENCE_KERNEL_S = 2.0e-3
SAMPLE_PERIOD = 0.1
KERNEL_CALLS = 4

_N = 40
_IDX = np.arange(_N)
_ROWS = np.concatenate((_IDX, _IDX[1:], _IDX[:-1]))
_COLS = np.concatenate((_IDX, _IDX[:-1], _IDX[1:]))


def kernel():
    """Six Newton steps on -(k(u') u')' = 1, k = 1 + u'^2, on 40 cells."""
    h = 1.0 / (_N + 1)
    u = np.zeros(_N)
    for _ in range(6):
        flux = np.diff(np.concatenate(([0.0], u, [0.0]))) / h
        k = 1.0 + flux * flux
        residual = -np.diff(k * flux) / h - 1.0
        d = (1.0 + 3.0 * flux * flux) / (h * h)
        vals = np.concatenate((d[1:] + d[:-1], -d[1:-1], -d[1:-1]))
        jac = coo_matrix((vals, (_ROWS, _COLS)), shape=(_N, _N)).tocsc()
        u = u - splu(jac).solve(residual)
        sum(float(x) * float(x) for x in u[:8])
    return u


class SpeedClock:
    """Samples the kernel's speed during a run and scales work time by it.

    Use as a context manager; while it is entered, SIGALRM belongs to it.
    `now()` marks a point of the work (a `time.perf_counter()` reading);
    `scaled(a, b)` gives the speed-scaled work time between two marks,
    sampling time cut out, and `scaled_time(t)` maps a mark onto that
    timeline of speed-scaled work seconds.  Use them once the
    run is over: exit takes a last sample, so every mark is bracketed.
    """

    def __init__(self, period=SAMPLE_PERIOD, calls=KERNEL_CALLS):
        self.period = period
        self.calls = calls
        self.samples = []      # (wall start, wall end, kernel seconds per call)
        self._previous = None
        self._timeline = (0, None)

    def sample(self):
        """Time the kernel now; its time does not count as work."""
        t0 = time.perf_counter()
        for _ in range(self.calls):
            kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1, (t1 - t0) / self.calls))

    def _on_alarm(self, _signum, _frame):
        self.sample()

    def __enter__(self):
        kernel()  # warm scipy and numpy's caches before the first sample
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    @staticmethod
    def now():
        return time.perf_counter()

    def _gaps(self):
        """Work stretches between samples, as parallel lists.

        starts[i], ends[i]: the stretch (the first one open to the left,
        the last to the right); factor[i]: the reference kernel time over
        the mean of the samples around it; scaled0[i]: scaled work time
        from the first sample to starts[i].
        """
        if self._timeline[0] != len(self.samples):
            samples = self.samples
            starts = [samples[0][0]] + [s[1] for s in samples]
            ends = [s[0] for s in samples] + [np.inf]
            kernel_s = [samples[0][2]] + [0.5 * (s[2] + n[2]) for s, n
                                          in zip(samples, samples[1:])] + [samples[-1][2]]
            factor = [REFERENCE_KERNEL_S / k for k in kernel_s]
            scaled0 = [0.0, 0.0]
            for i in range(1, len(starts) - 1):
                scaled0.append(scaled0[-1] + (ends[i] - starts[i]) * factor[i])
            self._timeline = (len(samples), (starts, ends, factor, scaled0))
        return self._timeline[1]

    def scaled_time(self, t):
        """Speed-scaled work seconds from the first sample to mark t."""
        starts, ends, factor, scaled0 = self._gaps()
        # the stretch holding t; stretch 0 runs back from the first sample
        i = max(bisect.bisect_right(starts, t) - 1, 0)
        return scaled0[i] + (min(t, ends[i]) - starts[i]) * factor[i]

    def scaled(self, a, b):
        """Work seconds between marks a and b at the reference speed."""
        return self.scaled_time(b) - self.scaled_time(a)
