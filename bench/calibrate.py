"""Machine-speed calibration interleaved with a timed workload.

On a shared machine the speed of a core drifts by tens of percent over
minutes, so a bare wall time measures the neighbours as much as the program.
``Calibrator`` runs a small fixed kernel every PERIOD_S seconds *inside* the
timed process, from a SIGALRM handler, so the kernel samples the speed the
workload saw at that moment.  The kernel mixes what the workloads do: a
complex FFT pair, element-wise array arithmetic and interpreter work.

``normalized(wall)`` turns a wall time into calibration units: the run is cut
into windows of WINDOW samples, each window's work time (wall time minus the
kernel's own time) is divided by the median kernel time in that window, and
the quotients are summed.  A change that makes the program faster lowers
this number; a slower core raises the program's time and the kernel's alike
and leaves it unchanged.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
WINDOW = 20
_N = 2048


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal(_N) + 1j * rng.standard_normal(_N)
        self._phase = np.exp(1j * np.linspace(0.0, 1.0, _N))
        self.samples = []           # (start, duration) of each kernel run
        self._previous = None

    def kernel(self) -> float:
        t0 = time.perf_counter()
        y = self._x
        for _ in range(4):
            y = np.fft.ifft(np.fft.fft(y * self._phase) * self._phase)
            a = np.abs(y) ** 2
            y = y / np.sqrt(a.sum())
        s = 0.0
        for k in range(600):
            s += k * 0.5
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, self.kernel()))

    def __enter__(self):
        for _ in range(20):         # warm the kernel's code paths and caches
            self.kernel()
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_seconds(self, t0: float, t1: float) -> float:
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def normalized(self, t0: float, t1: float) -> float:
        """Work time in [t0, t1), kernel time excluded, in calibration units."""
        inside = [(s, d) for s, d in self.samples if t0 <= s < t1]
        if len(inside) < WINDOW:
            raise RuntimeError(f"only {len(inside)} calibration samples in the run")
        windows = [inside[i:i + WINDOW] for i in range(0, len(inside), WINDOW)]
        if len(windows[-1]) < WINDOW // 2:      # fold a short tail into the window before
            windows[-2].extend(windows.pop())
        starts = [t0] + [w[0][0] for w in windows[1:]]
        ends = starts[1:] + [t1]
        total = 0.0
        for window, start, end in zip(windows, starts, ends):
            work = (end - start) - sum(d for _, d in window)
            total += work / statistics.median(d for _, d in window)
        return total
