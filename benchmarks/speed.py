"""Timings at a reference machine speed, for a box whose speed drifts.

On a shared VM the same code runs up to a third slower or faster from one
minute to the next.  Load from outside the VM sets the pace, not the
program.  Round medians taken minutes apart then differ by more than any
change worth detecting.

:class:`SpeedProbe` samples the speed while a timed block runs.  Every
``INTERVAL_S`` of wall time, a ``SIGALRM`` handler runs a fixed small kernel
in the main thread and records how long it took: transform pairs shaped like
bolab's (shift, phase, FFT, scale) and a short Python loop.  The block's
time at reference speed is

    (measured time - time spent in the kernel) x KERNEL_S x mean(1 / kernel time),

where the mean of the kernel's speed is taken uniformly in time, as the
samples are.  A change to bolab moves the measured time and leaves the
kernel alone.  A change in the machine's speed moves both, and the ratio
cancels it.  ``KERNEL_S`` is the kernel's typical time on a 2-core Xeon VM
(KVM) and only sets the unit: times read as seconds at that speed.

The handler touches nothing but its own sample list.  It never calls the
tracer, which may be part way through recording a span when the signal
arrives.  The kernel takes about 2.5% of the block's time.  Traced spans that
are open when it runs include that time, spread evenly over the block, and
the per-round factor :meth:`SpeedProbe.factor` takes it out again.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
KERNEL_S = 0.55e-3


class SpeedProbe:
    """Context manager that samples the machine's speed while it is open."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        self._sign = np.where(np.arange(512) % 2 == 0, 1.0, -1.0)
        self.samples = []
        self._previous = None

    def _kernel(self):
        for _ in range(8):
            y = np.fft.ifft(np.fft.ifftshift(self._x * self._sign)) / 2.0
            np.fft.fftshift(np.fft.fft(y * y))
        total = 0
        for i in range(300):
            total += i * i
        return total

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def busy_s(self):
        """Time the kernel itself took inside the block."""
        return sum(self.samples)

    def speed(self):
        """Mean machine speed over the block, relative to reference speed."""
        if not self.samples:
            raise ValueError("the block ended before the first speed sample")
        return KERNEL_S * statistics.fmean(1.0 / s for s in self.samples)

    def at_reference(self, seconds):
        """``seconds`` measured over the block, less the kernel's share, at
        reference speed."""
        return (seconds - self.busy_s) * self.speed()

    def factor(self, wall):
        """Multiplier that takes a span time measured inside a block of
        ``wall`` seconds to reference speed, with the kernel's even share
        removed."""
        return self.at_reference(wall) / wall
