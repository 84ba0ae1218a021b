"""Host-speed reference: fixed computations sampled while ops run.

The benchmark host is shared.  On it, the same computation was seen to
take anywhere from 1x to 2x its fastest time, in swings lasting seconds
to minutes, with CPU time equal to wall time (the process is never
descheduled; the cores just run slower).  Raw wall times of runs a
minute apart differ by more than any useful regression bound: over five
30 s runs of cli-wscc9 the interquartile range of the median op time
was 32 % of the median.

So a run samples two reference kernels every INTERVAL_S seconds of wall
time, from a SIGALRM handler that runs between bytecodes of the op in
progress.  The kernels are independent of imeac and mirror the two
kinds of work the workloads do, which contention slows by different
amounts: "loop" is a Python loop of small-array numpy calls, as in the
RK4 loop; "batch" is one chunk of large-array evaluation, as in the
surface quadrature.  For an interval [t0, t1] and a kernel:

* ``wall_s`` is t1 - t0 minus the time the handler spent inside it;
* ``scaled_s`` is that time at nominal speed, wall_s times the kernel's
  nominal time times the mean of 1 / kernel time over the samples taken
  within INTERVAL_S of the interval: the interval's time on a host
  where the kernel takes its nominal time.

No imeac code runs inside a kernel, so a change to imeac moves the
scaled time in the same proportion as the wall time.  Which kernel
matches an op depends on the op's mix of work, which a change to imeac
can alter; bench/compare.py therefore judges every scaled metric under
both kernels (bench/DESIGN.md, "Host speed and scaled timings").

The kernels' large arrays are allocated once, here, and computed into
with ``out=``; a sample allocates only a few 3-element arrays, so it adds
nothing measurable to the peak memory of the op it interrupts.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.3

_SWEEP = np.linspace(0.0, 1.0, 20_000)[:, None]
_SWEEP_OUT = np.empty((20_000, 3))
# 128 straight paths of 201 points in a 3-angle space
_ANGLES = np.linspace(0.0, 2.0, 128 * 201 * 3).reshape(128 * 201, 3)
_DIFF = np.empty((128 * 201, 3, 3))
_COS = np.empty_like(_DIFF)
_SIN = np.empty_like(_DIFF)


def _loop_kernel() -> float:
    y = np.linspace(0.1, 0.3, 3)
    g = np.full((3, 3), 0.1)
    for _ in range(400):
        d = y[:, None] - y[None, :]
        p = (g * np.cos(d) + g * np.sin(d)).sum(axis=1)
        y = y + 1e-4 * (p - p.mean())
    np.subtract(_SWEEP, y[None, :], out=_SWEEP_OUT)
    np.cos(_SWEEP_OUT, out=_SWEEP_OUT)
    return float(y.sum() + _SWEEP_OUT.sum())


def _batch_kernel() -> float:
    np.subtract(_ANGLES[:, :, None], _ANGLES[:, None, :], out=_DIFF)
    np.cos(_DIFF, out=_COS)
    np.sin(_DIFF, out=_SIN)
    np.multiply(_COS, 0.1, out=_COS)
    np.multiply(_SIN, 0.2, out=_SIN)
    np.add(_COS, _SIN, out=_COS)
    return float(_COS.sum())


# kernel name -> (kernel, nominal ms: its time on a calm 2-core Xeon host)
KERNELS = {"loop": (_loop_kernel, 6.0), "batch": (_batch_kernel, 4.9)}


class Sampler:
    """Samples every reference kernel on a wall-clock timer while entered.

    ``kernel`` names the one that scales the workload's gated metrics.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.nominal_ms = {name: nominal for name, (_, nominal) in KERNELS.items()}
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_ms: dict[str, list[float]] = {name: [] for name in KERNELS}

    def __enter__(self) -> "Sampler":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        for name, (kernel, _) in KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            self.kernel_ms[name].append((time.perf_counter() - t0) * 1e3)
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def mix(self) -> float:
        """Median over samples of the loop kernel's slowdown / the batch kernel's.

        1 on a host that slows both kinds of work alike.  An op whose work
        mix changes can move its scaled time by up to this factor.
        """
        loop, batch = self.kernel_ms["loop"], self.kernel_ms["batch"]
        nominal = self.nominal_ms["loop"] / self.nominal_ms["batch"]
        return statistics.median(l / b for l, b in zip(loop, batch)) / nominal

    def wall_s(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] minus the sampling done inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(min(e, t1) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return t1 - t0 - inside

    def scaled_s(self, t0: float, t1: float, kernel: str | None = None) -> float:
        """wall_s(t0, t1) at the nominal speed of kernel (default: the workload's)."""
        kernel = kernel or self.kernel
        samples = self.kernel_ms[kernel]
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL_S)
        near = samples[lo:hi] or samples[-1:]
        speed = sum(1.0 / k for k in near) / len(near)
        return self.wall_s(t0, t1) * self.nominal_ms[kernel] * speed
