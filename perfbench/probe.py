"""Host-speed probe: times spent at a fixed reference speed.

The benchmark's host is a share of a virtual machine whose speed drifts
by tens of percent over seconds to minutes (other tenants on the same
cores), so a raw wall time of the same work spreads too much to compare
two trees.  `SpeedProbe` samples the speed of the core the workload
runs on, in the workload's own thread: a timer signal fires every
INTERVAL_S and its handler times a small fixed kernel.  The kernel is
Python code (loops, calls, attribute and dict access) over small numpy
vectors, the kind of work the comet integrators and the import do;
with `fft=True` it adds an FFT pair on a 64 x 128 array, the kind of
work that dominates the Newton solves (`GridFn.dq`).  Each kernel
follows its workloads' speed changes better than the other (checked
against raw times on a 2-vCPU Intel Xeon virtual machine).  The kernel
runs once untimed before it is timed, so the sample does not depend on
how much of the cache the workload evicted.  The workload time between
two samples is scaled by NOMINAL_S over the mean kernel time of the
nearby samples, so the result is the time the workload would have taken
at the speed where the kernel takes NOMINAL_S.  Time spent in the
kernel is excluded from both the raw and the scaled time.

    probe = SpeedProbe(fft=False)
    probe.start()
    ...                     # the work to time
    timing = probe.stop()   # {"raw_s", "ref_s", "slowdown", "samples"}
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# a segment is scaled by the mean kernel time of the WINDOW + 1 samples
# on each side of it
WINDOW = 2
# kernel time at the reference speed, without and with the FFT pair:
# about the median on the host where the benchmark was defined (a
# 2-vCPU Intel Xeon virtual machine)
NOMINAL_S = {False: 2.0e-4, True: 4.0e-4}
# a sample longer than this many run medians was interrupted; clip it
CLIP = 2.0


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def norm(self):
        return math.hypot(self.x, self.y)


def _scaled(a, b, shift=0.0):
    return a * b + shift


class SpeedProbe:
    def __init__(self, fft):
        self._fft = fft
        self._nominal = NOMINAL_S[fft]
        rng = np.random.default_rng(0)
        self._vec = rng.standard_normal(64)
        self._arr = rng.standard_normal((64, 128))
        self._mult = 2j * np.pi * np.fft.fftfreq(128)
        self._mat = rng.standard_normal((6, 6))
        self._table = {}
        self._samples = []      # (tick start, kernel start, kernel time)
        self._previous = None
        for _ in range(20):
            self._kernel()

    def _kernel(self):
        acc = 0.0
        for _ in range(40):
            acc += float(np.dot(self._vec, self._vec))
            acc += sum(range(30))
        for i in range(8):
            point = _Point(0.5 * i, 1.0 + i)
            acc += point.norm() + _scaled(acc, 1e-3, shift=float(i))
            self._table[i % 5] = (point.x, str(i))
            v = self._mat @ self._vec[:6]
            acc += float(np.linalg.norm(v)) + len(self._table)
            acc += float(np.concatenate((v, self._vec[:2]))[3])
        if self._fft:
            spec = np.fft.fft(self._arr, axis=1)
            acc += float(np.fft.ifft(spec * self._mult, axis=1).real.max())
        return acc

    def _sample(self, *_):
        tick = time.perf_counter()
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        self._samples.append((tick, t0, time.perf_counter() - t0))

    def start(self):
        self._samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return self.result()

    def result(self):
        durs = [d for _, _, d in self._samples]
        cap = CLIP * float(np.median(durs))
        durs = [min(d, cap) for d in durs]
        raw = ref = 0.0
        for k in range(len(self._samples) - 1):
            _, t0, dur = self._samples[k]
            seg = self._samples[k + 1][0] - (t0 + dur)
            near = durs[max(0, k - WINDOW):k + WINDOW + 2]
            raw += seg
            ref += seg * self._nominal * len(near) / sum(near)
        return {"raw_s": raw, "ref_s": ref,
                "slowdown": raw / ref if ref else 1.0,
                "samples": len(self._samples)}
