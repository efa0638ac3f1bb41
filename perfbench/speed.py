"""Host-speed probe: a fixed computation, timed between the benchmark's units.

A shared 2-vCPU cloud VM (Intel Xeon) changes speed by ±20% over tens of
seconds and by up to 40% from one minute to the next, with no steal time: process CPU time follows wall time, so the slowdown sits in the
hardware under the process, not in the scheduler. Runs of the same code a
minute apart then differ by more than any bound a regression check can use.

The probe is benchmark code that never changes with the program: a Python
loop, numpy calls on tiny arrays, a conv-sized GEMM and a memory-bound
numpy pass. It is timed after every batch of set-ups, after every unit, and
every 20 steps inside a training. Each time the run measures is then
multiplied by REF_S over the median of the probes around the moment it
ended, so it reads as the time on the host at its reference speed. The
window is local because the host also has slow spells of a second or two
inside a run, which set the tail latencies; it spans several probes because
one probe is short and noisy. A program change does not move the probe, so
its effect passes through the scaling unchanged. The raw wall-clock figures
are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import time
from statistics import median

import numpy as np

# Probe time at the reference speed: the median probe on an Intel Xeon
# 2-vCPU VM with OpenBLAS on one thread.
REF_S = 0.0110

# Probes on each side of a moment that set its scale, besides the two
# probes that bracket it.
WINDOW = 2


class Probe:
    """Fixed inputs, the reference computation, and its timings in one run.

    The inputs stay allocated for the whole run, so they add a constant
    ~11 MiB to the process's peak RSS and allocate little while probing.
    """

    def __init__(self):
        rng = np.random.default_rng(20030537)
        self.cols = rng.normal(size=(2048, 288))  # a 3x3 conv over 32 channels as im2col
        self.kernel = rng.normal(size=(288, 32))
        self.small = [rng.normal(size=(2, 3, 4, 4)) for _ in range(8)]
        self.a, self.b = rng.normal(size=(2, 1 << 18))  # 2 MiB each, past L2
        self.tmp = np.empty_like(self.a)
        self.samples: list[float] = []
        self.ends: list[float] = []  # perf_counter at the end of each sample
        self._once()

    def _once(self) -> None:
        """A sixth each of a Python loop and of numpy calls on tiny arrays,
        and a third each of GEMM and of memory-bound numpy: on this host the
        Python-bound gradcheck units track the first two best and the eval
        and training units the other two."""
        table, acc = {}, 0
        for i in range(20000):
            table[i % 97] = acc
            acc += i * i % 7
        for _ in range(36):
            for a in self.small:
                b = np.maximum(a, 0.0) * 2.0 + a.sum(axis=1, keepdims=True)
                b.transpose(0, 2, 3, 1).reshape(-1, 3).copy()
        for _ in range(3):
            (self.cols @ self.kernel).sum()
        for _ in range(8):
            np.multiply(self.a, 2.0, out=self.tmp)
            np.add(self.tmp, self.b, out=self.tmp)
            self.tmp.sum()

    def sample(self) -> None:
        """Time the reference computation once more."""
        t0 = time.perf_counter()
        self._once()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.ends.append(t1)

    def scale_at(self, end: float) -> float:
        """Factor that turns a wall-clock time that ended at `end` into a
        reference one: REF_S over the median of the probes bracketing that
        moment and WINDOW more on each side."""
        after = bisect.bisect_left(self.ends, end)
        near = self.samples[max(0, after - 1 - WINDOW): after + 1 + WINDOW]
        return REF_S / median(near)

    def summary(self) -> dict:
        return {"ref_s": REF_S, "samples": len(self.samples), "median_s": median(self.samples),
                "min_s": min(self.samples), "max_s": max(self.samples),
                "run_scale": REF_S / median(self.samples)}
