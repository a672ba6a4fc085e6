"""Host-speed calibration for the beamtrack benchmark.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a third for tens of seconds at a time; a process's CPU time drifts with
it, so neither wall nor CPU time of a repetition is steady from one run to
the next.  The benchmark therefore times a fixed kernel right before and
after every repetition and scales the repetition's wall time by the host's
speed at that moment:

    normalised = wall * REFERENCE_S / mean(calibration before, calibration after)

A repetition on a pool of workers takes as long as its slowest core, so
with ``processes`` > 1 the kernel runs on that many processes at once and
the slowest of them counts.

The kernel has the shape of the engine's slot loop (a Python loop of
elementwise numpy operations, an einsum and a small matrix product over a
512-trial axis), so it slows down with the host the way the program does.
It uses numpy only and nothing of ``beamtrack``: a change to the program
does not change it, and a program that gets faster reads faster.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

# Seconds the kernel takes on the reference host (2 vCPUs of an Intel Xeon
# at 2.0 GHz, Python 3, numpy 2.4) when the host runs at full speed.  A
# normalised time is the wall time the repetition would take there.
REFERENCE_S = 0.2
ITERATIONS = 400

_ANT = np.arange(16.0)
_ATOMS = np.exp(-1j * np.pi * np.outer(_ANT, np.linspace(-1.0, 1.0, 64)))


def kernel(iterations: int = ITERATIONS) -> float:
    """Run the calibration kernel once; returns its wall seconds."""
    start = time.perf_counter()
    th = np.linspace(-1.0, 1.0, 512)
    ref = np.exp(-1j * np.pi * np.multiply.outer(np.sin(th[::-1]), _ANT))
    acc = {}
    for i in range(iterations):
        d = np.exp(-1j * np.pi * np.multiply.outer(np.sin(th), _ANT))
        s = np.einsum("tm,tm->t", d.conj(), ref)
        r = np.log2(1.0 + 0.1 * (s.real**2 + s.imag**2))
        g = d @ _ATOMS
        k = np.argmax(g.real**2 + g.imag**2, axis=1)
        th = np.clip(th - 1e-4 * (r - r.mean()) + 1e-6 * k, -1.5, 1.5)
        acc[i % 7] = acc.get(i % 7, 0.0) + float(r[i % 512])
    return time.perf_counter() - start


def _helper(conn):
    """Run the kernel each time the parent asks, until it sends False."""
    while conn.recv():
        conn.send(kernel())
    conn.close()


class SpeedTracker:
    """Scales wall times by the host's speed around them.

    Use as a context manager.  The kernel runs on entry and after every
    timed step, in this process and ``processes - 1`` helper processes at
    once; a step's wall time is scaled by the mean, over the calibrations
    on either side of it, of the slowest process's kernel time.
    """

    def __init__(self, processes: int = 1):
        self.processes = processes
        self.kernel_s = []
        self._helpers = []

    def __enter__(self):
        for _ in range(self.processes - 1):
            parent, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_helper, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._helpers.append((proc, parent))
        self.calibrate()
        return self

    def __exit__(self, *exc):
        for _, conn in self._helpers:
            try:
                conn.send(False)
            except OSError:
                pass
            conn.close()
        for proc, _ in self._helpers:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._helpers.clear()

    def calibrate(self):
        for _, conn in self._helpers:
            conn.send(True)
        times = [kernel()] + [conn.recv() for _, conn in self._helpers]
        self.kernel_s.append(max(times))

    def normalise(self, wall: float) -> float:
        """Calibrate again and scale ``wall``, timed since the last calibration."""
        self.calibrate()
        return wall * REFERENCE_S / statistics.fmean(self.kernel_s[-2:])
