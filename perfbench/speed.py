"""Host-speed probe: a fixed CPU kernel timed between jobs.

On a shared virtual machine the same pass of jobs can take 1.9 times as
long from one half-minute to the next, with the process on the CPU all the
time, so wall times drift with the host, not with the program.  The probe
runs a fixed kernel made of what blgeom's jobs spend their time on (small
LAPACK calls and interpreter overhead, vectorised array arithmetic) and
times it.  A job's time at reference speed is its wall time scaled by
``REFERENCE_S / probe time``, with the probe time taken as the mean of the
probes just before and just after the job.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0012    # probe time that defines reference speed
INTERVAL_S = 0.5        # probe again once this much wall time has passed
REPEATS = 9             # one probe is the median of this many kernel runs


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        self._spd = a @ a.T + 3.0 * np.eye(3)
        self._pts = rng.standard_normal((4096, 2))
        self.last_at = time.perf_counter()

    def _kernel(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(40):
            acc += float(np.linalg.inv(self._spd)[0, 0])
            acc += float(np.linalg.eigvalsh(self._spd)[0])
        for _ in range(8):
            acc += float(np.sqrt((self._pts ** 2).sum(axis=1)).sum())
        if not np.isfinite(acc):
            raise FloatingPointError("speed probe kernel diverged")
        return time.perf_counter() - start

    def measure(self) -> float:
        return statistics.median(self._kernel() for _ in range(REPEATS))

    def due(self) -> bool:
        return time.perf_counter() - self.last_at >= INTERVAL_S

    def probe(self) -> float:
        """Measure now; returns the probe time."""
        probe_s = self.measure()
        self.last_at = time.perf_counter()
        return probe_s


def scaled(wall_s: float, probe_s: float) -> float:
    """Wall time converted to reference speed."""
    return wall_s * REFERENCE_S / probe_s
