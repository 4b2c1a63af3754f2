"""Host-speed reference: scales wall times to a host of fixed speed.

The CPUs this benchmark gets are shared, and the same code runs up to
twice as slowly for minutes at a time when the host is busy.  A fixed
reference kernel is timed between operations, at most every ``EVERY``
seconds.  An operation's scaled time is its wall time multiplied by
``ref_seconds / r``, where ``r`` is the geometric mean of the reference
samples taken just before and just after it: on a host that runs the
reference in ``ref_seconds``, scaled and wall time agree.

The reference does the same kind of work as the operations it scales:

- ``compute``: a small complex matrix product, a vectorised complex
  exponential and a plain Python loop, the three kinds of work gstf does
  in-process;
- ``process``: a fresh Python interpreter that imports numpy, for
  operations that start processes (the CLI, the set-up probes).
"""

from __future__ import annotations

import bisect
import math
import subprocess
import sys
import time

import numpy as np

# Each reference's time on an idle 2-CPU x86-64 host (Python 3.11, numpy 2
# with OpenBLAS, one BLAS thread).  They fix the scale only.
REF_SECONDS = {"compute": 1.4e-3, "process": 0.14}
EVERY = 0.02


class HostSpeed:
    def __init__(self, kind: str = "compute"):
        self.kind = kind
        self.ref_seconds = REF_SECONDS[kind]
        rng = np.random.default_rng(0)
        self._a = rng.random((150, 150)) + 1j * rng.random((150, 150))
        self._x = np.linspace(0.0, 8.0, 16000)
        self.times = []    # when each reference sample ended
        self.seconds = []  # how long it took

    def _kernel(self):
        if self.kind == "process":
            subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                           capture_output=True, timeout=60)
            return
        self._a @ self._a
        np.exp(-1j * self._x)
        acc = 0
        for i in range(4000):
            acc += i * i % 7

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.seconds.append(t1 - t0)

    def maybe_sample(self):
        """A reference sample unless the last one is recent."""
        if not self.times or time.perf_counter() - self.times[-1] > EVERY:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """ref_seconds over the reference time around [start, end]: the
        last sample that ended by ``start`` and the first that ended after
        ``end`` (the nearest one when either is missing)."""
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        i = min(max(i, 0), len(self.times) - 1)
        j = min(j, len(self.times) - 1)
        return self.ref_seconds / math.sqrt(self.seconds[i] * self.seconds[j])

    def slowdown(self) -> float:
        """The run's median reference time over ref_seconds."""
        s = sorted(self.seconds)
        return s[len(s) // 2] / self.ref_seconds
