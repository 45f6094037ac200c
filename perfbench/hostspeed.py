"""Host-speed probe: a fixed piece of work, timed between measured operations.

On the reference machine (a 2-vCPU guest on a shared host) the same code
runs up to about 2x slower for seconds to minutes at a time, and whole
30-second runs can fall in a slow phase. The guest sees no steal time and
the process is not descheduled, so the slowdown is contention for the
physical core and its caches. Medians within a run cannot remove it.

Each workload calls ``HostSpeed.probe`` right after a measured operation (an
epoch, an evaluate call, a stream, a sentence, a set-up). The probe does the
same work every time, of the same kind as the measured code: small numpy
calls with Python overhead between them, and a small float32 GEMM. It
returns the factor ``REF_MS / probe time``. A
duration multiplied by that factor is the duration at reference speed, the
speed at which the probe takes ``REF_MS``. Slow phases last seconds and a
measured operation lasts milliseconds to a tenth of a second, so the probe
right after an operation sees the speed the operation ran at. The gated
end-to-end times are at reference speed; the raw times are reported beside
them. signflow's code never runs inside the probe, so a change to signflow
moves the gated times and leaves the factor nearly alone: the probe does
read the caches the operation before it left behind, which after a set-up
makes it about 10 % slower than the probe after it.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on the reference machine in its fast phase, so that times
# at reference speed read as that machine's uncontended milliseconds.
REF_MS = 0.9
ROUNDS = 60    # small-array steps per probe


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)  # fixed: the probe is the same in every run
        self._x = rng.random((8, 16, 16), dtype=np.float32)
        self._w = rng.random((16, 16), dtype=np.float32) / 8
        self._cols = rng.random((64, 144), dtype=np.float32)
        self._k = rng.random((144, 64), dtype=np.float32)
        self.probe_ms: list[float] = []
        for _ in range(3):  # first calls allocate; not recorded
            self._work()

    def _work(self) -> None:
        acc = self._x
        for _ in range(ROUNDS):
            acc = np.tanh(acc @ self._w)
            self._cols @ self._k

    def probe(self) -> float:
        """Time the probe once; return the factor that takes durations
        measured just before it to reference speed."""
        t0 = time.perf_counter()
        self._work()
        self.probe_ms.append((time.perf_counter() - t0) * 1e3)
        return REF_MS / self.probe_ms[-1]
