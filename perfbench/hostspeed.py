"""Host speed, read from a fixed reference kernel next to each timed job.

The benchmark shares its host with other tenants, and the host's speed
moves under it: on a 2-core VM a fixed pure-Python loop took 0.26 s or
0.38 s depending on the minute, with no steal time reported, and the
kernel below reads about 22 ms or about 32 ms, switching between the two
many times a minute.  A placement job's time sums over both states.  The
benchmark therefore runs the kernel just before and just after every
timed job and divides the run's median job time by the run's mean kernel
time: over five seeds taken while the host drifted, the spread of
``place_s`` on ``five_flows_aes400`` fell from 0.14 (wall time) to 0.04.

The kernel is the benchmark's own code, never the placer's, so a change
to the placer moves the job's time and leaves the kernel's alone.  It
mixes the two kinds of work the placer does: an interpreted loop and
numpy / scipy array kernels.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

#: What the reference kernel takes on the nominal host.  A normalized
#: time is the seconds the job would take on a host where the kernel
#: takes this long on average; on a 2-core Xeon VM it takes 21-35 ms.
REF_NOMINAL_S = 0.03


class ReferenceKernel:
    """The fixed reference work; its arrays are built once, when made."""

    def __init__(self) -> None:
        n, per_row = 20_000, 10
        rng = np.random.default_rng(0)
        self.matrix = sp.csr_matrix(
            (rng.random(n * per_row),
             (np.repeat(np.arange(n), per_row),
              rng.integers(0, n, n * per_row))),
            shape=(n, n),
        )
        self.vector = rng.random(n)
        self.values = rng.random(100_000)

    def seconds(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i % 7
        for _ in range(10):
            total += int((self.matrix @ self.vector).argmax())
            total += int(np.sort(self.values).argmin())
        return time.perf_counter() - t0


def normalized(wall: float, reference: float) -> float:
    """``wall`` seconds at the nominal host speed (:data:`REF_NOMINAL_S`)."""
    return wall * REF_NOMINAL_S / reference
