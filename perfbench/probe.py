"""Host speed probe: converts wall time into seconds at a reference speed.

On a shared virtual machine the same code runs tens of percent faster or
slower from one minute to the next, and CPU time moves with wall time, so the
drift is host speed, not scheduling. A timed region is therefore interleaved
with a fixed scipy/numpy kernel (a sparse LU factorization and solve plus an
element-wise einsum, ~3 ms), run every EVERY_S seconds from hooks in the
solver's call path. A probe runs the kernel twice and times the second run, so
that it sees warm caches whatever the solver left in them. Each stretch of wall
time between two probes is scaled by REFERENCE_S over the mean of their speeds;
the probes' own time is left out.

The kernel calls scipy's `splu` as bound at import, so a wrapper installed
later on `scipy.sparse.linalg.splu` does not see (or count) it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Median kernel time on the 2-vCPU Intel Xeon VM that defined the benchmark
# (numpy 2.4, scipy 1.17, one BLAS thread); only ratios to it matter.
REFERENCE_S = 2.7e-3
EVERY_S = 0.2         # two kernel runs per probe: ~3% of a solve


def _inputs():
    """A 32x32-grid Laplacian (1,024 dofs) and 2,000 6x6 element blocks."""
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(32, 32))
    eye = sp.identity(32)
    matrix = (sp.kron(eye, lap) + sp.kron(lap, eye)).tocsc()
    rng = np.random.default_rng(0)
    return matrix, rng.standard_normal((2000, 6, 6)), rng.standard_normal((2000, 6))


class SpeedProbe:
    """Probe samples over one timed region, or over consecutive segments."""

    def __init__(self, clock=time.perf_counter, kernel=None):
        self.clock = clock
        self.samples = []            # (start, timed start, end) of each probe
        if kernel is None:
            matrix, blocks, vecs = _inputs()
            rhs = np.ones(matrix.shape[0])

            def kernel():
                splu(matrix).solve(rhs)
                np.einsum("eij,ej->ei", blocks, vecs)
        self.kernel = kernel

    def probe(self):
        t0 = self.clock()
        self.kernel()
        t1 = self.clock()
        self.kernel()
        self.samples.append((t0, t1, self.clock()))

    def due(self):
        """True once EVERY_S seconds have passed since the last probe ended."""
        return self.clock() - self.samples[-1][2] >= EVERY_S

    def segments(self):
        """(wall_s, reference_s) of each stretch between consecutive probes."""
        out = []
        for (_, a1, a2), (b0, b1, b2) in zip(self.samples, self.samples[1:]):
            wall = b0 - a2
            speed = 0.5 * (REFERENCE_S / (a2 - a1) + REFERENCE_S / (b2 - b1))
            out.append((wall, wall * speed))
        return out

    def totals(self):
        """(wall_s, reference_s) of the region from the first probe to the last."""
        segs = self.segments()
        return sum(w for w, _ in segs), sum(r for _, r in segs)

    def median_ms(self):
        return 1e3 * statistics.median(end - t for _, t, end in self.samples)
