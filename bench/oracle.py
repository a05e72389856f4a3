"""scipy-based reference checks, run outside every timed region.

scipy is a test and benchmark oracle only; the package never imports
it. ``scipy.linalg.expm`` uses scaling and squaring with Pade
approximants (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 2009), an
algorithm independent of the package's uniformization.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import expm

from sgineq.semigroup import evolve
from sgineq.suites import random_conservative_generator

# A pair fails when Z(t) misses expm or loses its unit row sums by more.
EXPM_TOL = 1e-10
DRIFT_TOL = 1e-10

GRID_DIMS = (2, 8, 64, 300)
GRID_TIMES = (0.1, 1.0, 10.0)
GRID_SEED = 20240821


def expm_check(pairs) -> tuple[float, list]:
    """Max |evolve - expm| over the pairs, and the failures found."""
    worst = 0.0
    failures = []
    for gen, t in pairs:
        z = evolve(gen, t).matrix
        err = float(np.max(np.abs(z - expm(t * gen.q))))
        drift = float(np.max(np.abs(z.sum(axis=1) - 1.0)))
        worst = max(worst, err)
        if err > EXPM_TOL or drift > DRIFT_TOL:
            failures.append(f"K={gen.dim} t={t:g}: expm error {err:.2e}, row-sum drift {drift:.2e}")
    return worst, failures


def _median_call_s(fn) -> float:
    """Median seconds of at least 3 calls, repeated until they fill 50 ms."""
    times = []
    while len(times) < 3 or (sum(times) < 0.05 and len(times) < 200):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def evolve_vs_expm() -> dict:
    """Median evolve time over median expm time on the fixed (K, t) grid.

    Returns the ratio per grid point, keyed by (K, t), on one fixed
    random conservative generator per K with sup norm at most 5.
    """
    ratios = {}
    for dim in GRID_DIMS:
        rng = np.random.default_rng([GRID_SEED, dim])
        gen = random_conservative_generator(rng, min_dim=dim, max_dim=dim, max_norm=5.0)
        for t in GRID_TIMES:
            ev = _median_call_s(lambda: evolve(gen, t))
            ex = _median_call_s(lambda: expm(t * gen.q))
            ratios[dim, t] = ev / ex
    return ratios
