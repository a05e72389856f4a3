"""Reference chunks that measure the machine's speed during a pass.

On a shared virtual machine the same code runs up to about 1.8 times
slower while other tenants are busy, and that state changes within a
second. Timing a fixed chunk of work between cases samples the current
speed; multiplying a case time by ``NOMINAL_S / chunk time`` scales it
to the speed at which the chunk takes ``NOMINAL_S``. Chunks that do no
sgineq work keep this scale independent of the code under test.

The chunk kind matches what bounds the timed work, since each slows
down differently under contention: interpreter work on tiny arrays for
the small-K workloads, a 300 x 300 matrix product for the BLAS-bound
one, and plain Python for the set-up probe, which runs before numpy is
imported.
"""

from __future__ import annotations

import functools
import time


@functools.cache
def _arrays():
    # numpy is imported on first use, so that the set-up probe can time
    # chunks before the import it measures.
    import numpy as np

    return np.linspace(0.5, 1.5, 8), np.full((300, 300), 1.0 / 300.0)


def python_chunk() -> int:
    return sum(i * i for i in range(20000))


def interp_chunk() -> float:
    vector, _ = _arrays()
    acc = 0.0
    for _ in range(200):
        acc += float((vector * 1.0001 + 0.5).sum())
    return acc


def blas_chunk() -> float:
    _, matrix = _arrays()
    return float((matrix @ matrix)[0, 0])


CHUNKS = {"python": python_chunk, "interp": interp_chunk, "blas": blas_chunk}

# Chunk times on a quiet 2-vCPU Intel Xeon VM with one BLAS thread; the
# calibrated metrics read as seconds at that speed.
NOMINAL_S = {"python": 1e-3, "interp": 5e-4, "blas": 6e-4}

# Case time after which the next case is preceded by a sample.
GAP_S = 2e-3
# A sample runs chunks for at least this share of the case time it
# follows, so that long cases are bracketed by long samples.
SHARE = 0.5


def sample(kind: str, window: float = 0.0) -> list:
    """Seconds of one chunk, or of as many chunks as fill ``window``."""
    chunk, clock = CHUNKS[kind], time.perf_counter
    took = []
    while not took or sum(took) < window:
        began = clock()
        chunk()
        took.append(clock() - began)
    return took


def speed(kind: str, chunk_s: list) -> float:
    """Nominal over mean measured chunk time: below 1 on a slower machine."""
    return NOMINAL_S[kind] * len(chunk_s) / sum(chunk_s)
