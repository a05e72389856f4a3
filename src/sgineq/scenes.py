"""Two grid scenes where evolution and a mirror map fail to commute.

Both scenes compare phi(Z(t) f) with Z(t) phi(f) for a mirror map phi
(an order-preserving involutive algebra isomorphism realized as an
index permutation, no convexity attached) and an evolution that is
entrywise nonnegative but only normalized at special times.

Shift scene: a uniform grid on [-L, L], f a Gaussian bump, Z(t) the
left shift by t with zero extension past the boundary (substochastic
rows there), phi the reflection x -> -x. The two curves are Gaussians
centered at +t and -t, so for t > 0 neither dominates the other.

Rotation scene: N equispaced points on the circle, f(z) = cos z + 1,
Z(t) the rotation R_t by t = 2 pi k / N (an exact cyclic permutation),
phi the conjugation C: z -> -z. Conjugation reverses rotation,
C R_t = R_{-t} C, so the two curves are f(t - z) and f(-t - z), and
they coincide exactly when f is invariant under R_{2t}. Every profile
is invariant under a full turn, so equality holds on the steps with
2k = 0 mod N (full turns, and the half turn when N is even) whatever
f is; the cosine profile, which no other rotation fixes, gives
equality nowhere else. Elsewhere the curves cos(t - z) + 1 and
cos(t + z) + 1 differ by 2 sin(t) sin(z), which changes sign, so they
are incomparable, as at k = N/4. The rotation preserves the all-ones
unit at every step, but the identity function of the circle only on
the full-turn subgroup, which the report records separately.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .lattice import Ordering, order_verdict

__all__ = [
    "ShiftScene",
    "ShiftExampleReport",
    "run_shift_example",
    "RotationScene",
    "RotationExampleReport",
    "run_rotation_example",
]


# Half width L of the shift scene's grid on [-L, L], its step, and the steps in L.
SHIFT_HALF_WIDTH = 6.0
SHIFT_STEP = 0.05
_HALF_STEPS = round(SHIFT_HALF_WIDTH / SHIFT_STEP)


class ShiftScene:
    """Left shift of a Gaussian bump against its mirror on [-L, L], with
    L = SHIFT_HALF_WIDTH and the grid step SHIFT_STEP."""

    __slots__ = ("t", "shift_steps")

    n_points = 2 * _HALF_STEPS + 1

    def __init__(self, t: float):
        if t < 0:
            raise ValueError("t must be nonnegative")
        ratio = t / SHIFT_STEP
        if not math.isfinite(ratio):
            raise ValueError(f"t = {t:g} is not a finite multiple of the step {SHIFT_STEP:g}")
        steps = round(ratio)
        if abs(ratio - steps) > 1e-9:
            raise ValueError(f"t = {t:g} is not a multiple of the step {SHIFT_STEP:g}")
        if t >= SHIFT_HALF_WIDTH:
            raise ValueError("t must stay below half_width so the interior window is nonempty")
        self.t, self.shift_steps = t, steps

    def grid(self) -> np.ndarray:
        return (np.arange(self.n_points) - _HALF_STEPS) * SHIFT_STEP

    def profile(self) -> np.ndarray:
        x = self.grid()
        return np.exp(-x * x)

    def shift_matrix(self) -> np.ndarray:
        """Row m reads index m + k; rows past the boundary are zero."""
        n = self.n_points
        k = self.shift_steps
        mat = np.zeros((n, n))
        for m in range(n - k):
            mat[m, m + k] = 1.0
        return mat

    def mirror_matrix(self) -> np.ndarray:
        return np.eye(self.n_points)[::-1].copy()


def _scene_json(report) -> dict:
    """A scene report's fields less its three curves, with the verdict by its value."""
    fields = {k: v for k, v in report._asdict().items() if k not in ("coords", "lhs", "rhs")}
    return fields | {"verdict": report.verdict.value}


class ShiftExampleReport(NamedTuple):
    t: float
    verdict: Ordering
    argmax_lhs: float
    argmax_rhs: float
    lhs_at_t: float
    rhs_at_t: float
    closed_form_defect: float
    window: tuple
    coords: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    to_json = _scene_json


def _shift_left(values: np.ndarray, k: int) -> np.ndarray:
    """f(. + t) on the grid with zero extension past the right edge."""
    out = np.zeros_like(values)
    if k == 0:
        return values.copy()
    out[:-k] = values[k:]
    return out


def run_shift_example(scene: ShiftScene) -> ShiftExampleReport:
    """Compare mirror(shift(f)) with shift(mirror(f)) on the grid.

    The verdict is taken on the interior window |x| <= L - t where the
    zero extension cannot influence either curve.
    """
    x = scene.grid()
    f = scene.profile()
    k = scene.shift_steps

    zf = _shift_left(f, k)
    phi_f = f[::-1].copy()
    lhs = zf[::-1].copy()          # mirror after evolve
    rhs = _shift_left(phi_f, k)    # evolve after mirror

    inside = np.abs(x) <= SHIFT_HALF_WIDTH - scene.t + 1e-12
    verdict = order_verdict(lhs[inside], rhs[inside])

    lhs_closed = np.exp(-((scene.t - x) ** 2))
    rhs_closed = np.exp(-((scene.t + x) ** 2))
    defect = float(
        max(
            np.max(np.abs(lhs[inside] - lhs_closed[inside])),
            np.max(np.abs(rhs[inside] - rhs_closed[inside])),
        )
    )

    center = int(np.argmin(np.abs(x - scene.t)))
    return ShiftExampleReport(
        t=scene.t,
        verdict=verdict,
        argmax_lhs=float(x[int(np.argmax(lhs))]),
        argmax_rhs=float(x[int(np.argmax(rhs))]),
        lhs_at_t=float(lhs[center]),
        rhs_at_t=float(rhs[center]),
        closed_form_defect=defect,
        window=(-(SHIFT_HALF_WIDTH - scene.t), SHIFT_HALF_WIDTH - scene.t),
        coords=x,
        lhs=lhs,
        rhs=rhs,
    )


class RotationScene:
    """Rotation of cos z + 1 against conjugation on an N-point circle."""

    __slots__ = ("k", "n_points")

    def __init__(self, k: int, n_points: int = 360):
        if n_points < 3:
            raise ValueError("need at least 3 circle points")
        if not 0 <= k <= n_points:
            raise ValueError("k must lie in {0, ..., N}")
        self.k, self.n_points = k, n_points

    @property
    def t(self) -> float:
        return 2.0 * math.pi * self.k / self.n_points

    def angles(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_points) / self.n_points

    def profile(self) -> np.ndarray:
        return np.cos(self.angles()) + 1.0

    def rotation_matrix(self) -> np.ndarray:
        n = self.n_points
        mat = np.zeros((n, n))
        for m in range(n):
            mat[m, (m + self.k) % n] = 1.0
        return mat

    def mirror_permutation(self) -> np.ndarray:
        n = self.n_points
        return np.mod(-np.arange(n), n)


class RotationExampleReport(NamedTuple):
    k: int
    n_points: int
    t: float
    verdict: Ordering
    identity_function_preserved: bool
    closed_form_defect: float
    coords: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    to_json = _scene_json


def run_rotation_example(scene: RotationScene) -> RotationExampleReport:
    """Compare mirror(rotate(f)) with rotate(mirror(f)) on the circle.

    Since C R_t = R_{-t} C, the two sides are f(t - z) and f(-t - z).
    The verdict is EQUAL on {k : 2k = 0 mod N} for every profile, and
    for the scene's cosine profile on that set only; at every other k
    it is INCOMPARABLE.

    Also records whether the rotation fixes the identity function of
    the circle (its cosine and sine coordinate grids), which happens
    exactly on the full-turn subgroup k = 0 mod N.
    """
    z = scene.angles()
    f = scene.profile()
    k = scene.k
    n = scene.n_points
    mirror = scene.mirror_permutation()

    rot_f = np.roll(f, -k)        # index m reads m + k
    lhs = rot_f[mirror]           # mirror after evolve
    rhs = np.roll(f[mirror], -k)  # evolve after mirror

    verdict = order_verdict(lhs, rhs)

    t = scene.t
    lhs_closed = np.cos(t - z) + 1.0
    rhs_closed = np.cos(t + z) + 1.0
    defect = float(
        max(np.max(np.abs(lhs - lhs_closed)), np.max(np.abs(rhs - rhs_closed)))
    )

    cos_grid = np.cos(z)
    sin_grid = np.sin(z)
    ident_defect = max(
        float(np.max(np.abs(np.roll(cos_grid, -k) - cos_grid))),
        float(np.max(np.abs(np.roll(sin_grid, -k) - sin_grid))),
    )
    return RotationExampleReport(
        k=k,
        n_points=n,
        t=t,
        verdict=verdict,
        identity_function_preserved=ident_defect <= 1e-10,
        closed_form_defect=defect,
        coords=z,
        lhs=lhs,
        rhs=rhs,
    )
