"""Exponential convexity certificates for the composition residual.

For the power family the residual

    Lambda(p) = Z(t) F_p(f) - F_p(Z(t) f)

is treated as a function of the family parameter p at a fixed semigroup
time t. A Gram matrix over an exponent set evaluates Lambda at
the pairwise midpoints (p_i + p_j)/2, and positivity of the residual
map in the exponential-convexity sense reduces to every per-coordinate
real symmetric matrix being positive semidefinite.

The generic quadratic-form identity behind this is

    sum_ij xi_i xi_j H(x_i + x_j)      (SUM form)
    sum_ij xi_i xi_j H((x_i + x_j)/2)  (MIDPOINT form)

which are the same statement under the substitution y = x/2, resp.
y = 2x; both probes and the substitution identity are exposed.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import HypothesisViolationError
from .lattice import LatticeElement, Ordering, partial_leq
from .families import _MemberColumn
from .jessen import _members_sides, _require_normalized
from .semigroup import Generator, _stack_act, evolve

__all__ = [
    "IllConditionedMidpointError",
    "ExponentSet",
    "lambda_residual",
    "LambdaGram",
    "build_gram",
    "PsdReport",
    "check_order_psd",
    "QuadFormMode",
    "exp_convexity_probe",
    "quad_form_vector",
    "MidpointEquivalenceReport",
    "midpoint_equivalence_check",
    "MIDPOINT_GUARD",
]

# Width of the rejection band around the removable singularities of the
# family normalizations. The normalization factor there is at least of
# order 1/MIDPOINT_GUARD, so 1e-6 caps it at about 1e6; exact hits on a
# singular point dispatch to the dedicated branch instead.
MIDPOINT_GUARD = 1e-6


class IllConditionedMidpointError(HypothesisViolationError):
    """A pairwise midpoint falls inside a guard band around a removable
    singularity of the family normalization."""


def _special_points(kind: str) -> tuple[float, ...]:
    if kind == "F":
        return (0.0, 1.0)
    if kind == "H":
        return (0.0,)
    raise ValueError(f"family kind must be 'F' or 'H', got {kind!r}")


class ExponentSet:
    """Finite parameter set whose pairwise midpoints are all evaluable.

    Midpoints that hit a special point (0 or 1 for the power family, 0
    for the exponential family) exactly dispatch to the dedicated
    branch; midpoints inside the guard band around one without hitting
    it are rejected as ill conditioned, since the generic branch carries
    a 1/(p(p-1)) resp. 1/p^2 factor there.
    """

    __slots__ = ("p", "family_kind")

    def __init__(self, p, family_kind: str = "F"):
        specials = _special_points(family_kind)
        self.p, self.family_kind = tuple(float(v) for v in p), family_kind
        if len(self.p) == 0:
            raise ValueError("exponent set must be nonempty")
        with np.errstate(over="ignore"):  # a midpoint of two finite exponents may overflow
            mids = self.midpoints()
        # near[i, j, s]: the midpoint of (i, j <= i) is in the band of specials[s], not on it
        dist = np.abs(mids[..., None] - specials)
        near = (dist > 0.0) & (dist < MIDPOINT_GUARD) & np.tri(self.size, dtype=bool)[..., None]
        if near.any():  # the first in row-major order: i, then j, then s
            i, j, s = np.unravel_index(near.argmax(), near.shape)
            raise IllConditionedMidpointError(
                f"midpoint ({self.p[i]!r}+{self.p[j]!r})/2 = {float(mids[i, j])!r} lies within "
                f"{MIDPOINT_GUARD:g} of {specials[s]:g}"
            )

    @property
    def size(self) -> int:
        return len(self.p)

    def midpoints(self) -> np.ndarray:
        arr = np.array(self.p)
        return 0.5 * (arr[:, None] + arr[None, :])


def lambda_residual(
    gen: Generator, f: LatticeElement, p: float, t: float, family_kind: str = "F"
) -> LatticeElement:
    """Composition residual of the family member with parameter p; the
    generator must be conservative."""
    _require_normalized(gen, False)
    _special_points(family_kind)
    z = evolve(gen, t).matrix
    return LatticeElement(_midpoint_residuals(z, family_kind, [p], f.values)[0])


class LambdaGram(NamedTuple):
    """Residual values over all pairwise midpoints of an exponent set.

    ``coordinate_matrices[k]`` is the symmetric matrix of coordinate k,
    whose smallest eigenvalue sits in ``min_eigenvalues[k]``;
    ``entries[i, j, k]``, a view of it, is coordinate k of Lambda at
    (p_i + p_j)/2.
    """

    pset: ExponentSet
    t: float
    coordinate_matrices: np.ndarray
    min_eigenvalues: np.ndarray

    @property
    def entries(self) -> np.ndarray:
        return self.coordinate_matrices.transpose(1, 2, 0)

    @property
    def dim(self) -> int:
        return self.coordinate_matrices.shape[0]

    def max_abs_entry(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def to_json(self) -> dict:
        return {
            "p": list(self.pset.p),
            "family_kind": self.pset.family_kind,
            "t": self.t,
            "coordinates": [
                {
                    "index": k,
                    "matrix": [[float(v) for v in row] for row in self.coordinate_matrices[k]],
                    "min_eigenvalue": float(self.min_eigenvalues[k]),
                }
                for k in range(self.dim)
            ],
        }

    def to_csv_rows(self):
        """(p_i, p_j, coordinate, value) tuples in row-major order."""
        n = self.pset.size
        for i in range(n):
            for j in range(n):
                for k in range(self.dim):
                    yield (self.pset.p[i], self.pset.p[j], k, float(self.entries[i, j, k]))


def _midpoint_residuals(z: np.ndarray, kind: str, mids, f: np.ndarray) -> np.ndarray:
    """Rows z phi_m(f) - phi_m(z f), one per midpoint m of ``mids``: one
    ``_members_sides`` call on the column of their members, whose error, of
    the first member to fail the earliest check, names that midpoint."""
    mids = np.array(mids, dtype=float)
    # f as the (1, 1, 1, K) block of one time and one sample, which every member shares
    phi_zf, _, z_phi_f = _members_sides(partial(_stack_act, z[None]), _MemberColumn(kind, mids),
                                        f[None, None, None],
                                        lambda m: f"at midpoint {mids[m]:g}")
    return z_phi_f[:, 0, 0] - phi_zf[:, 0, 0]


def build_gram(
    gen: Generator,
    f: LatticeElement,
    t: float,
    pset: ExponentSet,
) -> LambdaGram:
    """Evaluate the residual on every pairwise midpoint of the set.

    Each distinct midpoint is evaluated once, in (i <= j) order, and its
    row is shared between (i, j) and (j, i), so the Gram tensor is
    symmetric by construction. Z(t) is evolved once and applied once: one
    ``semigroup._stack_act`` on the block [f; phi_m(f) for every
    midpoint m], whose rows carry the bits of the single-row products.
    The generator must be conservative.
    """
    _require_normalized(gen, False)
    return _gram(evolve(gen, t).matrix, f.values, t, pset)


def _gram(z: np.ndarray, f: np.ndarray, t: float, pset: ExponentSet) -> LambdaGram:
    """``build_gram`` on the evolved K x K matrix Z(t) = ``z`` and f as an array."""
    n = pset.size
    rows: dict[float, int] = {}
    index = np.empty((n, n), dtype=np.intp)
    for i, pi in enumerate(pset.p):
        for j in range(i, n):
            mid = 0.5 * (pi + pset.p[j])
            index[i, j] = index[j, i] = rows.setdefault(mid, len(rows))
    # (K, n, n) and C-ordered, where ``.T[:, index]`` would keep the K axis innermost
    coord = np.take(_midpoint_residuals(z, pset.family_kind, list(rows), f).T, index, axis=1)
    coord.setflags(write=False)
    min_eigs = np.linalg.eigvalsh(coord)[:, 0]
    return LambdaGram(pset=pset, t=t, coordinate_matrices=coord, min_eigenvalues=min_eigs)


class PsdReport(NamedTuple):
    """Spectral certificate plus sampled quadratic forms for one Gram."""

    spectral_pass: bool
    sampled_pass: bool
    min_eigenvalue: float
    min_quadform: float
    scaled_tol: float
    tol: float
    n_xi: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.spectral_pass and self.sampled_pass

    def to_json(self) -> dict:
        return self._asdict()


# Unit roundoff of double precision.
_UNIT_ROUNDOFF = 2.0 ** -53
# 8 * 2^-1075: a product that underflows is off by at most 2^-1075 (half
# the smallest subnormal), and the two evaluations of one quadratic form
# carry at most 8 n^2 (1 + max |entry|) such errors between them.
_UNDERFLOW_STEP = 2.0 ** -1072
# numpy's einsum picks its summation order from the operand shapes; for a
# one-coordinate Gram of a 2-point set it sums a block of one or two rows
# in another order than a longer block (seen with numpy 2.4), so the
# exact pass never takes fewer rows than this.
_EXACT_MIN_ROWS = 8


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), which bounds the relative
    error of a term that passes k rounded operations."""
    ku = k * _UNIT_ROUNDOFF
    return ku / (1.0 - ku) if ku < 1.0 else float("inf")


def check_order_psd(gram: LambdaGram, n_xi: int, seed: int, tol: float = 1e-8) -> PsdReport:
    """Order positive semidefiniteness of the Gram in both certificates.

    Spectral: every coordinate matrix eigenvalue is above
    -tol * (1 + max |entry|). Sampled: unit coefficient vectors give
    quadratic-form vectors above the same floor in every coordinate,
    which the spectral bound implies.

    The sampled minimum is that of
    ``einsum("si,sj,ijk->sk", xi, xi, entries)`` over all n_xi rows, bit
    for bit, but the einsum only runs on the rows that can hold it.
    Screen: the same forms through one BLAS product ``M @ xi^T``, with
    the K coordinate matrices stacked as M of shape (K n, n) and xi^T
    made contiguous, multiplied by xi^T in place and summed over i; the
    one (K, n, n_xi) block is the only large array it adds to xi^T.
    Exact: the einsum on every row whose screened minimum (over the
    coordinates) is within 2 delta of the smallest one, and on at least
    the first ``_EXACT_MIN_ROWS`` rows.

    delta bounds the gap between a screened form and its einsum value.
    For a row x and coordinate k let m = max |entry| and
    T = sum_ij |x_i| |x_j| |E_ijk|, so T <= m (sum_i |x_i|)^2 <= n m
    since ||x|| = 1. The einsum rounds each term x_i x_j E_ijk twice and
    sums n^2 terms, so a term passes at most n^2 + 1 roundings and the
    error is at most gamma_{n^2+1} T. The screen sums y_i = sum_j E_ijk x_j
    and then sum_i x_i y_i, in whatever order BLAS and numpy pick: a term
    passes at most n roundings into y_i and n more into the form, so the
    error is at most gamma_{2n} T for any summation order. Products that
    underflow add at most 8 n^2 (1 + m) 2^-1075 between the two. Hence

        delta = 2 ((gamma_{2n} + gamma_{n^2+1}) n m + 8 n^2 (1 + m) 2^-1075),

    where the factor 2 covers the rounding of ||x||, of delta and of
    the threshold. The bound holds for every coordinate, so it holds
    for the minimum over the coordinates of a row. If s* holds the
    einsum minimum, e_s is the einsum and b_s the screened minimum of
    row s, then b_s* <= e_s* + delta <= e_s + delta <= b_s + 2 delta for
    every row s, so s* is kept. A non-finite entry makes the threshold
    NaN or infinite, which keeps every row.
    """
    if n_xi < 1:
        raise ValueError(f"n_xi must be at least 1, got {n_xi}")
    peak = gram.max_abs_entry()
    scale = tol * (1.0 + peak)
    min_eig = float(np.min(gram.min_eigenvalues))
    spectral_pass = min_eig >= -scale

    rng = np.random.default_rng(seed)
    n = gram.pset.size
    xi = rng.normal(size=(n_xi, n))
    # the ufuncs np.linalg.norm(xi, axis=1) runs on a real array, so its bits
    norms = np.sqrt(np.add.reduce(xi * xi, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    xi /= norms

    xt = np.ascontiguousarray(xi.T)
    forms = (gram.coordinate_matrices.reshape(-1, n) @ xt).reshape(-1, n, n_xi)
    forms *= xt
    screened = np.min(forms.sum(axis=1), axis=0)
    del xt, forms  # freed before the exact pass, which may copy every row of xi
    delta = 2.0 * ((_gamma(2 * n) + _gamma(n * n + 1)) * n * peak
                   + n * n * (1.0 + peak) * _UNDERFLOW_STEP)
    keep = ~(screened > np.min(screened) + 2.0 * delta)
    keep[:_EXACT_MIN_ROWS] = True
    exact = xi[keep]
    quad = np.einsum("si,sj,ijk->sk", exact, exact, gram.entries)
    min_quad = float(np.min(quad))
    sampled_pass = min_quad >= -scale

    return PsdReport(
        spectral_pass=spectral_pass,
        sampled_pass=sampled_pass,
        min_eigenvalue=min_eig,
        min_quadform=min_quad,
        scaled_tol=scale,
        tol=tol,
        n_xi=n_xi,
        seed=seed,
    )


class QuadFormMode(Enum):
    SUM = "SUM"
    MIDPOINT = "MIDPOINT"


def quad_form_vector(
    H: Callable[[float], LatticeElement],
    x_list,
    xi_list,
    mode: QuadFormMode,
) -> np.ndarray:
    """sum_ij xi_i xi_j H(arg_ij) with arg from the chosen form.

    H values are cached per distinct argument, so symmetric pairs reuse
    one evaluation exactly.
    """
    xs = [float(x) for x in x_list]
    xis = [float(x) for x in xi_list]
    if len(xs) != len(xis):
        raise ValueError("x_list and xi_list must have equal length")
    if not xs:
        raise ValueError("need at least one point")
    cache: dict[float, np.ndarray] = {}

    def h_at(arg: float) -> np.ndarray:
        if arg not in cache:
            cache[arg] = np.asarray(H(arg).values, dtype=float)
        return cache[arg]

    total = None
    for i, (x_i, xi_i) in enumerate(zip(xs, xis)):
        for x_j, xi_j in zip(xs, xis):
            arg = x_i + x_j
            if mode is QuadFormMode.MIDPOINT:
                arg = 0.5 * arg
            contrib = xi_i * xi_j * h_at(arg)
            total = contrib if total is None else total + contrib
    return total


def exp_convexity_probe(
    H: Callable[[float], LatticeElement],
    x_list,
    xi_list,
    mode: QuadFormMode = QuadFormMode.SUM,
) -> Ordering:
    """Lattice-order verdict of the quadratic form against zero.

    LEQ or EQUAL means the form is nonnegative within the band of
    ``DEFAULT_TOLERANCE``, which is the exponential-convexity statement
    for the sampled points and coefficients.
    """
    q = quad_form_vector(H, x_list, xi_list, mode)
    q_el = LatticeElement(q)
    zero = LatticeElement(np.zeros(q.size))
    return partial_leq(zero, q_el)


class MidpointEquivalenceReport(NamedTuple):
    """Substitution identity between the SUM and MIDPOINT forms."""

    defect_double: float
    defect_half: float
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.defect_double, self.defect_half) <= self.tol


def midpoint_equivalence_check(
    H: Callable[[float], LatticeElement],
    x_list,
    xi_list,
) -> MidpointEquivalenceReport:
    """SUM on x equals MIDPOINT on 2x, and MIDPOINT on x equals SUM on x/2, within 1e-12.

    Doubling and halving are exact float operations, so both defects are
    zero whenever H is deterministic.
    """
    xs = [float(x) for x in x_list]
    q_sum = quad_form_vector(H, xs, xi_list, QuadFormMode.SUM)
    q_mid_doubled = quad_form_vector(H, [2.0 * x for x in xs], xi_list, QuadFormMode.MIDPOINT)
    defect_double = float(np.max(np.abs(q_sum - q_mid_doubled)))

    q_mid = quad_form_vector(H, xs, xi_list, QuadFormMode.MIDPOINT)
    q_sum_halved = quad_form_vector(H, [0.5 * x for x in xs], xi_list, QuadFormMode.SUM)
    defect_half = float(np.max(np.abs(q_mid - q_sum_halved)))

    return MidpointEquivalenceReport(
        defect_double=defect_double, defect_half=defect_half, tol=1e-12
    )
