"""Exponential convexity certificates for the composition residual.

For the power family the residual

    Lambda(p) = Z(t) F_p(f) - F_p(Z(t) f)

is treated as a function of the family parameter p at a fixed semigroup
time t (the parameter is decoupled from the time; evaluating Z at the
midpoint itself is available behind ``couple_time`` and is reported,
never asserted). A Gram matrix over an exponent set evaluates Lambda at
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

from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import HypothesisViolationError
from .lattice import LatticeElement, Ordering, partial_leq
from .families import OperatorFamily, exp_member, power_member
from .jessen import _require_finite, _require_normalized
from .semigroup import Generator, SemigroupOperator, evolve

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


def _member(kind: str, p: float) -> OperatorFamily:
    return power_member(p) if kind == "F" else exp_member(p)


@dataclass(frozen=True)
class ExponentSet:
    """Finite parameter set whose pairwise midpoints are all evaluable.

    Midpoints that hit a special point (0 or 1 for the power family, 0
    for the exponential family) exactly dispatch to the dedicated
    branch; midpoints inside the guard band around one without hitting
    it are rejected as ill conditioned, since the generic branch carries
    a 1/(p(p-1)) resp. 1/p^2 factor there.
    """

    p: tuple
    family_kind: str = "F"

    def __init__(self, p, family_kind: str = "F"):
        specials = _special_points(family_kind)
        points = tuple(float(v) for v in p)
        if len(points) == 0:
            raise ValueError("exponent set must be nonempty")
        for i, pi in enumerate(points):
            for pj in points[: i + 1]:
                mid = 0.5 * (pi + pj)
                for sp in specials:
                    if mid != sp and abs(mid - sp) < MIDPOINT_GUARD:
                        raise IllConditionedMidpointError(
                            f"midpoint ({pi!r}+{pj!r})/2 = {mid!r} lies within "
                            f"{MIDPOINT_GUARD:g} of {sp:g}"
                        )
        object.__setattr__(self, "p", points)
        object.__setattr__(self, "family_kind", family_kind)

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
    return LatticeElement(_midpoint_residuals(evolve(gen, t), family_kind, [p], f.values)[0])


@dataclass(frozen=True)
class LambdaGram:
    """Residual values over all pairwise midpoints of an exponent set.

    ``entries[i, j, k]`` is coordinate k of Lambda at (p_i + p_j)/2;
    ``coordinate_matrices[k]`` is the symmetric matrix of coordinate k,
    whose smallest eigenvalue sits in ``min_eigenvalues[k]``.
    """

    pset: ExponentSet
    t: float
    entries: np.ndarray
    coordinate_matrices: np.ndarray
    min_eigenvalues: np.ndarray
    coupled: bool = False

    @property
    def dim(self) -> int:
        return self.entries.shape[2]

    def entry(self, i: int, j: int) -> LatticeElement:
        return LatticeElement(self.entries[i, j])

    def max_abs_entry(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def to_json(self) -> dict:
        return {
            "p": list(self.pset.p),
            "family_kind": self.pset.family_kind,
            "t": self.t,
            "coupled": self.coupled,
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


def _at_midpoint(mid: float, fn, *args):
    """``fn(*args)``, naming the midpoint in the message of any error.

    The message of the caught error itself is rewritten, so its type
    (and exit code) is kept whatever its constructor takes.
    """
    try:
        return fn(*args)
    except Exception as err:
        err.args = (f"at midpoint {mid:g}: {err}",)
        raise


def _require_rows_finite(mids, fams, rows: np.ndarray) -> None:
    """``_require_finite`` on each member's row, checked in one pass; on
    failure the first failing member raises, naming its midpoint."""
    if not np.isfinite(rows).all():
        for mid, fam, row in zip(mids, fams, rows):
            _at_midpoint(mid, _require_finite, fam, row)


def _midpoint_residuals(op: SemigroupOperator, kind: str, mids, f: np.ndarray) -> np.ndarray:
    """Rows Z phi_m(f) - phi_m(Z f), one per midpoint m of ``mids``.

    Z(t) is applied once, to the block [f; phi_m(f) for each m]. The
    checks are those of ``jessen_sides`` for each member: domain of f,
    finite phi_m(f), then, after the action, domain of Z f, finite
    phi_m(Z f) and finite Z phi_m(f). Each check runs over all members
    before the next one, so where several members fail, the error named
    is that of the first member to fail the earliest check.
    """
    fams = []
    block = np.empty((len(mids) + 1, f.size))
    phi_zf = np.empty((len(mids), f.size))
    block[0] = f
    # an overflow is reported by _require_finite, naming the family
    with np.errstate(over="ignore", invalid="ignore"):
        for m, mid in enumerate(mids):
            fams.append(_member(kind, mid))
            _at_midpoint(mid, fams[m].check_domain, f)
            block[m + 1] = fams[m].value(f)
        _require_rows_finite(mids, fams, block[1:])
        both = op.act(block)
        zf, z_phi_f = both[0], both[1:]
        for m, (mid, fam) in enumerate(zip(mids, fams)):
            _at_midpoint(mid, fam.check_domain, zf)
            phi_zf[m] = fam.value(zf)
        _require_rows_finite(mids, fams, phi_zf)
        _require_rows_finite(mids, fams, z_phi_f)
    return z_phi_f - phi_zf


def build_gram(
    gen: Generator,
    f: LatticeElement,
    t: float,
    pset: ExponentSet,
    couple_time: bool = False,
) -> LambdaGram:
    """Evaluate the residual on every pairwise midpoint of the set.

    Each distinct midpoint is evaluated once, in (i <= j) order, and its
    row is shared between (i, j) and (j, i), so the Gram tensor is
    symmetric by construction. Z(t) is applied once per operator: one
    ``SemigroupOperator.act`` on the block [f; phi_m(f) for every
    midpoint m], whose rows carry the bits of the single-row products.
    With ``couple_time`` the evolution is taken at the midpoint itself
    (which must then be nonnegative), one operator per midpoint; this
    variant has no asserted sign. The generator must be conservative.
    """
    _require_normalized(gen, False)
    kind = pset.family_kind
    n = pset.size
    rows: dict[float, int] = {}
    index = np.empty((n, n), dtype=np.intp)
    for i, pi in enumerate(pset.p):
        for j in range(i, n):
            mid = 0.5 * (pi + pset.p[j])
            index[i, j] = index[j, i] = rows.setdefault(mid, len(rows))

    def coupled(mid: float):
        if mid < 0:
            raise ValueError(f"couple_time needs nonnegative midpoints, got {mid:g}")
        return evolve(gen, mid), [mid]

    if couple_time:
        groups = map(coupled, rows)
    else:
        groups = [(evolve(gen, t), list(rows))]
    values = np.concatenate([_midpoint_residuals(op, kind, mids, f.values) for op, mids in groups])
    entries = values[index]
    entries.setflags(write=False)

    coord = np.ascontiguousarray(entries.transpose(2, 0, 1))
    min_eigs = np.linalg.eigvalsh(coord)[:, 0]
    return LambdaGram(
        pset=pset,
        t=t,
        entries=entries,
        coordinate_matrices=coord,
        min_eigenvalues=min_eigs,
        coupled=couple_time,
    )


@dataclass(frozen=True)
class PsdReport:
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
        return asdict(self)


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
    Screen: the same forms through one BLAS product ``M @ xi.T``, with
    the K coordinate matrices stacked as M of shape (K n, n), and a
    row-wise dot with ``xi``; the intermediates hold K n n_xi values.
    Exact: the einsum on every row whose screened minimum (over the
    coordinates) is within 2 delta of the smallest one, and on at least
    the first ``_EXACT_MIN_ROWS`` rows.

    delta bounds the gap between a screened form and its einsum value.
    For a row x and coordinate k let m = max |entry| and
    T = sum_ij |x_i| |x_j| |E_ijk|, so T <= m (sum_i |x_i|)^2 <= n m
    since ||x|| = 1. The einsum rounds each term x_i x_j E_ijk twice and
    sums n^2 terms, so a term passes at most n^2 + 1 roundings and the
    error is at most gamma_{n^2+1} T. The screen sums y_i = sum_j E_ijk x_j
    and then sum_i x_i y_i, at most 2n roundings per term, so its error
    is at most gamma_{2n} T. Products that underflow add at most
    8 n^2 (1 + m) 2^-1075 between the two. Hence

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
    norms = np.linalg.norm(xi, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    xi = xi / norms

    entries = gram.entries
    dim = entries.shape[2]
    stacked = np.ascontiguousarray(entries.transpose(2, 0, 1)).reshape(dim * n, n)
    forms = np.sum((stacked @ xi.T).reshape(dim, n, n_xi) * xi.T, axis=1)
    screened = np.min(forms, axis=0)
    delta = 2.0 * ((_gamma(2 * n) + _gamma(n * n + 1)) * n * peak
                   + n * n * (1.0 + peak) * _UNDERFLOW_STEP)
    keep = ~(screened > np.min(screened) + 2.0 * delta)
    keep[:_EXACT_MIN_ROWS] = True
    exact = xi[keep]
    quad = np.einsum("si,sj,ijk->sk", exact, exact, entries)
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


@dataclass(frozen=True)
class MidpointEquivalenceReport:
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
