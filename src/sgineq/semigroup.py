"""Positive matrix semigroups generated by Metzler matrices.

A valid generator Q has nonnegative off-diagonal entries (the finite
dimensional positive minimum principle), and Z(t) = exp(tQ) is then an
entrywise nonnegative matrix for every t >= 0. Q is called conservative
when every row sums to zero; in that case Z(t) is row stochastic and
fixes the all-ones unit, which is the normalization the order
inequalities in this package require.

The exponential is computed by uniformization. With
``lam >= max_i |Q_ii|`` the matrix ``P = I + Q/lam`` has no negative
entry and

    exp(tQ) = exp(-lam*t) * sum_k (lam*t)^k P^k / k!

is a sum of entrywise nonnegative terms, so nonnegativity of the result
holds by construction rather than up to roundoff. Large lam*t is split
as exp(tQ) = exp(tQ/2^s)^(2^s) with lam*t/2^s <= 128 per step; squaring
nonnegative matrices keeps the structural sign property. The Poisson
tail cut per step is relative 1e-17 and the bound is propagated through
the squarings into ``trunc_error``, which bounds that truncation only,
not the rounding of the sums and products.

Z(t) is formed as a K x K matrix only by ``evolve``. ``act`` sums the
same series on a block of rows, so it returns Z(t) f for a few vectors
f at the cost of (S, K) x (K, K) products, never forming Z(t); at large
lam*t it runs the 2^s steps in sequence, since squaring needs the whole
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolationError, SgineqError
from .lattice import LatticeElement
from .reporting import CheckEntry

__all__ = [
    "NotSquareError",
    "NegativeOffDiagonalError",
    "TimeCapError",
    "EvolveOverflowError",
    "Generator",
    "validate_generator",
    "generator_from_json",
    "generator_to_json",
    "SemigroupOperator",
    "evolve",
    "act",
    "check_semigroup_axioms",
    "check_positivity_and_normalization",
    "estimate_generator",
    "CONSERVATIVE_ROW_SUM_TOL",
    "DEFAULT_TIME_CAP",
]

CONSERVATIVE_ROW_SUM_TOL = 1e-12
DEFAULT_TIME_CAP = 1e4

_STEP_LIMIT = 128.0
_TAIL_REL = 1e-17
_ENTRY_CLAMP_BAND = 1e-12


class NotSquareError(SgineqError):
    """Generator matrix is not square."""


class NegativeOffDiagonalError(HypothesisViolationError):
    """An off-diagonal entry is negative, violating positivity of the flow."""


class TimeCapError(SgineqError):
    """t * ||Q|| exceeds the configured horizon cap."""


class EvolveOverflowError(SgineqError):
    """exp(tQ) has entries beyond double range."""


@dataclass(frozen=True)
class Generator:
    """Validated Metzler matrix with its conservativity certificate."""

    q: np.ndarray
    conservative: bool
    name: str | None = None

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    @property
    def sup_norm(self) -> float:
        """Operator norm induced by the sup norm: max absolute row sum."""
        return float(np.max(np.sum(np.abs(self.q), axis=1)))

    def __repr__(self):
        tag = self.name or "generator"
        return f"Generator({tag}, dim={self.dim}, conservative={self.conservative})"


def validate_generator(q, name: str | None = None) -> Generator:
    """Check the positive minimum principle and classify row sums.

    Parameters
    ----------
    q : array_like
        Square matrix; off-diagonal entries must be >= 0.
    name : str, optional
        Label used in reports and error messages.

    Returns
    -------
    Generator
        Frozen wrapper with ``conservative`` set when every row sums to
        zero within 1e-12.
    """
    arr = np.array(q, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"generator must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NotSquareError("generator entries must be finite")
    off = arr.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        i, j = np.argwhere(off < 0.0)[0]
        label = f" in {name!r}" if name else ""
        raise NegativeOffDiagonalError(
            f"off-diagonal entry ({i},{j}) = {arr[i, j]}{label} is negative"
        )
    row_sums = arr.sum(axis=1)
    conservative = bool(np.max(np.abs(row_sums)) <= CONSERVATIVE_ROW_SUM_TOL)
    arr.setflags(write=False)
    return Generator(q=arr, conservative=conservative, name=name)


def generator_from_json(data: dict) -> Generator:
    return validate_generator(data["q"], name=data.get("name"))


def generator_to_json(gen: Generator) -> dict:
    out = {"q": [[float(v) for v in row] for row in gen.q]}
    if gen.name is not None:
        out["name"] = gen.name
    return out


@dataclass(frozen=True)
class SemigroupOperator:
    """One evolution matrix Z(t), entrywise nonnegative.

    ``trunc_error`` bounds the error of cutting the uniformization series
    off, propagated through the squarings. It does not bound rounding,
    which can dominate: against ``scipy.linalg.expm`` the entries differ
    by up to about 1000 times ``trunc_error`` at K <= 8.
    """

    matrix: np.ndarray
    t: float
    trunc_error: float = 0.0

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=float)
        low = arr.min()
        if low < -_ENTRY_CLAMP_BAND:
            raise ValueError(f"operator entry {low} below the positivity band")
        if low < 0.0:
            arr[arr < 0.0] = 0.0
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, f: LatticeElement) -> LatticeElement:
        """Z(t) f as a lattice element."""
        if f.dim != self.dim:
            raise ValueError(f"element dim {f.dim} does not match operator dim {self.dim}")
        return LatticeElement(self.matrix @ f.values)

    def act(self, F) -> np.ndarray:
        """Z(t) f for every row f of an (S, K) block.

        The products are stacked matrix-vector products, so each row
        carries the same bits as ``matrix @ f`` on that row alone (a
        plain ``F @ matrix.T`` goes through a matrix product and does not).
        """
        return (self.matrix @ np.asarray(F, dtype=float)[:, :, None])[:, :, 0]

    def apply_adjoint(self, values) -> np.ndarray:
        """Transpose action on a dual coefficient vector."""
        return self.matrix.T @ np.asarray(values, dtype=float)

    def row_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def is_normalized(self, tol: float = 1e-10) -> bool:
        """Per-time normalization predicate: Z(t) e = e within tol."""
        return bool(np.max(np.abs(self.row_sums() - 1.0)) <= tol)


def _uniformize(gen: Generator, t: float, time_cap: float):
    """Guards shared by ``evolve`` and ``act``, and the uniformized chain.

    Returns None when Z(t) is the identity (t = 0 or Q = 0). Otherwise
    returns ``(p, mu, step_rate, splits)``: the nonnegative matrix
    P = I + Q/lam, the largest row sum ``mu`` of P (at least 1), and the
    rate lam*t/2^splits of each of the 2^splits equal steps, which is at
    most ``_STEP_LIMIT``.
    """
    if not t >= 0:  # also rejects NaN
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return None
    if t * gen.sup_norm > time_cap:
        raise TimeCapError(
            f"t*||Q|| = {t * gen.sup_norm:g} exceeds the cap {time_cap:g}"
        )

    lam = float(np.max(np.abs(np.diag(gen.q))))
    if lam == 0.0:
        if np.all(gen.q == 0.0):
            return None
        # zero diagonal but nonzero off-diagonal: any lam with I + Q/lam >= 0 works
        lam = float(np.max(gen.q))

    splits = 0
    while lam * t / (2 ** splits) > _STEP_LIMIT:
        splits += 1
    p = np.eye(gen.dim) + gen.q / lam
    mu = max(1.0, float(p.sum(axis=1).max()))
    return p, mu, lam * (t / (2 ** splits)), splits


def _series_step(start: np.ndarray, m: np.ndarray, mu: float, rate: float) -> tuple[np.ndarray, float]:
    """Uniformized series sum_k exp(-rate) rate^k/k! * start @ m^k.

    ``evolve`` passes start = I and m = P, giving exp(tQ) for one step;
    ``act`` passes a row block F and m = P^T, giving the rows of
    exp(tQ) F^T. ``mu`` bounds the growth of one product with m in the
    sup norm (the largest row sum of P), and rate <= _STEP_LIMIT.
    Returns the sum and an absolute truncation bound relative to the
    size of ``start``. All terms are entrywise nonnegative for a
    nonnegative start, so no cancellation can produce a negative entry.
    """
    log_growth = rate * (mu - 1.0)
    if log_growth > 700.0:
        raise EvolveOverflowError("exp(tQ) exceeds double range for this generator")

    term = math.exp(-rate) * start
    total = term.copy()
    # scalar majorant b_k = exp(-rate) * (rate*mu)^k / k!, tracked in logs
    log_b = -rate
    log_target = math.log(_TAIL_REL) + log_growth
    k = 0
    max_iter = int(rate * mu + 60.0 * math.sqrt(rate * mu + 1.0) + 400)
    while True:
        k += 1
        if k > max_iter:
            raise SgineqError("uniformization failed to reach its tail target")
        term = term @ m * (rate / k)
        total += term
        log_b += math.log(rate * mu) - math.log(k)
        ratio = rate * mu / (k + 1)
        if ratio < 1.0:
            # geometric tail bound: sum_{j>k} b_j <= b_k * ratio/(1-ratio)
            log_tail = log_b + math.log(ratio) - math.log(1.0 - ratio)
            if log_tail <= log_target:
                return total, math.exp(log_tail)


def evolve(gen: Generator, t: float, time_cap: float = DEFAULT_TIME_CAP) -> SemigroupOperator:
    """Form the matrix Z(t) = exp(tQ) with structural entrywise nonnegativity.

    This builds all K x K entries: one K x K product per series term and
    per squaring. To apply Z(t) to a few vectors, ``act`` is cheaper.

    Parameters
    ----------
    gen : Generator
        Validated Metzler generator.
    t : float
        Nonnegative time.
    time_cap : float
        Horizon guard; t * ||Q|| above this raises TimeCapError.

    Returns
    -------
    SemigroupOperator
        With ``trunc_error`` an absolute bound on the series truncation
        only, kept below 1e-14 * ||Z(t)||; rounding in the sums and the
        squarings is not included in it.
    """
    chain = _uniformize(gen, t, time_cap)
    if chain is None:
        return SemigroupOperator(np.eye(gen.dim), t=t or 0.0, trunc_error=0.0)
    p, mu, step_rate, splits = chain
    base, err = _series_step(np.eye(gen.dim), p, mu, step_rate)
    # overflow in the squarings is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(splits):
            norm = float(np.max(np.sum(base, axis=1)))
            base = base @ base
            err = err * (2.0 * norm + err)
    if not np.all(np.isfinite(base)):
        raise EvolveOverflowError("exp(tQ) exceeds double range for this generator")
    return SemigroupOperator(base, t=t, trunc_error=err)


def act(gen: Generator, t: float, F, time_cap: float = DEFAULT_TIME_CAP) -> np.ndarray:
    """Apply Z(t) = exp(tQ) to every row of an (S, K) block without forming Z(t).

    Returns the (S, K) block whose row i is Z(t) F[i]. The series is the
    one ``evolve`` sums, applied to the rows: each term costs one
    (S, K) x (K, K) product instead of a K x K one. Squaring needs the
    whole matrix, so where ``evolve`` would split lam*t into 2^s steps
    and square, ``act`` runs the 2^s steps one after the other. The
    guards (negative t, time cap, overflow) are those of ``evolve``.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != gen.dim:
        raise ValueError(f"act needs an (S, {gen.dim}) block, got shape {F.shape}")
    block = F.copy()
    chain = _uniformize(gen, t, time_cap)
    if chain is not None:
        p, mu, step_rate, splits = chain
        pt = np.ascontiguousarray(p.T)
        # overflow across the steps is caught by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2 ** splits):
                block, _ = _series_step(block, pt, mu, step_rate)
    if not np.isfinite(block).all():
        # a non-finite entry of F reaches the result through the first term
        if not np.isfinite(F).all():
            raise ValueError("act needs a block with finite entries")
        raise EvolveOverflowError("exp(tQ) applied to the block exceeds double range")
    return block


def check_semigroup_axioms(
    gen: Generator,
    s: float,
    t: float,
    tol: float = 1e-10,
    f: LatticeElement | None = None,
    h_values=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
) -> list[CheckEntry]:
    """Identity, composition, and a strong-continuity proxy.

    The continuity sweep needs a sample element f; it checks that
    ||Z(h)f - f|| decreases along the supplied h values (first order in
    h, with slope ||Qf||).
    """
    entries = []

    ident = evolve(gen, 0.0)
    d0 = float(np.max(np.abs(ident.matrix - np.eye(gen.dim))))
    entries.append(CheckEntry("identity_at_zero", d0 <= tol, d0, tol))

    zs = evolve(gen, s)
    zt = evolve(gen, t)
    zst = evolve(gen, s + t)
    dcomp = float(np.max(np.abs(zs.matrix @ zt.matrix - zst.matrix)))
    comp_tol = tol * (1.0 + float(np.max(np.abs(zst.matrix))))
    entries.append(CheckEntry("composition", dcomp <= comp_tol, dcomp, comp_tol))

    if f is not None:
        defects = []
        for h in h_values:
            zh = evolve(gen, h)
            defects.append(float(np.max(np.abs(zh.matrix @ f.values - f.values))))
        decreasing = all(a >= b - tol for a, b in zip(defects, defects[1:]))
        worst = defects[-1]
        entries.append(CheckEntry("continuity_sweep_decreasing", decreasing, worst, tol))
    return entries


def check_positivity_and_normalization(
    gen: Generator,
    t: float,
    f: LatticeElement,
    tol: float = 1e-10,
) -> list[CheckEntry]:
    """Three verdicts at one time point.

    (a) normalization Z(t)e = e, expected to pass exactly when the
    generator is conservative; (b) the modulus bound |Z(t)f| <= Z(t)|f|;
    (c) positive-part sup-norm contraction, meaningful when no row sum
    is positive.
    """
    op = evolve(gen, t)
    entries = []

    dnorm = float(np.max(np.abs(op.row_sums() - 1.0)))
    entries.append(CheckEntry("normalization", dnorm <= tol, dnorm, tol))

    zf = op.matrix @ f.values
    z_abs = op.matrix @ np.abs(f.values)
    dmod = float(np.max(np.abs(zf) - z_abs))
    entries.append(CheckEntry("modulus_bound", dmod <= tol, dmod, tol))

    pos_in = float(np.max(np.maximum(f.values, 0.0)))
    pos_out = float(np.max(np.maximum(zf, 0.0)))
    dcontr = pos_out - pos_in
    entries.append(CheckEntry("positive_part_contraction", dcontr <= tol, dcontr, tol))
    return entries


def estimate_generator(gen: Generator, h: float, f: LatticeElement) -> float:
    """Defect of the difference quotient (Z(h)f - f)/h against Qf."""
    if h <= 0:
        raise ValueError("h must be positive")
    zh = evolve(gen, h)
    quotient = (zh.matrix @ f.values - f.values) / h
    return float(np.max(np.abs(quotient - gen.q @ f.values)))
