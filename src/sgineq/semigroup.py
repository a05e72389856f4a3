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
not the rounding of the sums and products. The term count is the first k
whose geometric tail bound on the majorant b_k = exp(-rate) (rate mu)^k / k!
meets that cut. The bound is at least b_{k+1}, so it is evaluated only once
b_{k+1} is near the cut, and log k comes from a table grown on demand.
The identity (t = 0, Q = 0, or a lam*t that underflows to 0) is the empty
schedule, one step of rate 0 with no term past the first.

``evolve`` forms Z(t) as a K x K matrix, ``evolve_many`` the (B, K, K)
stack for many times with one stacked product per series term, and
``act`` sums the series on a block F of a few row vectors, never forming
Z(t) (2^s steps run in sequence, as squaring needs the matrix). P is Q/lam
(64-byte aligned at K >= 64) with 1 added to its diagonal in place. A
``Generator`` forms what the kernels read of Q once, at construction: from
one vector of the row sums of Q the conservativity certificate,
``sup_norm`` (row i of |Q| summed as rowsum_i(Q) - q_ii + |q_ii|), lam and
mu, the largest row sum of P, as 1 + max_i rowsum_i(Q)/lam; and the band
b = max |i - j| over the nonzero q_ij, where it is narrow enough to pay.

``act`` has two products. Its term is F @ P^T, with P^T a view of P,
except where Q is narrowly banded: a Q with 16 (2b + 1) + 144 <= K, on a
block of S rows with 2 S (2b + 1) <= K, has P applied through W, its 2b + 1
diagonals (the DIA storage of Saad, Iterative Methods for Sparse Linear
Systems, 2nd ed., SIAM 2003, section 3.4), in ``_band_series``: each term is
one multiply of the shifted previous terms by W and one sum over the
diagonals, time in S K (2b + 1) against S K^2, and no K x K array is formed.

All three share one dense series kernel, ``_series``, in which no term
allocates: the sum and two term buffers are made once per call, the two
buffers alternate, and each term is scaled and added in place. A 2-D term
at K > 1 is one ``ndarray.dot`` product into the other buffer, a stacked
one (or one at K = 1) ``np.matmul(out=)``; the arithmetic and its order
are those of ``term @ P * c``, so the bits are those of that allocating loop.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import HypothesisViolationError, SgineqError
from .lattice import LatticeElement

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
    "evolve_many",
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
_AXIOM_TOL = 1e-10
_OVERFLOW = "exp(tQ) or its uniformization exceeds double range for this generator"
# act applies P through its 2b + 1 diagonals where _BAND_TERM * (2b + 1) +
# _BAND_BASE <= K: a banded term costs about 2.5 us plus time in S K (2b + 1), a
# dense one time in K^2 that BLAS keeps below it up to K = 128; the rule is at
# or just past the crossover of the per-term times at S = 2, K = 16-300 and
# b = 0-8, on a 2-vCPU machine with one BLAS thread
_BAND_TERM = 16
_BAND_BASE = 144
_IDENTITY = (0.0, 0, 0, 0.0)  # the plan of Z(t) = I: one step of rate 0, no term past the first
_LOGS = [0.0]  # _LOGS[k] = math.log(k) for k >= 1, grown by _plan as far as it needs


class NotSquareError(SgineqError):
    """Generator matrix is not square."""


class NegativeOffDiagonalError(HypothesisViolationError):
    """An off-diagonal entry is negative, violating positivity of the flow."""


class TimeCapError(SgineqError):
    """t * ||Q|| exceeds the horizon cap DEFAULT_TIME_CAP."""


class EvolveOverflowError(SgineqError):
    """exp(tQ) has entries beyond double range."""


class Generator:
    """Metzler matrix with what the kernels read of it, all from its row sums.

    The hypothesis is checked here, with boolean masks only: a ``q`` that is
    not a nonempty square array of finite entries raises NotSquareError, and
    a negative off-diagonal entry NegativeOffDiagonalError, so every evolved
    matrix is entrywise nonnegative by construction. ``conservative`` is the
    certificate that every row sums to zero within ``CONSERVATIVE_ROW_SUM_TOL``;
    ``sup_norm`` is the max absolute row sum of Q, formed as
    max_i rowsum_i(Q) - q_ii + |q_ii|; ``uniform_rate`` is lam with
    P = I + Q/lam >= 0: max |Q_ii|, else the largest entry (0.0 for Q = 0);
    ``mu`` is the largest row sum of P, max(1, 1 + max_i rowsum_i(Q)/lam), or
    1.0 for lam = 0. A row sum beyond double range is inf: not conservative,
    and a ``sup_norm`` of inf, which ``_plan``'s time cap rejects. ``band``
    is b = max |i - j| over the nonzero q_ij where the banded product pays,
    ``_BAND_TERM * (2b + 1) + _BAND_BASE <= K``, and None elsewhere.
    """

    def __init__(self, q: np.ndarray, name: str | None = None):
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise NotSquareError(f"generator must be square, got shape {q.shape}")
        if not q.size:
            raise NotSquareError("generator must have at least one state, got shape (0, 0)")
        if not np.isfinite(q).all():
            raise NotSquareError("generator entries must be finite")
        negative = q < 0.0
        negative.flat[:: q.shape[0] + 1] = False
        if negative.any():
            i, j = np.argwhere(negative)[0]
            label = f" in {name!r}" if name else ""
            raise NegativeOffDiagonalError(
                f"off-diagonal entry ({i},{j}) = {q[i, j]}{label} is negative"
            )
        self.q, self.name = q, name
        diag = q.diagonal()
        with np.errstate(over="ignore"):
            row_sums = q.sum(axis=1)
            self.sup_norm = float(np.max(row_sums - diag + np.abs(diag)))
        self.conservative = bool(np.max(np.abs(row_sums)) <= CONSERVATIVE_ROW_SUM_TOL)
        lam = self.uniform_rate = float(np.max(np.abs(diag))) or float(np.max(q))
        # float division gives inf without a warning
        self.mu = max(1.0, 1.0 + float(row_sums.max()) / lam) if lam else 1.0
        self.band = _band(q, negative)

    @property
    def dim(self) -> int:
        return self.q.shape[0]


def validate_generator(q, name: str | None = None) -> Generator:
    """The ``Generator`` of a read-only, C-ordered float copy of ``q``.

    Parameters
    ----------
    q : array_like
        Square matrix; off-diagonal entries must be >= 0.
    name : str, optional
        Label used in reports and error messages.
    """
    arr = np.array(q, dtype=float, order="C")
    arr.setflags(write=False)
    return Generator(arr, name)


def generator_from_json(data: dict) -> Generator:
    return validate_generator(data["q"], name=data.get("name"))


def generator_to_json(gen: Generator) -> dict:
    out = {"q": [[float(v) for v in row] for row in gen.q]}
    if gen.name is not None:
        out["name"] = gen.name
    return out


class SemigroupOperator:
    """One evolution matrix Z(t), as ``evolve`` returns it: entrywise
    nonnegative by construction, since its generator is Metzler, and read-only.

    ``trunc_error`` bounds the error of cutting the uniformization series
    off, propagated through the squarings. It does not bound rounding,
    which can dominate: against ``scipy.linalg.expm`` the entries differ
    by up to about 1000 times ``trunc_error`` at K <= 8.
    """

    __slots__ = ("matrix", "t", "trunc_error")

    def __init__(self, matrix: np.ndarray, t: float, trunc_error: float = 0.0):
        matrix.setflags(write=False)
        self.matrix, self.t, self.trunc_error = matrix, t, trunc_error

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, f: LatticeElement) -> LatticeElement:
        """Z(t) f as a lattice element."""
        if f.dim != self.dim:
            raise ValueError(f"element dim {f.dim} does not match operator dim {self.dim}")
        return LatticeElement(self.matrix @ f.values)


def _stack_act(mats: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Z f for every row f of an (..., G, S, K) array F, the S rows at group g
    through Z = mats[g] of the (G, K, K) stack ``mats``; the leading axes are
    batches, say one per family member. Each row is one stacked matrix-vector
    product, so it has the bits of ``mats[g] @ f`` alone (``F @ Z.T`` is a
    matrix product and does not).
    """
    return (mats[:, None] @ F[..., None])[..., 0]


def _chain(gen: Generator) -> np.ndarray:
    """P = I + Q/lam >= 0, one K x K array per call, 64-byte aligned at K >= 64;
    all NaN for Q = 0, which no term reads, since its schedule is empty."""
    # BLAS reads a P that is only 16-byte aligned 14-25% slower at K = 64-300
    raw = np.empty(gen.q.size + 8)
    p = raw[-raw.ctypes.data % 64 // 8 if gen.dim >= 64 else 0:][:gen.q.size].reshape(gen.q.shape)
    # a P beyond double range is reported by _plan's growth guard
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(gen.q, gen.uniform_rate, out=p)
        p.flat[:: gen.dim + 1] += 1.0
    return p


def _band(q: np.ndarray, scratch: np.ndarray) -> int | None:
    """The band b of Q where ``_BAND_TERM * (2b + 1) + _BAND_BASE <= K``, else None.

    It counts the nonzeros of Q in ``scratch``, a K x K bool array it overwrites,
    so it allocates nothing of Q's size: the band holds them all when the
    diagonals out to the widest b the rule takes hold as many as Q. A Q smaller
    than the rule's least K is not scanned; Q = 0 has band 0.
    """
    widest = ((len(q) - _BAND_BASE) // _BAND_TERM - 1) // 2
    if widest < 0:
        return None
    nonzero = np.not_equal(q, 0.0, out=scratch)
    counts = [np.count_nonzero(nonzero.diagonal(d)) for d in range(-widest, widest + 1)]
    if sum(counts) < np.count_nonzero(nonzero):
        return None
    return max((abs(d) for d, n in enumerate(counts, -widest) if n), default=0)


def _diagonals(gen: Generator) -> np.ndarray:
    """W, the (2b + 1, K) diagonals of P = I + Q/lam for the band b of Q: row b + d
    holds P[i, i + d] at column i, and 0 where i + d is off the matrix. W takes the
    place of ``_chain``'s K x K P on the banded path; NaN for Q = 0 (b = 0), as P
    is, and read by no term."""
    b, k = gen.band, gen.dim
    w = np.zeros((2 * b + 1, k))
    # a W beyond double range is reported by _plan's growth guard
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(-b, b + 1):
            np.divide(gen.q.diagonal(d), gen.uniform_rate, out=w[b + d, max(0, -d):k - max(0, d)])
        w[b] += 1.0
    return w


def _plan(gen: Generator, t: float):
    """Guards and series schedule of one time, with the generator's mu.

    ``(rate, splits, terms, tail)`` for 2^splits steps of rate <=
    _STEP_LIMIT; the identity (t = 0, Q = 0 or lam*t below the double range)
    is the empty schedule ``_IDENTITY``. Scalar float operations only, so a
    time gets the same plan in any batch, and the plan of a loop that tests
    the tail at every k.
    """
    global _LOGS
    if not t >= 0:  # also rejects NaN
        raise ValueError("t must be nonnegative")
    lam = gen.uniform_rate
    if t == 0.0 or lam == 0.0:
        return _IDENTITY
    if t * gen.sup_norm > DEFAULT_TIME_CAP:
        raise TimeCapError(f"t*||Q|| = {t * gen.sup_norm:g} exceeds the cap {DEFAULT_TIME_CAP:g}")
    splits = 0
    while lam * t / (2 ** splits) > _STEP_LIMIT:
        splits += 1
    rate = lam * (t / (2 ** splits))
    log_growth = rate * (gen.mu - 1.0)
    if not log_growth <= 700.0:  # also NaN or inf when P = I + Q/lam is not finite
        raise EvolveOverflowError(_OVERFLOW)
    if rate == 0.0:  # lam*t underflowed: Z(t) = I to double precision
        return _IDENTITY
    # scalar majorant b_k = exp(-rate) * (rate*mu)^k / k!, tracked in logs
    log_target = math.log(_TAIL_REL) + log_growth
    rate_mu = rate * gen.mu
    log_rate_mu = math.log(rate_mu)
    max_iter = int(rate_mu + 60.0 * math.sqrt(rate_mu + 1.0) + 400)
    logs = _LOGS
    if len(logs) < max_iter + 2:  # replaced whole, so no concurrent call sees a partial table
        logs = _LOGS = [0.0, *map(math.log, range(1, max_iter + 2))]
    log_b = -rate + (log_rate_mu - logs[1])
    for k in range(1, max_iter + 1):
        log_next = log_b + (log_rate_mu - logs[k + 1])
        # the tail bound below is >= b_{k+1}, so it can pass only once b_{k+1} nears the target
        if log_next <= log_target + 1.0:
            ratio = rate_mu / (k + 1)
            if ratio < 1.0:
                # geometric tail bound: sum_{j>k} b_j <= b_k * ratio/(1-ratio); a ratio
                # that underflows to 0 (a subnormal rate) takes its log as a difference
                log_ratio = math.log(ratio) if ratio > 0.0 else log_rate_mu - logs[k + 1]
                log_tail = log_b + log_ratio - math.log(1.0 - ratio)
                if log_tail <= log_target:
                    return rate, splits, k, math.exp(log_tail)
        log_b = log_next
    raise SgineqError("uniformization failed to reach its tail target")


def _series(term: np.ndarray, m: np.ndarray, coefs) -> np.ndarray:
    """Sum of term_0 = ``term`` and term_k = term_{k-1} @ m * c_k over the ``coefs``.

    With term = exp(-rate) * start and c_k = rate/k, this is the uniformized
    series; for a nonnegative start no cancellation gives a negative entry.
    No term allocates: two buffers alternate, ``term`` itself (overwritten,
    so callers pass a temporary) and one more, and each term is scaled and
    added in place, with the arithmetic and its order of ``term @ m * c``.
    A 2-D term is the product ``ndarray.dot`` into the other buffer, the same
    BLAS call without the dispatch of the ``np.matmul`` gufunc, which costs
    more than the product itself at K <= 8. A (B, K, K) stack goes through
    ``np.matmul(out=)``, and so does K = 1: ``dot`` takes a (1, 1) operand
    for a scalar and multiplies outside BLAS, which can flip the sign of a
    zero and round subnormals apart from ``@``.
    """
    total = term.copy()
    cur, nxt = term, np.empty_like(total)
    gufunc = term.ndim > 2 or m.shape[-1] == 1
    for c in coefs:
        if gufunc:
            np.matmul(cur, m, out=nxt)
        else:
            cur.dot(m, nxt)
        nxt *= c
        total += nxt
        cur, nxt = nxt, cur
    return total


def _band_series(term: np.ndarray, w: np.ndarray, coefs) -> np.ndarray:
    """``_series(term, P.T, coefs)`` on an (S, K) block, with P^T applied through
    W, the (2b + 1, K) diagonals of P that ``_diagonals`` forms.

    Term k is sum_{d=-b..b} W[b + d] * shift_d(term_{k-1}), summed in that
    order, times c_k, where shift_d(x)[:, i] = x[:, i + d], and 0 off the
    block. The term lives in one buffer padded by b zero columns on either
    side, which no term writes, so shift_d is the d-th window of K columns.
    A term copies the (S, 2b + 1, K) windows into a product array and
    multiplies it in place by W repeated over the S rows; its reduction over
    the middle axis (numpy adds the slices of a middle axis in order, and
    pairs the terms of an innermost one) writes the next term over the last.
    Multiplying the windows by W directly makes numpy buffer both operands,
    which costs a term about a third more at S = 2. The term is then scaled
    and added to a padded sum in place, each buffer whole: a contiguous array
    costs half the time of the strided block inside it. No term allocates,
    and ``term`` is overwritten with the sum. With 2 S (2b + 1) <= K, as
    ``act`` takes it, the product and the repeated W hold at most K^2
    entries together.
    """
    s, k = term.shape
    b = len(w) // 2
    cur, total = np.zeros((s, k + 2 * b)), np.zeros((s, k + 2 * b))
    inner = cur[:, b:b + k]
    inner[...] = total[:, b:b + k] = term
    window = sliding_window_view(cur, k, axis=1)
    prod = np.empty((s, len(w), k))
    w = np.broadcast_to(w, prod.shape).copy()
    for c in coefs:
        np.copyto(prod, window)
        prod *= w
        np.add.reduce(prod, axis=1, out=inner)
        cur *= c
        total += cur
    term[...] = total[:, b:b + k]
    return term


def _square(base: np.ndarray, err: float, splits: int) -> tuple[np.ndarray, float]:
    """Z(t) and its truncation bound from those of Z(t/2^splits); overflow is left to the caller."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(splits):
            norm = float(base.sum(axis=1).max())
            base = base @ base
            err = err * (2.0 * norm + err)
    return base, err


def evolve(gen: Generator, t: float) -> SemigroupOperator:
    """Form the matrix Z(t) = exp(tQ) with structural entrywise nonnegativity.

    This builds all K x K entries: one K x K product per series term and
    per squaring. To apply Z(t) to a few vectors, ``act`` is cheaper;
    for many times of one generator, ``evolve_many``.

    Parameters
    ----------
    gen : Generator
        Validated Metzler generator.
    t : float
        Nonnegative time; t * ||Q|| above ``DEFAULT_TIME_CAP`` raises TimeCapError.

    Returns
    -------
    SemigroupOperator
        With ``trunc_error`` an absolute bound on the series truncation
        only, kept below 1e-14 * ||Z(t)||; rounding in the sums and the
        squarings is not included in it.
    """
    p = _chain(gen)
    rate, splits, terms, err = _plan(gen, t)
    base = _series(math.exp(-rate) * np.eye(gen.dim), p, [rate / k for k in range(1, terms + 1)])
    if splits:
        base, err = _square(base, err, splits)
    if not np.isfinite(base).all():
        raise EvolveOverflowError(_OVERFLOW)
    return SemigroupOperator(base, t=t or 0.0, trunc_error=err)  # t = -0.0 reads 0.0


def evolve_many(gen: Generator, ts) -> np.ndarray:
    """The (B, K, K) stack of ``evolve(gen, t).matrix`` for t in ts, one stacked @ P per term.

    Time i gets the coefficient rate_i/k up to its own term count and 0.0
    after it, so each matrix has the bits of ``evolve(gen, t_i)``. P and the
    (terms, times) grid of coefficients are formed once; only times that need
    steps are squared. Should any time fail, the times run through ``evolve``
    one by one, so the error raised is the first time's. No truncation bound
    is returned; ``evolve`` gives that of one time.
    """
    ts = list(ts)  # read again on a failure
    p = _chain(gen)
    try:
        plans = [_plan(gen, t) for t in ts]
        rates, splits, terms, _ = np.array(plans, dtype=float).reshape(-1, 4).T
        start = np.array([math.exp(-r) for r in rates])[:, None, None] * np.eye(gen.dim)
        ks = np.arange(1, int(terms.max(initial=0)) + 1)[:, None]
        stack = _series(start, p, np.where(ks <= terms, rates / ks, 0.0)[:, :, None, None])
        for i in np.flatnonzero(splits):
            stack[i] = _square(stack[i], 0.0, int(splits[i]))[0]
        if not np.isfinite(stack).all():
            raise EvolveOverflowError(_OVERFLOW)
    except (ValueError, SgineqError):
        for t in ts:
            evolve(gen, t)
        raise
    return stack


def act(gen: Generator, t: float, F) -> np.ndarray:
    """Apply Z(t) = exp(tQ) to every row of an (S, K) block without forming Z(t).

    Returns the (S, K) block whose row i is Z(t) F[i]. The series is the
    one ``evolve`` sums, applied to the rows: each term costs one
    (S, K) x (K, K) product by P^T, a view of P, not a K x K one, or, for
    a generator with a ``band`` b and 2 S (2b + 1) <= K, one product through
    the 2b + 1 diagonals of P by ``_band_series``. Squaring needs the
    whole matrix, so where ``evolve`` would split lam*t into 2^s steps
    and square, ``act`` runs the 2^s steps one after the other. The
    guards (negative t, time cap, overflow) are those of ``evolve``.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != gen.dim:
        raise ValueError(f"act needs an (S, {gen.dim}) block, got shape {F.shape}")
    # the banded product where Q's band pays and its two (S, 2b + 1, K) arrays fit in K^2
    banded = gen.band is not None and 2 * len(F) * (2 * gen.band + 1) <= gen.dim
    series, m = (_band_series, _diagonals(gen)) if banded else (_series, _chain(gen).T)
    rate, splits, terms, _ = _plan(gen, t)
    coefs = [rate / k for k in range(1, terms + 1)]
    block = F  # each step's first term is new and C-ordered: the series kernel writes into it
    # overflow across the steps is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2 ** splits):
            block = series(np.multiply(math.exp(-rate), block, order="C"), m, coefs)
    if not np.isfinite(block).all():
        # a non-finite entry of F reaches the result through the first term
        if not np.isfinite(F).all():
            raise ValueError("act needs a block with finite entries")
        raise EvolveOverflowError("exp(tQ) applied to the block exceeds double range")
    return block


class CheckEntry(NamedTuple):
    """One named numeric check: defect against a tolerance."""

    name: str
    passed: bool
    defect: float
    tol: float

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "defect": float(self.defect),
                "tol": float(self.tol)}


def _axiom_times(s: float, t: float) -> list[float]:
    """The times ``check_semigroup_axioms`` evolves: 0, s, t, s + t and the
    continuity sweep h = 1e-1, ..., 1e-6."""
    return [0.0, s, t, s + t, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def check_semigroup_axioms(
    gen: Generator,
    s: float,
    t: float,
    f: LatticeElement,
) -> list[CheckEntry]:
    """Identity, composition, and a strong-continuity proxy, within 1e-10.

    The continuity sweep on the sample element f checks that
    ||Z(h)f - f|| decreases along h = 1e-1, ..., 1e-6 (first order in
    h, with slope ||Qf||).
    """
    return _axiom_entries(evolve_many(gen, _axiom_times(s, t)), f)


def _axiom_entries(mats: np.ndarray, f: LatticeElement) -> list[CheckEntry]:
    """``check_semigroup_axioms`` on ``mats``, the matrices Z at ``_axiom_times(s, t)``."""
    ident, zs, zt, zst, *zhs = mats
    entries = []
    d0 = float(np.abs(ident - np.eye(len(ident))).max())
    entries.append(CheckEntry("identity_at_zero", d0 <= _AXIOM_TOL, d0, _AXIOM_TOL))

    dcomp = float(np.abs(zs @ zt - zst).max())
    comp_tol = _AXIOM_TOL * (1.0 + float(np.abs(zst).max()))
    entries.append(CheckEntry("composition", dcomp <= comp_tol, dcomp, comp_tol))

    defects = [float(np.abs(zh @ f.values - f.values).max()) for zh in zhs]
    decreasing = all(a >= b - _AXIOM_TOL for a, b in zip(defects, defects[1:]))
    worst = defects[-1]
    entries.append(CheckEntry("continuity_sweep_decreasing", decreasing, worst, _AXIOM_TOL))
    return entries


def check_positivity_and_normalization(
    gen: Generator,
    t: float,
    f: LatticeElement,
) -> list[CheckEntry]:
    """Three verdicts at one time point, within 1e-10.

    (a) normalization Z(t)e = e, expected to pass exactly when the
    generator is conservative; (b) the modulus bound |Z(t)f| <= Z(t)|f|;
    (c) positive-part sup-norm contraction, meaningful when no row sum
    is positive.
    """
    return _positivity_entries(evolve(gen, t).matrix, f)


def _positivity_entries(z: np.ndarray, f: LatticeElement) -> list[CheckEntry]:
    """``check_positivity_and_normalization`` on the matrix ``z`` = Z(t)."""
    entries = []

    dnorm = float(np.abs(z.sum(axis=1) - 1.0).max())
    entries.append(CheckEntry("normalization", dnorm <= _AXIOM_TOL, dnorm, _AXIOM_TOL))

    zf = z @ f.values
    z_abs = z @ np.abs(f.values)
    dmod = float((np.abs(zf) - z_abs).max())
    entries.append(CheckEntry("modulus_bound", dmod <= _AXIOM_TOL, dmod, _AXIOM_TOL))

    pos_in = float(np.maximum(f.values, 0.0).max())
    pos_out = float(np.maximum(zf, 0.0).max())
    dcontr = pos_out - pos_in
    entries.append(CheckEntry("positive_part_contraction", dcontr <= _AXIOM_TOL, dcontr, _AXIOM_TOL))
    return entries


def estimate_generator(gen: Generator, h: float, f: LatticeElement) -> float:
    """Defect of the difference quotient (Z(h)f - f)/h against Qf."""
    if h <= 0:
        raise ValueError("h must be positive")
    zh = evolve(gen, h)
    quotient = (zh.matrix @ f.values - f.values) / h
    return float(np.max(np.abs(quotient - gen.q @ f.values)))
