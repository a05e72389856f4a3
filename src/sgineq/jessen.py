"""Order-inequality verifiers for normalized positive semigroups.

For a row-stochastic entrywise-nonnegative matrix Z and a convex
componentwise map phi, the composition gap

    residual = Z(phi(f)) - phi(Z f)

is nonnegative in the componentwise order. This is the operator form of
the classical Jessen inequality for positive normalized functionals,
applied row by row; the proof ingredient is the support line
phi(y) >= phi(y0) + phi'(y0) (y - y0), which is also exposed here as a
checkable statement.

The adjoint-side inequality is verified in weak form through the dual
pairing <f*, .>: for every positive dual vector f* the pairing of the
residual is nonnegative, and the transpose identity
<Z^T f*, f> = <f*, Z f> ties the pseudo-adjoint action to the forward
one. The pseudo-adjoint of the nonlinear map itself is a nonlinear
functional, so pairing-level checks are the strongest statements with
finite certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import HypothesisViolationError, SgineqError
from .families import OperatorFamily
from .lattice import (
    DEFAULT_TOLERANCE,
    LatticeElement,
    Ordering,
    OrderTolerance,
    partial_leq,
)
from .semigroup import DEFAULT_TIME_CAP, Generator, SemigroupOperator, act, evolve

__all__ = [
    "NotNormalizedError",
    "NonPositiveDualError",
    "DegenerateBoxError",
    "NonFiniteSideError",
    "DualVector",
    "JessenReport",
    "jessen_sides",
    "jessen_report",
    "verify_jessen",
    "support_line_check",
    "AdjointPairingReport",
    "adjoint_pairing",
    "verify_adjoint_pairing",
    "DualConvexityReport",
    "dual_convexity_report",
    "LipschitzEstimate",
    "lipschitz_norm_estimate",
]


class NotNormalizedError(HypothesisViolationError):
    """The generator is not conservative and no override was given."""


class NonPositiveDualError(HypothesisViolationError):
    """A dual vector with negative coefficients was passed as positive."""


class DegenerateBoxError(HypothesisViolationError):
    """Sampling box with empty interior."""


class NonFiniteSideError(SgineqError, ValueError):
    """phi(f), phi(Z f) or Z phi(f) has an entry beyond double range,
    so the inequality cannot be checked on this input."""


@dataclass(frozen=True)
class DualVector:
    """Coefficient vector of a linear functional <f*, f> = sum f*_i f_i."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ValueError("dual vectors are finite one dimensional arrays")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def positive(self) -> bool:
        return bool(np.all(self.values >= 0.0))

    def pair(self, f: LatticeElement) -> float:
        return float(self.values @ f.values)


@dataclass(frozen=True)
class JessenReport:
    """Outcome of one inequality check."""

    residual: LatticeElement
    verdict: Ordering
    min_slack: float
    t: float
    family: str
    generator: str | None

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "family": self.family,
            "generator": self.generator,
            "verdict": self.verdict.value,
            "min_slack": self.min_slack,
            "residual": [float(v) for v in self.residual.values],
        }


def _require_normalized(gen: Generator, allow_unnormalized: bool) -> None:
    if not gen.conservative and not allow_unnormalized:
        label = gen.name or "generator"
        raise NotNormalizedError(
            f"{label} is not conservative; pass allow_unnormalized=True for negative controls"
        )


def _require_positive_dual(fstar: DualVector, allow_nonpositive_dual: bool) -> None:
    if not fstar.positive and not allow_nonpositive_dual:
        raise NonPositiveDualError(
            "dual vector has negative coefficients; the weak inequality needs f* >= 0"
        )


def _require_finite(fam: OperatorFamily, values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise NonFiniteSideError(
            f"{fam.label}: phi(f), phi(Z f) and Z phi(f) must have finite entries"
        )
    return values


def _pointwise(fam: OperatorFamily, block: np.ndarray) -> np.ndarray:
    flat = block.ravel()
    fam.check_domain(flat)
    return _require_finite(fam, fam.value(flat)).reshape(block.shape)


def jessen_sides(
    apply: Callable[[np.ndarray], np.ndarray], fam: OperatorFamily, F: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two sides phi(Z f) and Z phi(f) for every row f of a block.

    ``apply`` maps an (N, K) block to the block of its rows under Z(t):
    ``SemigroupOperator.act`` of an evolved matrix, or ``semigroup.act``
    bound to a generator and a time, which never forms Z(t). ``F`` is an
    (S, K) block of sample rows; ``apply`` is called once, on the
    stacked block [F; phi(F)]. Both results are (S, K) and their
    difference is the residual. Domain membership is checked for F and
    for Z F, and every side must be finite (``NonFiniteSideError``). The
    family sees each block flattened to one vector (a domain error names
    the entry by its row-major index), since phi acts entry by entry.
    """
    # an overflow is reported by _require_finite, naming the family
    with np.errstate(over="ignore", invalid="ignore"):
        phi_f = _pointwise(fam, F)
        both = apply(np.concatenate((F, phi_f)))
        phi_zf = _pointwise(fam, both[: len(F)])
    return phi_zf, _require_finite(fam, both[len(F):])


def jessen_report(
    phi_zf: np.ndarray,
    z_phi_f: np.ndarray,
    tol: OrderTolerance,
    t: float,
    fam: OperatorFamily,
    gen: Generator,
    algebra=None,
) -> JessenReport:
    """Residual, verdict and min slack of one row of ``jessen_sides``."""
    phi_zf = LatticeElement(phi_zf, algebra=algebra)
    z_phi_f = LatticeElement(z_phi_f, algebra=algebra)
    residual = z_phi_f - phi_zf
    return JessenReport(
        residual=residual,
        verdict=partial_leq(phi_zf, z_phi_f, tol),
        min_slack=float(np.min(residual.values)),
        t=t,
        family=fam.label,
        generator=gen.name,
    )


def verify_jessen(
    gen: Generator,
    fam: OperatorFamily,
    f: LatticeElement,
    t: float,
    tol: OrderTolerance = DEFAULT_TOLERANCE,
    allow_unnormalized: bool = False,
    time_cap: float = DEFAULT_TIME_CAP,
) -> JessenReport:
    """Check phi(Z(t) f) <= Z(t) phi(f) in the componentwise order.

    Domain membership is required for f and for Z(t) f; with a
    conservative generator, an entrywise-positive f keeps Z(t) f in the
    positive cone automatically. Z(t) is never formed: one
    ``semigroup.act`` call applies it to f and phi(f) together, which
    costs (2, K) x (K, K) products where ``evolve`` would need K x K ones.
    """
    _require_normalized(gen, allow_unnormalized)
    apply = partial(act, gen, t, time_cap=time_cap)
    phi_zf, z_phi_f = jessen_sides(apply, fam, f.values[None, :])
    return jessen_report(phi_zf[0], z_phi_f[0], tol, t, fam, gen, algebra=f.algebra)


def support_line_check(
    fam: OperatorFamily,
    f: LatticeElement,
    f0: LatticeElement,
    tol: OrderTolerance = DEFAULT_TOLERANCE,
) -> Ordering:
    """Verdict of the tangent at f0 against phi(f); LEQ or EQUAL expected.

    The slope acts by pointwise multiplication with phi'(f0).
    """
    fam.check_domain(f.values)
    fam.check_domain(f0.values)
    tangent = fam.value(f0.values) + fam.derivative(f0.values) * (f.values - f0.values)
    return partial_leq(
        LatticeElement(tangent, algebra=f.algebra),
        fam.apply(f),
        tol,
    )


@dataclass(frozen=True)
class AdjointPairingReport:
    """Weak-form adjoint check at one (generator, family, dual, f, t)."""

    transpose_defect: float
    weak_gap: float
    residual_pairing: float
    consistency_defect: float
    transpose_ok: bool
    gap_ok: bool

    def to_json(self) -> dict:
        return {
            "transpose_defect": self.transpose_defect,
            "weak_gap": self.weak_gap,
            "residual_pairing": self.residual_pairing,
            "consistency_defect": self.consistency_defect,
            "transpose_ok": self.transpose_ok,
            "gap_ok": self.gap_ok,
        }


def adjoint_pairing(
    op: SemigroupOperator,
    fam: OperatorFamily,
    fstar: DualVector,
    f: LatticeElement,
    transpose_tol: float = 1e-12,
    gap_tol: float = 1e-9,
    allow_nonpositive_dual: bool = False,
) -> AdjointPairingReport:
    """Transpose identity plus the weak-form inequality for an evolved Z(t).

    The gap <f*, Z(t) phi(f)> - <f*, phi(Z(t) f)> must be nonnegative
    for positive duals, and must agree with the pairing of the residual.
    A positive dual is required unless overridden.
    """
    _require_positive_dual(fstar, allow_nonpositive_dual)
    lhs_pair = float(op.apply_adjoint(fstar.values) @ f.values)
    rhs_pair = fstar.pair(op.apply(f))
    transpose_defect = abs(lhs_pair - rhs_pair)

    phi_zf, z_phi_f = jessen_sides(op.act, fam, f.values[None, :])
    weak_gap = float(fstar.values @ z_phi_f[0]) - float(fstar.values @ phi_zf[0])
    residual_pairing = float(fstar.values @ (z_phi_f[0] - phi_zf[0]))

    return AdjointPairingReport(
        transpose_defect=transpose_defect,
        weak_gap=weak_gap,
        residual_pairing=residual_pairing,
        consistency_defect=abs(weak_gap - residual_pairing),
        transpose_ok=transpose_defect <= transpose_tol,
        gap_ok=weak_gap >= -gap_tol,
    )


def verify_adjoint_pairing(
    gen: Generator,
    fam: OperatorFamily,
    fstar: DualVector,
    f: LatticeElement,
    t: float,
    transpose_tol: float = 1e-12,
    gap_tol: float = 1e-9,
    allow_unnormalized: bool = False,
    allow_nonpositive_dual: bool = False,
) -> AdjointPairingReport:
    """Evolve Z(t) and run ``adjoint_pairing`` on it.

    The weak-form gap is only meaningful for a positive dual and a
    conservative generator; both are required unless overridden.
    """
    _require_positive_dual(fstar, allow_nonpositive_dual)
    _require_normalized(gen, allow_unnormalized)
    return adjoint_pairing(
        evolve(gen, t), fam, fstar, f, transpose_tol=transpose_tol, gap_tol=gap_tol,
        allow_nonpositive_dual=allow_nonpositive_dual,
    )


@dataclass(frozen=True)
class DualConvexityReport:
    """Checkable fragments of convexity on the dual side."""

    linearity_defect: float
    scalar_convexity_gap: float


def dual_convexity_report(
    fam: OperatorFamily,
    x1star: DualVector,
    x2star: DualVector,
    f: LatticeElement,
    g: LatticeElement,
    lam: float,
) -> DualConvexityReport:
    """Two facts about x* -> <x*, phi(.)>.

    (i) the pairing is linear in the dual slot, so the pseudo-adjoint
    acts affinely there: defect of
    <lam x1* + (1-lam) x2*, phi(f)> against the combination of pairings.
    (ii) for a positive dual the scalar function x -> <x*, phi(x)> is
    convex; the reported gap chord - value is nonnegative up to roundoff
    (x2star is reused as the positive dual for this part).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    phi_f = fam.apply(f)
    mixed_dual = DualVector(lam * x1star.values + (1.0 - lam) * x2star.values)
    linearity_defect = abs(
        mixed_dual.pair(phi_f) - (lam * x1star.pair(phi_f) + (1.0 - lam) * x2star.pair(phi_f))
    )

    if not x2star.positive:
        raise NonPositiveDualError("scalar convexity needs a positive dual")
    mix = lam * f + (1.0 - lam) * g
    chord = lam * x2star.pair(phi_f) + (1.0 - lam) * x2star.pair(fam.apply(g))
    gap = chord - x2star.pair(fam.apply(mix))
    return DualConvexityReport(linearity_defect=linearity_defect, scalar_convexity_gap=gap)


@dataclass(frozen=True)
class LipschitzEstimate:
    """Sampled lower bound for the Lipschitz constant on a box."""

    value: float
    n_samples: int
    lower_bound: bool = True


def lipschitz_norm_estimate(
    fam: OperatorFamily,
    box_low,
    box_high,
    n_samples: int,
    seed: int,
) -> LipschitzEstimate:
    """Max sampled difference quotient of phi over pairs in a box.

    Sampling is a fixed stream for a given seed, so the estimate is
    nondecreasing in n_samples. The value is a lower bound for the true
    Lipschitz constant on the box, never an upper bound.
    """
    low = np.asarray(box_low, dtype=float)
    high = np.asarray(box_high, dtype=float)
    if low.shape != high.shape or low.ndim != 1:
        raise ValueError("box bounds must be one dimensional and matching")
    if np.any(high <= low):
        raise DegenerateBoxError("box must have nonempty interior in every coordinate")
    if n_samples < 2:
        raise ValueError("need at least one sample pair")

    rng = np.random.default_rng(seed)
    pairs = rng.uniform(low, high, size=(n_samples, 2, low.size))
    best = 0.0
    for x1, x2 in pairs:
        denom = float(np.max(np.abs(x1 - x2)))
        if denom == 0.0:
            continue
        fam.check_domain(x1)
        fam.check_domain(x2)
        num = float(np.max(np.abs(fam.value(x1) - fam.value(x2))))
        best = max(best, num / denom)
    return LipschitzEstimate(value=best, n_samples=n_samples)
