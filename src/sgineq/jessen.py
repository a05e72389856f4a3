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

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import HypothesisViolationError, SgineqError
from .families import OperatorFamily, _MemberColumn
from .lattice import (
    DEFAULT_TOLERANCE,
    LatticeElement,
    Ordering,
    OrderTolerance,
    order_verdict,
    partial_leq,
)
from .semigroup import Generator, _stack_act, act, evolve

__all__ = [
    "NotNormalizedError",
    "NonPositiveDualError",
    "NonFiniteSideError",
    "DualVector",
    "JessenReport",
    "jessen_report",
    "verify_jessen",
    "support_line_check",
    "AdjointPairingReport",
    "verify_adjoint_pairing",
    "DualConvexityReport",
    "dual_convexity_report",
]


class NotNormalizedError(HypothesisViolationError):
    """The generator is not conservative and no override was given."""


class NonPositiveDualError(HypothesisViolationError):
    """A dual vector with negative coefficients was passed as positive."""


class NonFiniteSideError(SgineqError, ValueError):
    """phi(f), phi(Z f) or Z phi(f) has an entry beyond double range,
    so the inequality cannot be checked on this input."""


class DualVector:
    """Coefficient vector of a linear functional <f*, f> = sum f*_i f_i."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ValueError("dual vectors are finite one dimensional arrays")
        arr.setflags(write=False)
        self.values = arr

    @property
    def positive(self) -> bool:
        return bool(np.all(self.values >= 0.0))

    def pair(self, f: LatticeElement) -> float:
        return float(self.values @ f.values)


class JessenReport(NamedTuple):
    """Outcome of one inequality check."""

    residual: LatticeElement
    verdict: Ordering
    min_slack: float
    t: float
    family: str
    generator: str | None

    @property
    def passed(self) -> bool:
        """The verdict is LEQ or EQUAL and the min slack clears its floor:
        ``_jessen_passed`` of this row."""
        return bool(_jessen_passed(self.verdict in (Ordering.LEQ, Ordering.EQUAL),
                                   self.residual.values))

    def to_json(self) -> dict:
        return self._asdict() | {"verdict": self.verdict.value,
                                 "residual": self.residual.values.tolist()}


def _require_normalized(gen: Generator, allow_unnormalized: bool) -> None:
    if not gen.conservative and not allow_unnormalized:
        label = gen.name or "generator"
        raise NotNormalizedError(
            f"{label} is not conservative; pass allow_unnormalized=True for negative controls"
        )


def _require_positive_dual(values: np.ndarray) -> None:
    if not (values >= 0.0).all():
        raise NonPositiveDualError(
            "dual vector has negative coefficients; the weak inequality needs f* >= 0"
        )


def _members_sides(
    apply: Callable[[np.ndarray], np.ndarray],
    fams: list[OperatorFamily] | _MemberColumn,
    F: np.ndarray,
    where: Callable[[int], str] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_m(Z f), Z f and Z phi_m(f) for every member phi_m of ``fams`` and
    every row f of its block.

    ``fams`` is a list of families, or a ``families._MemberColumn`` of one
    family kind at a column of parameters. ``F`` is an (M, ..., K) array of
    one block F_m per member of a list, or a (1, ..., K) array of one block
    that every member of a column takes. ``apply`` maps
    [F; phi_1(F_1); ...; phi_M(F_M)], joined along the member axis, to its
    rows under Z(t), and is called once: ``semigroup._stack_act`` bound to a
    (G, K, K) stack for (M, G, S, K) blocks, or ``semigroup.act`` bound to a
    generator and a time for an (M, K) block, which never forms Z(t). Z f has
    the shape of ``F``; the other two sides are (M, ..., K), for one member
    or a column phi(Z F) itself.

    Checks, in order: F_m in the domain, finite phi_m(F_m), Z F_m in the
    domain, finite phi_m(Z F_m), finite Z phi_m(F_m). Each runs over all
    members before the next, so the error raised is that of the first member
    to fail the earliest check. A finiteness check, and a column's domain
    check, tests all members at once; only a failure looks up that member,
    which a column builds then, and checks it alone. With ``where``, a
    function of the member index, the message is rewritten to begin with
    ``where(m)`` (called only then) and the error itself re-raised, so its
    type (and exit code) is kept. The family sees each block flattened to one
    vector (a domain error names the entry by its row-major index), since phi
    acts entry by entry.
    """
    def check(m, test):
        # test member m alone; its error goes up, relabelled
        try:
            test(fams[m])
        except Exception as err:
            if where is not None:
                err.args = (f"{where(m)}: {err}",)
            raise

    def require_finite(fam):
        raise NonFiniteSideError(
            f"{fam.label}: phi(f), phi(Z f) and Z phi(f) must have finite entries")

    def finite(sides):
        # one pass over all members; only a failure looks for the first member
        if not np.isfinite(sides).all():
            check(int(np.isfinite(sides.reshape(len(sides), -1)).all(axis=1).argmin()),
                  require_finite)

    def phi(X):
        # phi_m of each member's block of X once all are in the domain: one vector
        # per member of a list, one shared by a whole column
        if isinstance(fams, _MemberColumn):
            x = X.ravel()
            m = fams.first_off_domain(x)
            if m is not None:
                check(m, lambda fam: fam.check_domain(x))
            return [fams.value(x).ravel()]
        xs = [x.ravel() for x in X]
        for m, x in enumerate(xs):
            check(m, lambda fam: fam.check_domain(x))
        return [fam.value(x) for fam, x in zip(fams, xs)]

    # an overflow or a division by zero is reported by require_finite, naming the family
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        block = np.concatenate((F.ravel(), *phi(F))).reshape(-1, *F.shape[1:])
        finite(block[len(F):])
        acted = apply(block)
        zf, z_phi_f = acted[:len(F)], acted[len(F):]
        values = phi(zf)
        # one array of values is used as it is: no copy for one member or a column
        phi_zf = (values[0] if len(values) == 1 else np.concatenate(values)).reshape(z_phi_f.shape)
        finite(phi_zf)
        finite(z_phi_f)
    return phi_zf, zf, z_phi_f


def _slack_floor(residual: np.ndarray):
    """Lowest acceptable min slack, -1e-9 * (1 + ||residual||), per row."""
    return -1e-9 * (1.0 + np.max(np.abs(residual), axis=-1))


def _jessen_passed(leq, residual: np.ndarray):
    """The Jessen pass rule, row by row over the last axis: phi(Z f) <= Z phi(f)
    within the order band (``leq``, as ``leq_rows`` gives it or as a verdict of
    LEQ or EQUAL), and a min slack of the residual at or above ``_slack_floor``."""
    return leq & (residual.min(axis=-1) >= _slack_floor(residual))


def jessen_report(
    phi_zf: np.ndarray,
    z_phi_f: np.ndarray,
    tol: OrderTolerance,
    t: float,
    fam: OperatorFamily,
    gen: Generator,
) -> JessenReport:
    """Residual, verdict and min slack of one row f, given phi(Z f) and Z phi(f)."""
    residual = z_phi_f - phi_zf
    return JessenReport(
        residual=LatticeElement(residual),
        verdict=order_verdict(phi_zf, z_phi_f, tol),
        min_slack=float(np.min(residual)),
        t=t,
        family=fam.label,
        generator=gen.name,
    )


def verify_jessen(
    gen: Generator,
    fam: OperatorFamily,
    f: LatticeElement,
    t: float,
    allow_unnormalized: bool = False,
) -> JessenReport:
    """Check phi(Z(t) f) <= Z(t) phi(f) in the componentwise order.

    Domain membership is required for f and for Z(t) f; with a
    conservative generator, an entrywise-positive f keeps Z(t) f in the
    positive cone automatically. Z(t) is never formed: one
    ``semigroup.act`` call applies it to f and phi(f) together, which
    costs (2, K) x (K, K) products where ``evolve`` would need K x K ones.
    The verdict is taken within ``DEFAULT_TOLERANCE``.
    """
    _require_normalized(gen, allow_unnormalized)
    # f as the (1, K) block of one member, which ``act`` takes as it is
    phi_zf, _, z_phi_f = _members_sides(partial(act, gen, t), [fam], f.values[None])
    return jessen_report(phi_zf[0], z_phi_f[0], DEFAULT_TOLERANCE, t, fam, gen)


def support_line_check(
    fam: OperatorFamily,
    f: LatticeElement,
    f0: LatticeElement,
) -> Ordering:
    """Verdict of the tangent at f0 against phi(f) within ``DEFAULT_TOLERANCE``;
    LEQ or EQUAL expected.

    The slope acts by pointwise multiplication with phi'(f0).
    """
    fam.check_domain(f.values)
    fam.check_domain(f0.values)
    tangent = fam.value(f0.values) + fam.derivative(f0.values) * (f.values - f0.values)
    return partial_leq(LatticeElement(tangent), fam.apply(f))


class AdjointPairingReport(NamedTuple):
    """Weak-form adjoint check at one (generator, family, dual, f, t)."""

    transpose_defect: float
    weak_gap: float
    residual_pairing: float
    consistency_defect: float
    transpose_ok: bool
    gap_ok: bool

    @property
    def passed(self) -> bool:
        """Transpose identity and gap hold, and the gap matches the
        residual pairing within 1e-10."""
        return self.transpose_ok and self.gap_ok and self.consistency_defect <= 1e-10

    def to_json(self) -> dict:
        return self._asdict()


def _adjoint_rows(
    mats: np.ndarray, fams: list[OperatorFamily], fstars: np.ndarray, F: np.ndarray
) -> list[AdjointPairingReport]:
    """The check of ``verify_adjoint_pairing`` on every row of the (M, G, S, K)
    arrays ``fstars`` (the duals, all positive) and ``F`` (the elements):
    row (m, g, s) with the family fams[m] and Z(t) = mats[g] of the (G, K, K)
    stack. Reports are in (m, g, s) order.

    The sides of all rows and Z F come from one ``_members_sides`` call, so
    its checks and their errors are those of the whole block. Z^T f* is
    ``_stack_act`` of the transposed stack, and every pairing is stacked over
    the rows (one dot product each), so row i has the bits of that row alone.
    """
    _require_positive_dual(fstars)
    z_t_fstars = _stack_act(mats.transpose(0, 2, 1), fstars)
    phi_zf, z_f, z_phi_f = _members_sides(partial(_stack_act, mats), fams, F)
    # the pairings <Z^T f*, f>, <f*, Z f>, <f*, Z phi(f)>, <f*, phi(Z f)> and
    # <f*, residual> of every row, one stacked product
    left = np.array((z_t_fstars, fstars, fstars, fstars, fstars))[..., None, :]
    right = np.array((F, z_f, z_phi_f, phi_zf, z_phi_f - phi_zf))[..., None]
    reports = []
    for lhs, rhs, z_phi, phi_z, pairing in zip(*(left @ right).reshape(5, -1).tolist()):
        defect, gap = abs(lhs - rhs), z_phi - phi_z
        reports.append(AdjointPairingReport(
            defect, gap, pairing, abs(gap - pairing), defect <= 1e-12, gap >= -1e-9))
    return reports


def verify_adjoint_pairing(
    gen: Generator,
    fam: OperatorFamily,
    fstar: DualVector,
    f: LatticeElement,
    t: float,
) -> AdjointPairingReport:
    """Transpose identity plus the weak-form inequality for Z(t) = exp(tQ).

    The gap <f*, Z(t) phi(f)> - <f*, phi(Z(t) f)> must be nonnegative and
    agree with the pairing of the residual. The transpose defect passes at
    1e-12 and the gap at -1e-9. The gap is only meaningful for a positive
    dual and a conservative generator, so both are required; a dual with a
    negative coefficient is reported before a generator that is not
    conservative. This is ``_adjoint_rows`` on one row.
    """
    _require_positive_dual(fstar.values)
    _require_normalized(gen, False)
    return _adjoint_rows(evolve(gen, t).matrix[None], [fam], fstar.values[None, None, None],
                         f.values[None, None, None])[0]


class DualConvexityReport(NamedTuple):
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
