"""Componentwise convex operator families and the algebra logarithm.

Two one-parameter families of convex scalar maps, applied entry by
entry. The power family is normalized so that the second derivative is
x^(p-2) on every branch:

    p not in {0, 1}:  x^p / (p(p-1))
    p = 0:            -log x          (NegLog)
    p = 1:            x log x         (Entropy)

The exponential family has second derivative exp(p*x) on every branch:

    p != 0:           exp(p*x) / p^2  (ExpH)
    p = 0:            x^2 / 2         (HalfSquare)

Power branches are defined only on the strictly positive cone. A Custom
family carries a user map together with its analytic second derivative.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SgineqError
from .lattice import LatticeElement, Ordering, partial_leq

__all__ = [
    "NonPositiveInputError",
    "ExpOverflowError",
    "RadiusViolationError",
    "MaxTermsExceededError",
    "OperatorFamily",
    "PowerFamily",
    "NegLogFamily",
    "EntropyFamily",
    "ExpFamily",
    "HalfSquareFamily",
    "CustomFamily",
    "power_member",
    "exp_member",
    "family_from_json",
    "family_to_json",
    "log_series",
    "second_derivative_check",
    "convexity_probe",
    "STRICT_POSITIVITY_TOL",
    "EXP_ARG_LIMIT",
]

STRICT_POSITIVITY_TOL = 1e-12
EXP_ARG_LIMIT = 700.0
MIN_FD_STEP = 1e-6
# log_series: term tolerance, term budget, and the margin of the guarded
# radius ||e - f|| <= 1 - margin; read at call time
LOG_SERIES_TOL = 1e-14
LOG_SERIES_MAX_TERMS = 10 ** 6
LOG_SERIES_RADIUS_MARGIN = 0.1


class NonPositiveInputError(SgineqError):
    """A power-family branch was evaluated off the strictly positive cone."""


class ExpOverflowError(SgineqError):
    """exp(p*x) would leave double range."""


class RadiusViolationError(SgineqError):
    """log series input outside the guarded convergence ball."""


class MaxTermsExceededError(SgineqError):
    """log series did not reach its term tolerance within the budget."""


def _power(x, p):
    """x^p / (p(p-1)), the generic branch of the power family: for one
    exponent p, or one row per exponent of a column p."""
    return np.power(x, p) / (p * (p - 1.0))


def _exp(x, rate):
    """exp(rate*x) / rate^2, the generic branch of the exponential family:
    for one rate, or one row per rate of a column."""
    return np.exp(rate * x) / (rate * rate)


class OperatorFamily:
    """Convex scalar map with analytic first and second derivatives."""

    __slots__ = ()
    label: str = "family"

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def second_derivative(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def check_domain(self, x: np.ndarray) -> None:
        """Raise when any entry is outside the family's domain."""
        return None

    def apply(self, f: LatticeElement) -> LatticeElement:
        x = f.values
        self.check_domain(x)
        return LatticeElement(self.value(x))

    def __repr__(self):
        return self.label


class _PositiveConeFamily(OperatorFamily):
    """A branch of the power family, defined on the strictly positive cone."""

    __slots__ = ()

    def check_domain(self, x):
        x = np.asarray(x)
        if x.min() <= STRICT_POSITIVITY_TOL:
            i = int(np.argmin(x))
            raise NonPositiveInputError(
                f"{self.label} needs strictly positive input, entry {i} = {x[i]:g}"
            )


class PowerFamily(_PositiveConeFamily):
    """x^p / (p(p-1)) on the strictly positive cone, p not in {0, 1}."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: float):
        if exponent in (0.0, 1.0):
            raise ValueError("exponent 0 and 1 have dedicated branches")
        self.exponent = exponent

    @property
    def label(self):
        return f"PowerF({self.exponent:g})"

    def value(self, x):
        return _power(x, self.exponent)

    def derivative(self, x):
        p = self.exponent
        return np.power(x, p - 1.0) / (p - 1.0)

    def second_derivative(self, x):
        return np.power(x, self.exponent - 2.0)


class NegLogFamily(_PositiveConeFamily):
    """-log x, the p = 0 branch of the power family."""

    label = "NegLog"

    def value(self, x):
        return -np.log(x)

    def derivative(self, x):
        return -1.0 / x

    def second_derivative(self, x):
        return np.power(x, -2.0)


class EntropyFamily(_PositiveConeFamily):
    """x log x, the p = 1 branch of the power family."""

    label = "Entropy"

    def value(self, x):
        return x * np.log(x)

    def derivative(self, x):
        return np.log(x) + 1.0

    def second_derivative(self, x):
        return 1.0 / x


class ExpFamily(OperatorFamily):
    """exp(p*x) / p^2 for p != 0, defined on all of the algebra."""

    __slots__ = ("rate",)

    def __init__(self, rate: float):
        if rate == 0.0:
            raise ValueError("rate 0 has the half-square branch")
        self.rate = rate

    @property
    def label(self):
        return f"ExpH({self.rate:g})"

    def check_domain(self, x):
        x = np.asarray(x)
        worst = self.rate * x.max() if self.rate > 0 else self.rate * x.min()
        if worst > EXP_ARG_LIMIT:
            raise ExpOverflowError(
                f"{self.label}: exponent argument {worst:g} exceeds {EXP_ARG_LIMIT:g}"
            )

    def value(self, x):
        return _exp(x, self.rate)

    def derivative(self, x):
        return np.exp(self.rate * x) / self.rate

    def second_derivative(self, x):
        return np.exp(self.rate * x)


class HalfSquareFamily(OperatorFamily):
    """x^2 / 2, the p = 0 branch of the exponential family."""

    label = "HalfSquare"

    def value(self, x):
        return 0.5 * x * x

    def derivative(self, x):
        return np.array(x, dtype=float)

    def second_derivative(self, x):
        return np.ones_like(x)


class CustomFamily(OperatorFamily):
    """User-supplied convex map; the second derivative must be analytic."""

    __slots__ = ("fn", "d2", "d1", "name", "domain")

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray],
                 d2: Callable[[np.ndarray], np.ndarray],
                 d1: Callable[[np.ndarray], np.ndarray] | None = None, name: str = "custom",
                 domain: Callable[[np.ndarray], None] | None = None):
        self.fn, self.d2, self.d1, self.name, self.domain = fn, d2, d1, name, domain

    @property
    def label(self):
        return self.name

    def check_domain(self, x):
        if self.domain is not None:
            self.domain(x)

    def value(self, x):
        return np.asarray(self.fn(x), dtype=float)

    def derivative(self, x):
        if self.d1 is None:
            raise NotImplementedError(f"{self.name} has no first derivative")
        return np.asarray(self.d1(x), dtype=float)

    def second_derivative(self, x):
        return np.asarray(self.d2(x), dtype=float)


def power_member(p: float) -> OperatorFamily:
    """Branch dispatch for the power family parameter."""
    if p == 0.0:
        return NegLogFamily()
    if p == 1.0:
        return EntropyFamily()
    return PowerFamily(p)


def exp_member(p: float) -> OperatorFamily:
    """Branch dispatch for the exponential family parameter."""
    if p == 0.0:
        return HalfSquareFamily()
    return ExpFamily(p)


# Exponents at which np.power with a float exponent takes its own path
# (reciprocal, square root, square), whose bits differ from those of pow.
# With a column of exponents numpy 2.4 takes it for some row lengths only,
# so ``_MemberColumn.value`` leaves these rows to their member.
_SCALAR_POWER_PATHS = (-1.0, 0.5, 2.0)

# Family kind -> (its member at a parameter, its generic branch, the
# parameters whose rows ``_MemberColumn.value`` takes from their member: a
# branch of its own, or a float path of np.power).
_KINDS = {"F": (power_member, _power, (0.0, 1.0) + _SCALAR_POWER_PATHS),
          "H": (exp_member, _exp, (0.0,))}


def _member(kind: str, p: float) -> OperatorFamily:
    """The member of the power ("F") or exponential ("H") family at p."""
    return _KINDS[kind][0](p)


class _MemberColumn:
    """The members ``_member(kind, p)`` at the parameters p of the column
    ``ps``, whose values and domain test are one array expression each, with
    the bits and the verdicts of every member's own. ``column[m]`` builds one."""

    __slots__ = ("kind", "ps")

    def __init__(self, kind: str, ps: np.ndarray):
        self.kind, self.ps = kind, ps

    def __len__(self):
        return len(self.ps)

    def __getitem__(self, m: int) -> OperatorFamily:
        return _member(self.kind, float(self.ps[m]))

    def first_off_domain(self, x: np.ndarray) -> int | None:
        """The first member whose ``check_domain`` raises on the vector x, or
        None: x leaves the strictly positive cone (every member of the power
        family raises then), or some r x exceeds EXP_ARG_LIMIT."""
        if self.kind == "F":
            return 0 if x.min() <= STRICT_POSITIVITY_TOL else None
        off = np.where(self.ps > 0, self.ps * x.max(), self.ps * x.min()) > EXP_ARG_LIMIT
        return int(off.argmax()) if off.any() else None

    def value(self, x: np.ndarray) -> np.ndarray:
        """``self[m].value(x)`` of every member m as one row. The caller holds
        numpy's error state: the generic branch divides by zero at a branch
        parameter, and a row beyond double range overflows."""
        member, generic, own = _KINDS[self.kind]
        rows = generic(x, self.ps[:, None])
        # one mask picks the rows of own; np.isin takes 3-4 times as long on a few rows
        for i in (self.ps[:, None] == own).nonzero()[0]:
            rows[i] = member(float(self.ps[i])).value(x)
        return rows


# Wire name -> (family class, attribute of its parameter "t" or None).
_WIRE_FORMS = {
    "PowerF": (PowerFamily, "exponent"),
    "NegLog": (NegLogFamily, None),
    "Entropy": (EntropyFamily, None),
    "ExpH": (ExpFamily, "rate"),
    "HalfSquare": (HalfSquareFamily, None),
}


def family_to_json(fam: OperatorFamily) -> dict:
    for kind, (cls, param) in _WIRE_FORMS.items():
        if isinstance(fam, cls):
            return {"family": kind} | ({"t": getattr(fam, param)} if param else {})
    raise ValueError(f"family {fam.label} has no wire form")


def _number(value) -> bool:
    """A JSON number; true and false are not numbers, nor is a numeric string."""
    return type(value) is int or type(value) is float


def _finite_parameter(data: dict) -> float:
    value = data["t"]
    if not _number(value):
        raise TypeError(f"family parameter t must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"family parameter must be finite, got {value!r}")
    return value


def family_from_json(data: dict) -> OperatorFamily:
    if not isinstance(data, dict):
        raise TypeError(f"family selector must be a JSON object, got {data!r}")
    kind = data.get("family")
    # a selector that is not a string names no family, hashable or not
    if not isinstance(kind, str) or kind not in _WIRE_FORMS:
        raise ValueError(f"unknown family selector {data!r}")
    cls, param = _WIRE_FORMS[kind]
    return cls(_finite_parameter(data)) if param else cls()


def log_series(f: LatticeElement) -> LatticeElement:
    """Algebra logarithm by the power series -sum_n (e-f)^n / n.

    Requires ||e - f|| <= 1 - LOG_SERIES_RADIUS_MARGIN in the sup norm;
    terms are accumulated until the term norm drops below LOG_SERIES_TOL,
    within LOG_SERIES_MAX_TERMS terms.
    """
    u = 1.0 - f.values
    radius = float(np.max(np.abs(u)))
    bound = 1.0 - LOG_SERIES_RADIUS_MARGIN
    if radius > bound:
        raise RadiusViolationError(
            f"||e - f|| = {radius:g} exceeds the guarded radius {bound:g}"
        )
    power = u.copy()
    total = u.copy()
    n = 1
    while True:
        term_norm = float(np.max(np.abs(power))) / n
        if term_norm < LOG_SERIES_TOL:
            break
        n += 1
        if n > LOG_SERIES_MAX_TERMS:
            raise MaxTermsExceededError(
                f"series did not reach tol {LOG_SERIES_TOL:g} within {LOG_SERIES_MAX_TERMS} terms"
            )
        power = power * u
        total = total + power / n
    return LatticeElement(-total)


def second_derivative_check(
    fam: OperatorFamily,
    f: LatticeElement,
    h_dir: LatticeElement,
    step: float,
) -> float:
    """Sup-norm defect of a central second difference against the analytic
    second derivative acting as multiplication by h^2.

    The step is guarded below 1e-6 where cancellation noise would
    dominate the quotient.
    """
    if step < MIN_FD_STEP:
        raise ValueError(f"step {step:g} below the cancellation guard {MIN_FD_STEP:g}")
    x = f.values
    h = h_dir.values
    for probe in (x + step * h, x, x - step * h):
        fam.check_domain(probe)
    fd = (fam.value(x + step * h) - 2.0 * fam.value(x) + fam.value(x - step * h)) / (step * step)
    analytic = fam.second_derivative(x) * h * h
    return float(np.max(np.abs(fd - analytic)))


def convexity_probe(
    fam: OperatorFamily,
    f: LatticeElement,
    g: LatticeElement,
    lam: float,
) -> Ordering:
    """Verdict of phi(lam*f + (1-lam)*g) against the chord value within
    ``DEFAULT_TOLERANCE``."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    mix = lam * f + (1.0 - lam) * g
    chord = lam * fam.apply(f) + (1.0 - lam) * fam.apply(g)
    return partial_leq(fam.apply(mix), chord)
