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

from dataclasses import dataclass
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
    "LogSeriesConfig",
    "log_series",
    "second_derivative_check",
    "convexity_probe",
    "STRICT_POSITIVITY_TOL",
    "EXP_ARG_LIMIT",
]

STRICT_POSITIVITY_TOL = 1e-12
EXP_ARG_LIMIT = 700.0
MIN_FD_STEP = 1e-6


class NonPositiveInputError(SgineqError):
    """A power-family branch was evaluated off the strictly positive cone."""


class ExpOverflowError(SgineqError):
    """exp(p*x) would leave double range."""


class RadiusViolationError(SgineqError):
    """log series input outside the guarded convergence ball."""


class MaxTermsExceededError(SgineqError):
    """log series did not reach its term tolerance within the budget."""


class OperatorFamily:
    """Convex scalar map with analytic first and second derivatives."""

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


def _require_positive(x: np.ndarray, label: str) -> None:
    x = np.asarray(x)
    low = x.min()
    if low <= STRICT_POSITIVITY_TOL:
        i = int(np.argmin(x))
        raise NonPositiveInputError(
            f"{label} needs strictly positive input, entry {i} = {x[i]:g}"
        )


@dataclass(frozen=True, repr=False)
class PowerFamily(OperatorFamily):
    """x^p / (p(p-1)) on the strictly positive cone, p not in {0, 1}."""

    exponent: float

    def __post_init__(self):
        if self.exponent in (0.0, 1.0):
            raise ValueError("exponent 0 and 1 have dedicated branches")

    @property
    def label(self):
        return f"PowerF({self.exponent:g})"

    def check_domain(self, x):
        _require_positive(x, self.label)

    def value(self, x):
        p = self.exponent
        return np.power(x, p) / (p * (p - 1.0))

    def derivative(self, x):
        p = self.exponent
        return np.power(x, p - 1.0) / (p - 1.0)

    def second_derivative(self, x):
        return np.power(x, self.exponent - 2.0)


@dataclass(frozen=True, repr=False)
class NegLogFamily(OperatorFamily):
    """-log x, the p = 0 branch of the power family."""

    label = "NegLog"

    def check_domain(self, x):
        _require_positive(x, self.label)

    def value(self, x):
        return -np.log(x)

    def derivative(self, x):
        return -1.0 / x

    def second_derivative(self, x):
        return np.power(x, -2.0)


@dataclass(frozen=True, repr=False)
class EntropyFamily(OperatorFamily):
    """x log x, the p = 1 branch of the power family."""

    label = "Entropy"

    def check_domain(self, x):
        _require_positive(x, self.label)

    def value(self, x):
        return x * np.log(x)

    def derivative(self, x):
        return np.log(x) + 1.0

    def second_derivative(self, x):
        return 1.0 / x


@dataclass(frozen=True, repr=False)
class ExpFamily(OperatorFamily):
    """exp(p*x) / p^2 for p != 0, defined on all of the algebra."""

    rate: float

    def __post_init__(self):
        if self.rate == 0.0:
            raise ValueError("rate 0 has the half-square branch")

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
        return np.exp(self.rate * x) / (self.rate * self.rate)

    def derivative(self, x):
        return np.exp(self.rate * x) / self.rate

    def second_derivative(self, x):
        return np.exp(self.rate * x)


@dataclass(frozen=True, repr=False)
class HalfSquareFamily(OperatorFamily):
    """x^2 / 2, the p = 0 branch of the exponential family."""

    label = "HalfSquare"

    def value(self, x):
        return 0.5 * x * x

    def derivative(self, x):
        return np.array(x, dtype=float)

    def second_derivative(self, x):
        return np.ones_like(x)


@dataclass(frozen=True, repr=False)
class CustomFamily(OperatorFamily):
    """User-supplied convex map; the second derivative must be analytic."""

    fn: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "custom"
    domain: Callable[[np.ndarray], None] | None = None

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


def family_to_json(fam: OperatorFamily) -> dict:
    if isinstance(fam, PowerFamily):
        return {"family": "PowerF", "t": fam.exponent}
    if isinstance(fam, NegLogFamily):
        return {"family": "NegLog"}
    if isinstance(fam, EntropyFamily):
        return {"family": "Entropy"}
    if isinstance(fam, ExpFamily):
        return {"family": "ExpH", "t": fam.rate}
    if isinstance(fam, HalfSquareFamily):
        return {"family": "HalfSquare"}
    raise ValueError(f"family {fam.label} has no wire form")


def _finite_parameter(data: dict) -> float:
    value = float(data["t"])
    if not np.isfinite(value):
        raise ValueError(f"family parameter must be finite, got {value!r}")
    return value


def family_from_json(data: dict) -> OperatorFamily:
    if not isinstance(data, dict):
        raise TypeError(f"family selector must be a JSON object, got {data!r}")
    kind = data.get("family")
    if kind == "PowerF":
        return PowerFamily(_finite_parameter(data))
    if kind == "NegLog":
        return NegLogFamily()
    if kind == "Entropy":
        return EntropyFamily()
    if kind == "ExpH":
        return ExpFamily(_finite_parameter(data))
    if kind == "HalfSquare":
        return HalfSquareFamily()
    raise ValueError(f"unknown family selector {data!r}")


@dataclass(frozen=True)
class LogSeriesConfig:
    tol: float = 1e-14
    max_terms: int = 10 ** 6
    radius_margin: float = 0.1


def log_series(f: LatticeElement, cfg: LogSeriesConfig = LogSeriesConfig()) -> LatticeElement:
    """Algebra logarithm by the power series -sum_n (e-f)^n / n.

    Requires ||e - f|| <= 1 - radius_margin in the sup norm; terms are
    accumulated until the term norm drops below ``cfg.tol``.
    """
    u = 1.0 - f.values
    radius = float(np.max(np.abs(u)))
    bound = 1.0 - cfg.radius_margin
    if radius > bound:
        raise RadiusViolationError(
            f"||e - f|| = {radius:g} exceeds the guarded radius {bound:g}"
        )
    power = u.copy()
    total = u.copy()
    n = 1
    while True:
        term_norm = float(np.max(np.abs(power))) / n
        if term_norm < cfg.tol:
            break
        n += 1
        if n > cfg.max_terms:
            raise MaxTermsExceededError(
                f"series did not reach tol {cfg.tol:g} within {cfg.max_terms} terms"
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
