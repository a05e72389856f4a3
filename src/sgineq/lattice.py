"""Componentwise vector lattice algebra over a finite index set.

Elements are real vectors ordered entry by entry and multiplied
pointwise; the all-ones vector is the multiplicative unit and the
supremum norm is the lattice norm, so ``|f| <= |g|`` entrywise implies
``norm(f) <= norm(g)`` and ``norm(f*g) <= norm(f)*norm(g)``.
Order comparisons return one of four verdicts, with a tolerance band
``eps = atol + rtol * max(norm(f), norm(g))`` around equality.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import SgineqError

__all__ = [
    "DimensionMismatchError",
    "Ordering",
    "OrderTolerance",
    "DEFAULT_TOLERANCE",
    "LatticeElement",
    "join",
    "meet",
    "abs_val",
    "pos_part",
    "neg_part",
    "lattice_norm",
    "multiply",
    "partial_leq",
    "order_verdict",
    "leq_rows",
]


class DimensionMismatchError(SgineqError):
    """Two elements do not live over the same coordinate set."""


class Ordering(Enum):
    """Verdict of a componentwise order comparison."""

    LEQ = "LEQ"
    GEQ = "GEQ"
    EQUAL = "EQUAL"
    INCOMPARABLE = "INCOMPARABLE"


class OrderTolerance:
    """Tolerance band for order verdicts."""

    __slots__ = ("atol", "rtol")

    def __init__(self, atol: float, rtol: float):
        if atol < 0 or rtol < 0:
            raise ValueError("tolerances must be nonnegative")
        self.atol, self.rtol = atol, rtol

    def margin(self, f: np.ndarray, g: np.ndarray):
        """Band eps for each row (last axis) of two value arrays of one shape."""
        return self.atol + self.rtol * np.maximum(
            np.abs(f).max(axis=-1), np.abs(g).max(axis=-1)
        )


DEFAULT_TOLERANCE = OrderTolerance(atol=1e-9, rtol=1e-12)


def _as_values(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("lattice elements are one dimensional")
    if arr.size == 0:
        raise ValueError("lattice elements need at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise ValueError("lattice elements must have finite entries")
    arr.setflags(write=False)
    return arr


class LatticeElement:
    """Immutable real vector; arithmetic is componentwise."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = _as_values(values)

    @property
    def dim(self) -> int:
        return self.values.size

    def __add__(self, other):
        _check_same(self, other)
        return LatticeElement(self.values + other.values)

    def __sub__(self, other):
        _check_same(self, other)
        return LatticeElement(self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, LatticeElement):
            return multiply(self, other)
        return LatticeElement(self.values * float(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"LatticeElement({self.values.tolist()})"


def _check_same(f: LatticeElement, g: LatticeElement) -> None:
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dims differ: {f.dim} vs {g.dim}")


def join(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    """Componentwise supremum."""
    _check_same(f, g)
    return LatticeElement(np.maximum(f.values, g.values))


def meet(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    """Componentwise infimum."""
    _check_same(f, g)
    return LatticeElement(np.minimum(f.values, g.values))


def abs_val(f: LatticeElement) -> LatticeElement:
    """Lattice absolute value sup(f, -f)."""
    return LatticeElement(np.abs(f.values))


def pos_part(f: LatticeElement) -> LatticeElement:
    """Positive part sup(f, 0)."""
    return LatticeElement(np.maximum(f.values, 0.0))


def neg_part(f: LatticeElement) -> LatticeElement:
    """Negative part sup(-f, 0); f = pos_part(f) - neg_part(f)."""
    return LatticeElement(np.maximum(-f.values, 0.0))


def lattice_norm(f: LatticeElement) -> float:
    """Supremum norm, the lattice norm of the algebra."""
    return float(np.max(np.abs(f.values)))


def multiply(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    """Pointwise product; the algebra's unit is the all-ones vector."""
    _check_same(f, g)
    return LatticeElement(f.values * g.values)


def partial_leq(
    f: LatticeElement,
    g: LatticeElement,
    tol: OrderTolerance = DEFAULT_TOLERANCE,
) -> Ordering:
    """Order verdict of f against g in the componentwise order.

    LEQ means f <= g up to the tolerance band, GEQ the reverse, EQUAL
    both at once, INCOMPARABLE a strict violation in both directions.
    """
    _check_same(f, g)
    return order_verdict(f.values, g.values, tol)


def order_verdict(
    f: np.ndarray, g: np.ndarray, tol: OrderTolerance = DEFAULT_TOLERANCE
) -> Ordering:
    """The verdict of ``partial_leq`` on two value arrays of one shape; one band and one
    difference give both halves, as ``margin`` is symmetric and f - g = -(g - f) exactly."""
    eps = tol.margin(f, g)
    diff = g - f
    leq = bool(diff.min(axis=-1) >= -eps)
    geq = bool(diff.max(axis=-1) <= eps)
    if leq and geq:
        return Ordering.EQUAL
    if leq:
        return Ordering.LEQ
    if geq:
        return Ordering.GEQ
    return Ordering.INCOMPARABLE


def leq_rows(f: np.ndarray, g: np.ndarray, tol: OrderTolerance = DEFAULT_TOLERANCE):
    """f <= g up to the tolerance band, row by row over the last axis.

    For one row this is the LEQ half of ``partial_leq``: True exactly
    when the verdict is LEQ or EQUAL.
    """
    return (g - f).min(axis=-1) >= -tol.margin(f, g)

