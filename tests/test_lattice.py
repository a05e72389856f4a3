import numpy as np
import pytest
from hypothesis import given, strategies as st

from sgineq.lattice import (
    DEFAULT_TOLERANCE,
    DimensionMismatchError,
    LatticeElement,
    Ordering,
    OrderTolerance,
    abs_val,
    join,
    lattice_norm,
    leq_rows,
    meet,
    multiply,
    neg_part,
    order_verdict,
    partial_leq,
    pos_part,
)


def el(*vals):
    return LatticeElement(list(vals))


def same(f, expect):
    assert np.array_equal(f.values, np.array(expect, dtype=float))


class TestBasicOps:
    def test_join(self):
        same(join(el(1, -2), el(0, 3)), [1, 3])

    def test_join_idempotent(self):
        f = el(2.5, -1.0, 0.0)
        same(join(f, f), [2.5, -1.0, 0.0])

    def test_join_against_zero_is_positive_part(self):
        same(join(el(-1, 0, 2), el(0, 0, 0)), [0, 0, 2])

    def test_meet(self):
        same(meet(el(1, -2), el(0, 3)), [0, -2])

    def test_meet_join_sum_identity(self):
        f, g = el(1, -2), el(0, 3)
        same(meet(f, g) + join(f, g), (f + g).values)

    def test_abs(self):
        same(abs_val(el(-2, 3)), [2, 3])

    def test_parts(self):
        same(pos_part(el(-2, 3)), [0, 3])
        same(neg_part(el(-2, 3)), [2, 0])

    def test_decomposition(self):
        f = el(-2, 3)
        same(pos_part(f) - neg_part(f), [-2, 3])

    def test_norm(self):
        assert lattice_norm(el(-2, 3)) == 3.0

    def test_unit_norm(self):
        assert lattice_norm(LatticeElement(np.ones(4))) == 1.0

    def test_norm_submultiplicative_example(self):
        f, g = el(1, 2), el(3, -1)
        assert lattice_norm(multiply(f, g)) <= lattice_norm(f) * lattice_norm(g) == 6.0

    def test_multiply(self):
        same(multiply(el(1, 2), el(3, 4)), [3, 8])

    def test_unit_law(self):
        f = el(7.0, -3.5)
        same(multiply(LatticeElement(np.ones(2)), f), [7.0, -3.5])

    def test_zero_divisors(self):
        same(multiply(el(1, 0), el(0, 1)), [0, 0])


class TestOrderVerdicts:
    def test_leq(self):
        assert partial_leq(el(0, 1), el(1, 2)) is Ordering.LEQ

    def test_incomparable(self):
        assert partial_leq(el(0, 2), el(1, 1)) is Ordering.INCOMPARABLE

    def test_equal_within_tolerance(self):
        f = el(1.0, 2.0)
        g = LatticeElement(f.values + 1e-13)
        assert partial_leq(f, g) is Ordering.EQUAL

    def test_geq(self):
        assert partial_leq(el(5, 5), el(1, 2)) is Ordering.GEQ

    def test_strict_leq_not_equal(self):
        assert partial_leq(el(0, 0), el(1, 1)) is Ordering.LEQ

    def test_tolerance_margin_scales_with_norm(self):
        tol = OrderTolerance(atol=0.0, rtol=1e-6)
        f = el(1e6, 1e6)
        g = LatticeElement(f.values + 0.5)
        # eps = 1e-6 * (1e6 + 0.5) > 0.5, so the gap drowns
        assert partial_leq(f, g, tol) is Ordering.EQUAL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_leq(el(1, 2), el(1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            join(el(1), el(1, 2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LatticeElement([1.0, float("nan")])
        with pytest.raises(ValueError):
            LatticeElement([float("inf"), 0.0])

    @pytest.mark.parametrize("make,message", [
        (lambda: OrderTolerance(-1, 0), "tolerances must be nonnegative"),
        (lambda: LatticeElement([[1.0]]), "lattice elements are one dimensional"),
        (lambda: LatticeElement([]), "lattice elements need at least one coordinate"),
    ], ids=["negative_tolerance", "matrix_element", "empty_element"])
    def test_malformed_input_rejected(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


# Dyadic rationals keep max/min/add/sub/abs exact and stay outside the
# default tolerance gray zone unless two entries coincide exactly.
def _dyadic_pair():
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-64, 64), min_size=n, max_size=n),
            st.lists(st.integers(-64, 64), min_size=n, max_size=n),
        )
    ).map(lambda fg: (
        LatticeElement(np.array(fg[0]) / 8.0),
        LatticeElement(np.array(fg[1]) / 8.0),
    ))


@given(_dyadic_pair())
def test_absorption_laws(fg):
    f, g = fg
    same(join(f, meet(f, g)), f.values)
    same(meet(f, join(f, g)), f.values)


@given(_dyadic_pair())
def test_meet_leq_join(fg):
    f, g = fg
    assert np.all(meet(f, g).values <= f.values)
    assert np.all(f.values <= join(f, g).values)


@given(_dyadic_pair())
def test_decomposition_exact(fg):
    f, _ = fg
    same(pos_part(f) - neg_part(f), f.values)
    same(pos_part(f) + neg_part(f), abs_val(f).values)


@given(_dyadic_pair())
def test_norm_compatibility(fg):
    f, g = fg
    if np.all(abs_val(f).values <= abs_val(g).values):
        assert lattice_norm(f) <= lattice_norm(g)
    # shrinking g entrywise always produces a comparable pair
    h = LatticeElement(g.values / 2.0)
    assert lattice_norm(h) <= lattice_norm(g)


@given(_dyadic_pair())
def test_positive_cone_closed_under_multiply(fg):
    f, g = fg
    prod = multiply(abs_val(f), abs_val(g))
    assert np.all(prod.values >= 0.0)


@given(_dyadic_pair())
def test_norm_submultiplicative(fg):
    f, g = fg
    assert lattice_norm(multiply(f, g)) <= lattice_norm(f) * lattice_norm(g) + 1e-15


@given(_dyadic_pair(), st.lists(st.integers(-64, 64), min_size=6, max_size=6))
def test_translation_invariance(fg, hraw):
    f, g = fg
    h = LatticeElement(np.array(hraw[: f.values.size]) / 8.0)
    before = partial_leq(f, g)
    after = partial_leq(f + h, g + h)
    assert before is after


def test_leq_rows_band_per_row():
    tol = OrderTolerance(atol=0.25, rtol=0.25)
    f = np.array([[1.0, 0.0], [1.0, 0.0], [10.0, 0.0], [10.0, 0.0], [0.0, 0.0]])
    g = np.array([[0.5, 0.0], [0.49, 0.0], [7.75, 0.0], [7.2, 0.0], [0.0, -0.25]])
    # eps = 0.25 + 0.25 * max(|f|, |g|) per row: 0.5, 0.5, 2.75, 2.75, 0.3125
    assert leq_rows(f, g, tol).tolist() == [True, False, True, False, True]
    assert tol.margin(f, g).tolist() == [0.5, 0.5, 2.75, 2.75, 0.3125]


def test_leq_rows_is_the_leq_half_of_partial_leq():
    rng = np.random.default_rng(3)
    tol = OrderTolerance(atol=1e-3, rtol=1e-3)
    f = rng.uniform(-1.0, 1.0, size=(200, 4))
    g = f + rng.uniform(-0.01, 0.05, size=(200, 4)) * (rng.uniform(size=(200, 1)) < 0.8)
    rows = leq_rows(f, g, tol)
    assert rows.shape == (200,) and rows.any() and not rows.all()
    for fr, gr, got in zip(f, g, rows):
        verdict = partial_leq(LatticeElement(fr), LatticeElement(gr), tol)
        assert bool(got) == (verdict in (Ordering.LEQ, Ordering.EQUAL))
        assert bool(leq_rows(gr, fr, tol)) == (verdict in (Ordering.GEQ, Ordering.EQUAL))


def _two_sided_verdict(f, g, tol):
    """The verdict from one ``leq_rows`` call each way."""
    leq, geq = bool(leq_rows(f, g, tol)), bool(leq_rows(g, f, tol))
    return {(True, True): Ordering.EQUAL, (True, False): Ordering.LEQ,
            (False, True): Ordering.GEQ, (False, False): Ordering.INCOMPARABLE}[leq, geq]


def test_order_verdict_matches_two_sided_leq_rows():
    tol = OrderTolerance(atol=0.25, rtol=0.0)
    above, below = np.nextafter(0.25, 1.0), np.nextafter(0.25, 0.0)
    cases = [
        ([0.0, 1.0], [0.0, 1.0], Ordering.EQUAL),
        ([0.0, 1.0], [1.0, 1.0], Ordering.LEQ),
        ([1.0, 1.0], [0.0, 1.0], Ordering.GEQ),
        ([0.0, 1.0], [1.0, 0.0], Ordering.INCOMPARABLE),
        # ties exactly at +eps and -eps stay inside the band, one ulp more does not
        ([0.0, 1.0], [0.25, 1.0], Ordering.EQUAL),
        ([0.25, 1.0], [0.0, 1.0], Ordering.EQUAL),
        ([0.0, 1.0], [0.25, 0.75], Ordering.EQUAL),
        ([0.0, 1.0], [above, 1.0], Ordering.LEQ),
        ([above, 1.0], [0.0, 1.0], Ordering.GEQ),
        ([0.0, 0.5], [0.25, 0.5 - above], Ordering.GEQ),
        ([0.0, 0.0], [-0.25, above], Ordering.LEQ),
        # NaN in a row, in the band or in the difference: no half holds
        ([np.nan, 1.0], [0.0, 1.0], Ordering.INCOMPARABLE),
        ([0.0, 1.0], [0.0, np.nan], Ordering.INCOMPARABLE),
        ([np.inf, 1.0], [np.inf, 1.0], Ordering.INCOMPARABLE),
        ([np.inf, 1.0], [0.0, 1.0], Ordering.INCOMPARABLE),  # eps = 0.25 + 0 * inf
    ]
    for f, g, want in cases:
        f, g = np.array(f), np.array(g)
        with np.errstate(invalid="ignore"):
            assert order_verdict(f, g, tol) is want, (f, g)
            assert _two_sided_verdict(f, g, tol) is want, (f, g)
            # one row as a 2-D input gets the same verdict
            assert order_verdict(f[None, :], g[None, :], tol) is want

    # a relative band: eps = 0.5 * max(|f|, |g|) = 1.0, tied at both signs
    rel = OrderTolerance(atol=0.0, rtol=0.5)
    assert order_verdict(np.array([2.0, 0.0]), np.array([1.0, 1.0]), rel) is Ordering.EQUAL

    # several rows at once have no single verdict, in either form
    with pytest.raises(ValueError):
        order_verdict(np.zeros((3, 2)), np.ones((3, 2)), tol)
    with pytest.raises(ValueError):
        _two_sided_verdict(np.zeros((3, 2)), np.ones((3, 2)), tol)


def test_order_verdict_matches_two_sided_leq_rows_on_random_ties():
    rng = np.random.default_rng(11)
    grid = np.array([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, np.nan, np.inf, -np.inf])
    tols = [OrderTolerance(0.25, 0.0), OrderTolerance(0.0, 0.25), OrderTolerance(0.125, 0.125),
            OrderTolerance(0.0, 0.0)]
    seen = set()
    for _ in range(3000):
        k = int(rng.integers(1, 5))
        p = [0.85] + [0.15 / (grid.size - 1)] * (grid.size - 1)
        f = rng.choice(grid[:7], size=k)
        g = f + rng.choice(grid, size=k, p=np.roll(p, 3))
        tol = tols[int(rng.integers(0, len(tols)))]
        if k > 1 and rng.uniform() < 0.5:
            f, g = f[None, :], g[None, :]
        with np.errstate(invalid="ignore"):
            got, want = order_verdict(f, g, tol), _two_sided_verdict(f, g, tol)
        assert got is want, (f, g, tol)
        seen.add(got)
    assert seen == set(Ordering)


@given(_dyadic_pair())
def test_modulus_triangle(fg):
    f, g = fg
    lhs = abs_val(f + g).values
    rhs = (abs_val(f) + abs_val(g)).values
    assert np.all(lhs <= rhs)


def test_element_values_read_only():
    f = el(1.0, 2.0)
    with pytest.raises(ValueError):
        f.values[0] = 9.0
