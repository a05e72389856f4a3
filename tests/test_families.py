import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgineq import families
from sgineq.families import (
    CustomFamily,
    EntropyFamily,
    ExpFamily,
    ExpOverflowError,
    HalfSquareFamily,
    MaxTermsExceededError,
    NegLogFamily,
    NonPositiveInputError,
    PowerFamily,
    RadiusViolationError,
    convexity_probe,
    exp_member,
    family_from_json,
    family_to_json,
    log_series,
    power_member,
    second_derivative_check,
)
from sgineq.errors import SgineqError
from sgineq.jessen import _members_sides
from sgineq.lattice import LatticeElement, Ordering, lattice_norm


def el(*vals):
    return LatticeElement(list(vals))


class TestPowerBranches:
    def test_quadratic_values(self):
        fam = PowerFamily(2.0)
        out = fam.apply(el(4.0, 1.0))
        assert np.array_equal(out.values, [8.0, 0.5])

    def test_inverse_power(self):
        fam = PowerFamily(-1.0)
        # x^-1 / ((-1)(-2)) = 1/(2x)
        out = fam.apply(el(2.0, 4.0))
        assert np.allclose(out.values, [0.25, 0.125], atol=1e-15)
        assert np.allclose(fam.second_derivative(np.array([2.0])), [0.125], atol=1e-16)

    def test_sqrt_power(self):
        fam = PowerFamily(0.5)
        # x^0.5 / (0.5 * -0.5) = -4 sqrt(x)
        out = fam.apply(el(4.0, 9.0))
        assert np.allclose(out.values, [-8.0, -12.0], atol=1e-12)

    def test_cubic_second_derivative(self):
        fam = PowerFamily(3.0)
        assert np.allclose(fam.second_derivative(np.array([4.0, 1.0])), [4.0, 1.0])

    def test_special_exponents_rejected(self):
        with pytest.raises(ValueError):
            PowerFamily(0.0)
        with pytest.raises(ValueError):
            PowerFamily(1.0)

    def test_domain_gate(self):
        fam = PowerFamily(2.0)
        with pytest.raises(NonPositiveInputError):
            fam.apply(el(1.0, 0.0))
        with pytest.raises(NonPositiveInputError):
            fam.apply(el(1.0, 5e-13))


class TestLogBranches:
    def test_neglog_at_unit(self):
        out = NegLogFamily().apply(el(1.0, 1.0, 1.0))
        assert np.array_equal(out.values, [0.0, 0.0, 0.0])

    def test_neglog_value(self):
        out = NegLogFamily().apply(el(math.e, 1.0))
        assert abs(out.values[0] + 1.0) <= 1e-15

    def test_entropy_frozen(self):
        out = EntropyFamily().apply(el(4.0, 1.0))
        assert abs(out.values[0] - 5.545177444479562) <= 1e-12
        assert out.values[1] == 0.0

    def test_entropy_second_derivative(self):
        assert np.allclose(EntropyFamily().second_derivative(np.array([4.0])), [0.25])

    def test_log_domain_gate(self):
        with pytest.raises(NonPositiveInputError):
            NegLogFamily().apply(el(-1.0, 1.0))
        with pytest.raises(NonPositiveInputError):
            EntropyFamily().apply(el(0.0, 1.0))


class TestExpBranches:
    def test_half_square(self):
        out = HalfSquareFamily().apply(el(-2.0, 3.0))
        assert np.array_equal(out.values, [2.0, 4.5])

    def test_exp_at_zero(self):
        out = ExpFamily(1.0).apply(el(0.0, 0.0))
        assert np.array_equal(out.values, [1.0, 1.0])

    def test_exp_frozen(self):
        out = ExpFamily(2.0).apply(el(0.5, 1.0))
        assert abs(out.values[0] - 0.6795704571147613) <= 1e-15
        assert abs(out.values[1] - 1.8472640247326625) <= 1e-15

    def test_exp_second_derivative_unnormalized(self):
        fam = ExpFamily(-1.0)
        x = np.array([0.0, 1.0])
        assert np.allclose(fam.second_derivative(x), np.exp(-x))

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            ExpFamily(0.0)

    def test_overflow_guard(self):
        fam = ExpFamily(1.0)
        with pytest.raises(ExpOverflowError):
            fam.apply(el(701.0))
        assert np.isfinite(fam.apply(el(699.0)).values).all()
        with pytest.raises(ExpOverflowError):
            ExpFamily(-1.0).apply(el(-701.0))


class TestDispatch:
    def test_power_member(self):
        assert isinstance(power_member(0.0), NegLogFamily)
        assert isinstance(power_member(1.0), EntropyFamily)
        assert isinstance(power_member(2.5), PowerFamily)

    def test_exp_member(self):
        assert isinstance(exp_member(0.0), HalfSquareFamily)
        assert isinstance(exp_member(-1.0), ExpFamily)

    def test_wire_roundtrip(self):
        for fam in [PowerFamily(2.5), NegLogFamily(), EntropyFamily(),
                    ExpFamily(-1.0), HalfSquareFamily()]:
            back = family_from_json(family_to_json(fam))
            assert type(back) is type(fam)
            assert family_to_json(back) == family_to_json(fam)

    def test_unknown_selector(self):
        with pytest.raises((KeyError, ValueError)):
            family_from_json({"family": "Mystery"})

    @pytest.mark.parametrize("data", [{"family": []}, {"family": 3}, {}],
                             ids=["list", "number", "missing"])
    def test_selector_that_names_no_family(self, data):
        # an unhashable selector is unknown too, not a TypeError of the lookup
        with pytest.raises(ValueError, match=r"^unknown family selector"):
            family_from_json(data)


# The parameters whose batched rows are pinned to their member's bits: k/4
# for k = -24..24 (the branches 0 and 1, the float paths of np.power at -1,
# 0.5 and 2, and the integers and quarters around them) and seeded random ones.
_PINNED_PARAMETERS = [k / 4 for k in range(-24, 25)] \
    + np.random.default_rng(2024).uniform(-6.0, 6.0, size=16).tolist()
# Row lengths K of the pinned x: numpy's power loop takes another path at
# some lengths, so the pin spans several.
_PINNED_LENGTHS = (1, 2, 3, 4, 5, 8, 17)


def _pinned_x(k, lo, hi):
    return np.random.default_rng(k).uniform(lo, hi, size=k)


class TestMemberRows:
    """Each row of a ``_MemberColumn``'s ``value`` has the bits of its
    member's ``value`` with a float parameter, and its ``first_off_domain`` is
    the first member whose ``check_domain`` raises. A numpy release that adds a
    float path to np.power (or to np.exp) fails the test of that parameter."""

    @pytest.mark.parametrize("p", _PINNED_PARAMETERS, ids=lambda p: f"p={p:.17g}")
    def test_power_row_has_the_bits_of_its_member(self, p):
        ps = np.array(_PINNED_PARAMETERS)
        i = _PINNED_PARAMETERS.index(p)
        for k in _PINNED_LENGTHS:
            x = _pinned_x(k, 1e-3, 10.0)
            with np.errstate(divide="ignore"):
                row = families._MemberColumn("F", ps).value(x)[i]
            assert row.tobytes() == power_member(p).value(x).tobytes(), (p, k)

    @pytest.mark.parametrize("r", _PINNED_PARAMETERS, ids=lambda r: f"r={r:.17g}")
    def test_exp_row_has_the_bits_of_its_member(self, r):
        rates = np.array(_PINNED_PARAMETERS)
        i = _PINNED_PARAMETERS.index(r)
        for k in _PINNED_LENGTHS:
            x = _pinned_x(k, -5.0, 5.0)
            with np.errstate(divide="ignore"):
                row = families._MemberColumn("H", rates).value(x)[i]
            assert row.tobytes() == exp_member(r).value(x).tobytes(), (r, k)

    def test_off_the_domain_gives_no_rows(self):
        # first_off_domain names the first member whose check_domain raises, and
        # a column's sides raise that member's error
        cases = [("F", [2.5, 0.0, 1.0], [1.0, families.STRICT_POSITIVITY_TOL], [True] * 3),
                 ("F", [2.5, 0.0, 1.0], [1.0, np.nextafter(1e-12, 1.0)], [False] * 3),
                 # 350 * 2 = 700 is at the limit, and the smallest entry decides for a
                 # negative rate
                 ("H", [350.0, -1.0], [2.0, -700.0], [False, False]),
                 ("H", [350.0, -1.0], [2.0, -700.5], [False, True]),
                 ("H", [350.5, 0.0], [2.0, -1.0], [True, False]),
                 ("H", [1.0, 400.0, 500.0], [2.0, 1.0], [False, True, True])]
        for kind, ps, x, want in cases:
            column, x = families._MemberColumn(kind, np.array(ps)), np.array(x)
            assert column.first_off_domain(x) == (want.index(True) if any(want) else None)
            errors = []
            for m in range(len(ps)):
                try:
                    column[m].check_domain(x)
                    errors.append(None)
                except SgineqError as err:
                    errors.append(str(err))
            assert [err is not None for err in errors] == want
            if any(want):
                with pytest.raises(SgineqError) as info:
                    _members_sides(lambda block: block, column, x[None])
                assert str(info.value) == errors[want.index(True)]


class TestLogSeries:
    def test_at_unit(self):
        out = log_series(el(1.0, 1.0))
        assert np.array_equal(out.values, [0.0, 0.0])

    def test_frozen_two_point(self):
        out = log_series(el(0.5, 1.5))
        assert abs(out.values[0] - math.log(0.5)) <= 1e-10
        assert abs(out.values[1] - math.log(1.5)) <= 1e-10

    def test_radius_violation(self):
        with pytest.raises(RadiusViolationError):
            log_series(el(0.05, 1.0))  # ||e - f|| = 0.95

    def test_radius_boundary_inside(self):
        out = log_series(el(0.1, 1.9))  # ||e - f|| = 0.9 exactly
        assert abs(out.values[0] - math.log(0.1)) <= 1e-10

    def test_max_terms(self, monkeypatch):
        monkeypatch.setattr(families, "LOG_SERIES_MAX_TERMS", 3)
        with pytest.raises(MaxTermsExceededError):
            log_series(el(0.2, 1.0))

    def test_random_agreement_and_inverse(self, rng):
        worst_log = 0.0
        worst_exp = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 7))
            u = rng.uniform(-0.9, 0.9, size=n)
            f = el(*(1.0 - u))
            out = log_series(f)
            worst_log = max(worst_log, float(np.max(np.abs(out.values - np.log(f.values)))))
            worst_exp = max(worst_exp, float(np.max(np.abs(np.exp(out.values) - f.values))))
        assert worst_log <= 1e-10
        assert worst_exp <= 1e-9


class TestSecondDerivative:
    def test_quadratic_exact_to_roundoff(self):
        # Truncation error vanishes identically for a quadratic, so only
        # roundoff remains; a not-too-small step keeps that below 1e-9.
        fam = PowerFamily(2.0)
        for f in [el(4.0, 1.0), el(0.3, 2.0, 7.0), el(1.0)]:
            defect = second_derivative_check(fam, f, el(*np.ones(f.dim)), 1e-2)
            assert defect <= 1e-9

    def test_cubic_at_milli_step(self):
        fam = PowerFamily(3.0)
        defect = second_derivative_check(fam, el(4.0, 1.0), el(1.0, 1.0), 1e-3)
        assert defect <= 1e-6

    def test_exp_at_zero(self):
        fam = ExpFamily(1.0)
        defect = second_derivative_check(fam, el(0.0, 0.0), el(1.0, 1.0), 1e-3)
        assert defect <= 1e-6

    def test_quartering_under_halving(self):
        fam = NegLogFamily()
        f = el(0.7, 1.4)
        h = el(1.0, 0.5)
        d1 = second_derivative_check(fam, f, h, 2e-2)
        d2 = second_derivative_check(fam, f, h, 1e-2)
        assert 3.0 <= d1 / d2 <= 5.0

    def test_cancellation_guard(self):
        with pytest.raises(ValueError):
            second_derivative_check(PowerFamily(3.0), el(4.0), el(1.0), 1e-7)

    def test_custom_family_cross_check(self):
        fam = CustomFamily(
            fn=lambda x: np.cosh(x),
            d2=lambda x: np.cosh(x),
            name="cosh",
        )
        defect = second_derivative_check(fam, el(0.3, -0.2), el(1.0, 1.0), 1e-3)
        assert defect <= 1e-6


class TestConvexityProbe:
    def test_endpoints_equal(self):
        f, g = el(4.0, 1.0), el(1.0, 4.0)
        assert convexity_probe(PowerFamily(2.0), f, g, 0.0) is Ordering.EQUAL
        assert convexity_probe(PowerFamily(2.0), f, g, 1.0) is Ordering.EQUAL

    def test_same_argument_equal(self):
        f = el(2.0, 3.0)
        assert convexity_probe(EntropyFamily(), f, f, 0.3) is Ordering.EQUAL

    def test_quadratic_midpoint_oracle(self):
        f, g = el(4.0, 1.0), el(1.0, 4.0)
        verdict = convexity_probe(PowerFamily(2.0), f, g, 0.5)
        assert verdict is Ordering.LEQ
        # mix = (2.5, 2.5); phi(mix) = (3.125, 3.125); chord = (4.25, 4.25)
        mix = PowerFamily(2.0).apply(el(2.5, 2.5))
        assert np.array_equal(mix.values, [3.125, 3.125])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=2, max_size=5),
        st.lists(st.integers(1, 40), min_size=2, max_size=5),
        st.integers(0, 16),
    )
    def test_all_families_convex(self, fraw, graw, lraw):
        n = min(len(fraw), len(graw))
        f = el(*(v / 10.0 for v in fraw[:n]))
        g = el(*(v / 10.0 for v in graw[:n]))
        lam = lraw / 16.0
        for fam in [PowerFamily(-1.0), PowerFamily(0.5), PowerFamily(2.0),
                    PowerFamily(3.0), NegLogFamily(), EntropyFamily(),
                    ExpFamily(1.0), ExpFamily(-1.0), HalfSquareFamily()]:
            verdict = convexity_probe(fam, f, g, lam)
            assert verdict in (Ordering.LEQ, Ordering.EQUAL)

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            convexity_probe(PowerFamily(2.0), el(1.0), el(2.0), 1.5)


def test_apply_matches_value_on_arrays():
    fam = PowerFamily(2.0)
    f = el(1.0, 2.0, 3.0)
    assert np.array_equal(fam.apply(f).values, fam.value(f.values))


def test_custom_family_requires_d2():
    with pytest.raises(TypeError):
        CustomFamily(fn=lambda x: x ** 4)
