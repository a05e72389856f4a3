import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgineq.expconv import build_gram
from sgineq.families import (
    CustomFamily,
    EntropyFamily,
    ExpFamily,
    HalfSquareFamily,
    NegLogFamily,
    NonPositiveInputError,
    PowerFamily,
    power_member,
)
from sgineq.jessen import (
    DualVector,
    _adjoint_rows,
    _members_sides,
    NonFiniteSideError,
    NonPositiveDualError,
    NotNormalizedError,
    dual_convexity_report,
    jessen_report,
    support_line_check,
    verify_adjoint_pairing,
    verify_jessen,
)
from sgineq.lattice import DEFAULT_TOLERANCE, LatticeElement, Ordering, OrderTolerance, leq_rows
from sgineq.semigroup import _stack_act, act, evolve, validate_generator
from sgineq import jessen, suites
from sgineq.suites import (
    benchmark_families,
    random_conservative_generator,
    random_domain_element,
    random_positive_generator,
)

from oracles import BENCH_Q, jessen_residual_2state, single_row_adjoint


def el(*vals):
    return LatticeElement(list(vals))


IDENTITY = CustomFamily(fn=lambda x: np.array(x, dtype=float),
                        d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                        name="identity")


class TestVerifyJessen:
    def test_t_zero_exact(self, bench_gen, bench_f):
        rep = verify_jessen(bench_gen, PowerFamily(2.0), bench_f, 0.0)
        assert np.array_equal(rep.residual.values, [0.0, 0.0])
        assert rep.verdict is Ordering.EQUAL
        assert rep.min_slack == 0.0

    def test_stationary_limit(self, bench_gen, bench_f):
        rep = verify_jessen(bench_gen, PowerFamily(2.0), bench_f, 10.0)
        assert np.allclose(rep.residual.values, [1.125, 1.125], atol=1e-8)
        assert rep.verdict is Ordering.LEQ

    def test_frozen_t1_slack(self, bench_gen, bench_f):
        rep = verify_jessen(bench_gen, PowerFamily(2.0), bench_f, 1.0)
        assert abs(rep.min_slack - 1.1043949062501732) <= 1e-9

    def test_closed_form_residual(self, bench_gen, bench_f):
        for t in [0.1, 0.7, 1.0, 3.0]:
            rep = verify_jessen(bench_gen, PowerFamily(2.0), bench_f, t)
            want = jessen_residual_2state(t, np.array([4.0, 1.0]),
                                          lambda x: x ** 2 / 2.0)
            assert np.allclose(rep.residual.values, want, atol=1e-12)

    def test_linear_family_equality(self, bench_gen, bench_f):
        for t in [0.0, 0.5, 2.0, 10.0]:
            rep = verify_jessen(bench_gen, IDENTITY, bench_f, t)
            assert rep.verdict is Ordering.EQUAL
            assert abs(rep.min_slack) <= 1e-12

    def test_constant_multiple_of_unit(self, bench_gen):
        rep = verify_jessen(bench_gen, EntropyFamily(), el(3.0, 3.0), 1.0)
        assert rep.verdict is Ordering.EQUAL

    def test_report_echo(self, bench_gen, bench_f):
        rep = verify_jessen(bench_gen, PowerFamily(2.0), bench_f, 1.0)
        assert rep.t == 1.0
        assert rep.generator == "benchmark2"
        assert "2" in rep.family

    def test_json_keys_are_the_report_fields(self, bench_gen, bench_f):
        rep = verify_jessen(bench_gen, PowerFamily(2.0), bench_f, 1.0)
        doc = rep.to_json()
        assert set(doc) == set(rep._fields)
        assert doc["verdict"] == "LEQ" and doc["residual"] == rep.residual.values.tolist()

    def test_non_conservative_rejected(self, bench_f):
        drift = validate_generator([[0.0, 1.0], [0.0, 0.0]], name="drift")
        with pytest.raises(NotNormalizedError):
            verify_jessen(drift, PowerFamily(2.0), bench_f, 1.0)

    def test_negative_control_override(self):
        # Upper-triangular positive generator: Z(t) = [[1, t],[0, 1]] has row
        # sums 1+t and 1, so the averaging step behind the inequality fails.
        drift = validate_generator([[0.0, 1.0], [0.0, 0.0]], name="drift")
        rep = verify_jessen(drift, PowerFamily(2.0), el(1.0, 1.0), 1.0,
                            allow_unnormalized=True)
        # Z(1)f = (2,1), phi(Z f) = (2, 0.5), Z(1) phi(f) = (1, 0.5)
        assert np.allclose(rep.residual.values, [-1.0, 0.0], atol=1e-12)
        assert rep.verdict is Ordering.GEQ
        assert abs(rep.min_slack + 1.0) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 20))
    def test_two_state_slack_nonnegative(self, a, b, traw):
        gen = validate_generator(BENCH_Q, name="benchmark2")
        f = el(a / 4.0, b / 4.0)
        rep = verify_jessen(gen, PowerFamily(2.0), f, traw / 2.0)
        assert rep.min_slack >= -1e-9 * (1.0 + abs(rep.min_slack))


class TestPassRule:
    """``JessenReport.passed`` (the random suite's rule) and the rule that
    ``run_config_verification`` applies to its rows are one rule, with the floor
    -1e-9 * (1 + ||residual||)."""

    def test_report_and_rows_follow_the_written_out_rule(self):
        rng = np.random.default_rng(47)
        fam, gen = HalfSquareFamily(), validate_generator(BENCH_Q)
        # per entry: equal sides, a gap inside the band, one past the floor or the band
        gaps = [0.0, 1e-10, -1e-10, 2e-9, -2e-9, -5e-9, 1e-3, -1e-3]
        for tol in (DEFAULT_TOLERANCE, OrderTolerance(atol=1e-6, rtol=0.0)):
            phi_zf = rng.uniform(-2.0, 2.0, size=(400, 3))
            z_phi_f = phi_zf + rng.choice(gaps, size=phi_zf.shape)
            rows = jessen._jessen_passed(leq_rows(phi_zf, z_phi_f, tol), z_phi_f - phi_zf)
            reports = [jessen_report(a, b, tol, 1.0, fam, gen) for a, b in zip(phi_zf, z_phi_f)]
            want = [rep.verdict in (Ordering.LEQ, Ordering.EQUAL)
                    and rep.min_slack >= -1e-9 * (1.0 + float(np.max(np.abs(rep.residual.values))))
                    for rep in reports]
            assert [rep.passed for rep in reports] == rows.tolist() == want
            # every verdict occurs, and rows pass and fail by either half of the rule
            assert {rep.verdict for rep in reports} == set(Ordering)
            assert 0 < sum(want) < len(want)

    def test_random_suite_keeps_the_cases_that_fail_the_rule(self, monkeypatch):
        # a floor above every slack fails every case, through JessenReport.passed
        monkeypatch.setattr(jessen, "_slack_floor", lambda residual: np.inf)
        result = suites.run_jessen_random_suite(5, seed=3)
        assert result.failures == len(result.cases) == 5
        assert all(case["ok"] is False for case in result.cases)


def random_evolved(k, seed, t=0.7):
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 1.0, size=(k, k))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return evolve(validate_generator(q), t)


IDENTITY_ACTION = partial(_stack_act, np.eye(2)[None])


def one_matrix_sides(z, fam, block):
    """phi(Z f) and Z phi(f) for every row f of an (S, K) block: ``_members_sides``
    of the one member ``fam`` on the (1, 1, S, K) block, through the one matrix z."""
    phi_zf, _, z_phi_f = _members_sides(partial(_stack_act, z[None]), [fam], block[None, None])
    return phi_zf[0, 0], z_phi_f[0, 0]


class TestJessenSides:
    @pytest.mark.parametrize("k", [2, 3, 8, 64])
    def test_block_rows_match_single_products_bitwise(self, k):
        op = random_evolved(k, seed=k)
        z = op.matrix
        rng = np.random.default_rng(100 + k)
        for fam, low, high in [(PowerFamily(-1.0), 0.2, 3.0), (NegLogFamily(), 0.2, 3.0),
                               (ExpFamily(1.0), -2.0, 2.0), (HalfSquareFamily(), -2.0, 2.0)]:
            block = rng.uniform(low, high, size=(17, k))
            phi_zf, z_phi_f = one_matrix_sides(z, fam, block)
            assert phi_zf.shape == z_phi_f.shape == (17, k)
            assert np.array_equal(phi_zf, np.array([fam.value(z @ f) for f in block]))
            assert np.array_equal(z_phi_f, np.array([z @ fam.value(f) for f in block]))

    def test_single_row_is_verify_jessen_residual(self, bench_gen, bench_f):
        # verify_jessen applies Z(t) through semigroup.act, never forming it
        rep = verify_jessen(bench_gen, PowerFamily(3.0), bench_f, 1.0)
        phi_zf, _, z_phi_f = _members_sides(partial(act, bench_gen, 1.0), [PowerFamily(3.0)],
                                            bench_f.values[None, :])
        assert np.array_equal(z_phi_f[0] - phi_zf[0], rep.residual.values)

    def test_domain_error_names_row_major_entry(self):
        block = np.full((3, 2), 1.5)
        block[2, 1] = 0.0
        with pytest.raises(NonPositiveInputError, match=r"entry 5 = 0"):
            _members_sides(IDENTITY_ACTION, [EntropyFamily()], block[None, None])

    def test_family_callables_see_vectors(self, bench_gen, bench_f):
        seen = []

        def vector_only(x):
            seen.append(x.ndim)
            return np.array([v * v / 2.0 for v in x])

        def positive_entries(x):
            seen.append(x.ndim)
            for v in x:
                if v <= 0.0:
                    raise ValueError("positive input only")

        fam = CustomFamily(fn=vector_only, d2=np.ones_like, domain=positive_entries)
        op = evolve(bench_gen, 1.0)
        block = np.random.default_rng(5).uniform(0.2, 3.0, size=(4, 2))
        phi_zf, z_phi_f = one_matrix_sides(op.matrix, fam, block)
        want = one_matrix_sides(op.matrix, HalfSquareFamily(), block)
        assert np.allclose(phi_zf, want[0], rtol=1e-15) and np.allclose(z_phi_f, want[1], rtol=1e-15)
        assert verify_jessen(bench_gen, fam, bench_f, 1.0).verdict in (Ordering.LEQ, Ordering.EQUAL)
        assert set(seen) == {1}

    def test_non_finite_side_rejected(self, bench_gen):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            _members_sides(IDENTITY_ACTION, [PowerFamily(1000.0)], np.full((1, 1, 1, 2), 3.0))
        # phi(f) overflows before Z(t) is applied; the error names the family
        with pytest.raises(NonFiniteSideError, match=r"PowerF\(1000\)"):
            verify_jessen(bench_gen, PowerFamily(1000.0), el(3.0, 0.5), 1.0)

    def test_division_by_zero_is_a_non_finite_side(self, bench_gen, bench_f):
        # ExpH(1e-300) divides by rate^2, which underflows to 0: no warning
        # escapes, even as an error, and the error names the family
        with pytest.raises(NonFiniteSideError, match=r"ExpH\(1e-300\)"):
            verify_jessen(bench_gen, ExpFamily(1e-300), bench_f, 1.0)

    def test_verify_jessen_agrees_with_matrix_route(self):
        # verify_jessen applies Z(t) with semigroup.act; the suites use the
        # evolved matrix. Both routes sum the same series in another order.
        rng = np.random.default_rng(20261018)
        families = benchmark_families()
        cases = [(random_conservative_generator(rng), True) for _ in range(500)]
        cases += [(random_positive_generator(rng, max_norm=2.0), False) for _ in range(20)]
        for gen, conservative in cases:
            fam = families[int(rng.integers(0, len(families)))]
            t = float(rng.choice([0.1, 1.0, 10.0] if conservative else [0.5, 1.5]))
            f = random_domain_element(rng, gen.dim, suites._family_domain_kind(fam))
            rep = verify_jessen(gen, fam, f, t, allow_unnormalized=not conservative)
            phi_zf, z_phi_f = one_matrix_sides(evolve(gen, t).matrix, fam, f.values[None, :])
            want = jessen_report(phi_zf[0], z_phi_f[0], DEFAULT_TOLERANCE, t, fam, gen)
            r = want.residual.values
            assert rep.verdict is want.verdict
            assert np.max(np.abs(rep.residual.values - r)) <= 1e-13 * (1.0 + np.max(np.abs(r)))

    def test_adjoint_pairing_matches_verify(self, bench_gen, bench_f):
        fstar = DualVector([0.25, 0.75])
        want = verify_adjoint_pairing(bench_gen, ExpFamily(-1.0), fstar, bench_f, 2.0)
        got = _adjoint_rows(evolve(bench_gen, 2.0).matrix[None], [ExpFamily(-1.0)],
                            fstar.values[None, None, None], bench_f.values[None, None, None])[0]
        assert got == want


def bits(values):
    return [repr(float(v)) for v in values]


class TestRowKernels:
    """The stacked kernels of the verify driver keep the bits of one row alone."""

    def random_groups(self, rng):
        gen = random_conservative_generator(rng, max_dim=9, min_dim=1)
        ts = rng.choice([0.0, 0.1, 0.5, 1.0, 10.0], size=int(rng.integers(1, 5)))
        return gen, [evolve(gen, float(t)) for t in ts]

    def test_stack_act_matches_plain_products_per_row(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            gen, ops = self.random_groups(rng)
            mats = np.stack([op.matrix for op in ops])
            members, rows = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            block = rng.uniform(-3.0, 3.0, size=(members, len(ops), rows, gen.dim))
            got = _stack_act(mats, block)
            # row (m, g, s) goes through the matrix of its group g
            want = [mats[g] @ block[m, g, s] for m, g, s in np.ndindex(block.shape[:3])]
            assert got.shape == block.shape
            assert bits(got.ravel()) == bits(np.concatenate(want))
            flat = block.reshape(-1, gen.dim)
            assert bits(_stack_act(mats[:1], flat[None]).ravel()) == bits(np.concatenate(
                [ops[0].matrix @ f for f in flat]))

    def test_stack_act_takes_an_empty_block(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            gen, ops = self.random_groups(rng)
            mats, empty = np.stack([op.matrix for op in ops]), np.empty((0, gen.dim))
            # no rows per group, no members, or neither
            for shape in ((2, len(ops), 0, gen.dim), (0, len(ops), 3, gen.dim),
                          (0, len(ops), 0, gen.dim)):
                assert _stack_act(mats, np.empty(shape)).shape == shape
            assert _stack_act(mats[:1], empty[None])[0].shape == (0, gen.dim)

    def test_adjoint_rows_match_single_rows(self):
        rng = np.random.default_rng(32)
        families = benchmark_families()
        for _ in range(200):
            gen, ops = self.random_groups(rng)
            fam = families[int(rng.integers(0, len(families)))]
            kind = suites._family_domain_kind(fam)
            F = np.stack([random_domain_element(rng, gen.dim, kind).values for _ in ops])
            raw = rng.uniform(0.0, 1.0, size=F.shape)
            duals = raw / raw.sum(axis=1, keepdims=True)
            # one member, one row per group
            reps = _adjoint_rows(np.stack([op.matrix for op in ops]), [fam],
                                 duals[None, :, None], F[None, :, None])
            for op, rep, fstar, f in zip(ops, reps, duals, F):
                single = verify_adjoint_pairing(gen, fam, DualVector(fstar), LatticeElement(f), op.t)
                want = single_row_adjoint(op.matrix, fam.value, fstar, f)
                assert bits(rep) == bits(single) == bits(want)
                assert rep[4:] == want[4:]

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_adjoint_rows_take_the_transpose_product_from_the_row_kernel(self, monkeypatch, dim):
        # Z^T f* is one _stack_act call on the transposed stack, whose rows
        # carry the bits of the plain stacked product
        calls = []

        def spy(mats, F):
            calls.append((mats, F, _stack_act(mats, F)))
            return calls[-1][-1]

        monkeypatch.setattr(jessen, "_stack_act", spy)
        rng = np.random.default_rng(40 + dim)
        for _ in range(20):
            gen = random_conservative_generator(rng, max_dim=dim, min_dim=dim)
            ts = rng.choice([0.0, 0.1, 0.5, 1.0, 10.0], size=int(rng.integers(1, 6)))
            mats = np.stack([evolve(gen, float(t)).matrix for t in ts])
            raw = rng.uniform(0.0, 1.0, size=(len(ts), dim))
            fstars = (raw / raw.sum(axis=1, keepdims=True))[None, :, None]
            F = rng.uniform(-2.0, 2.0, size=(1, len(ts), 1, dim))
            calls.clear()
            _adjoint_rows(mats, [HalfSquareFamily()], fstars, F)
            [(got_mats, _, got)] = [call for call in calls if call[1] is fstars]
            assert got.shape == fstars.shape and np.array_equal(got_mats, mats.transpose(0, 2, 1))
            want = (mats.transpose(0, 2, 1) @ fstars[0, :, 0, :, None])[..., 0]
            assert bits(got.ravel()) == bits(want.ravel())

    def test_own_blocks_of_several_members_match_one_member_each(self):
        # run_config_verification passes every family of a generator at once, each
        # with its own block; each member's rows keep the bits of its own call. So
        # do copies of one block, one per member
        rng = np.random.default_rng(34)
        families = benchmark_families()
        for _ in range(100):
            gen, ops = self.random_groups(rng)
            mats = np.stack([op.matrix for op in ops])
            picks = rng.integers(0, len(families), size=int(rng.integers(1, 5)))
            fams = [families[i] for i in picks]
            rows = int(rng.integers(1, 4))
            F = np.stack([rng.uniform(*suites._DOMAIN_BOX[suites._family_domain_kind(fam)],
                                      size=(len(ops), rows, gen.dim)) for fam in fams])
            # the positive-cone box lies in the domain of every family
            shared = rng.uniform(*suites._DOMAIN_BOX["F"], size=(1, len(ops), rows, gen.dim))
            apply = partial(_stack_act, mats)
            for blocks in (F, np.repeat(shared, len(fams), axis=0)):
                sides = _members_sides(apply, fams, blocks)
                alone = [_members_sides(apply, [fam], blocks[m][None])
                         for m, fam in enumerate(fams)]
                assert sides[1].shape == blocks.shape
                assert sides[0].shape == sides[2].shape == (len(fams), *blocks.shape[1:])
                for k in range(3):
                    # each side, Z f too: each member's own rows
                    assert bits(sides[k].ravel()) == bits(np.concatenate(
                        [a[k] for a in alone]).ravel())
            duals = rng.uniform(0.0, 1.0, size=F.shape)
            duals /= duals.sum(axis=-1, keepdims=True)
            reps = _adjoint_rows(mats, fams, duals, F)
            assert reps == [rep for fam, D, block in zip(fams, duals, F)
                            for rep in _adjoint_rows(mats, [fam], D[None], block[None])]

    def test_own_blocks_raise_the_first_member_at_the_earliest_check(self):
        # the "Z" below maps the row (1, 2) to (-1, 2), out of the domain of
        # PowerF(-1), whose F passes: that is its third check, so a member
        # behind it whose own F fails the first check raises first
        shear = partial(_stack_act, np.array([[[1.0, -1.0], [0.0, 1.0]]]))
        fams = [PowerFamily(-1.0), NegLogFamily()]
        with pytest.raises(NonPositiveInputError, match="NegLog"):
            _members_sides(shear, fams, np.array([[[1.0, 2.0]], [[-1.0, 2.0]]])[:, None])
        with pytest.raises(NonPositiveInputError, match=r"PowerF\(-1\)"):
            _members_sides(shear, fams, np.array([[[1.0, 2.0]], [[1.0, 0.5]]])[:, None])

    def test_adjoint_rows_reject_a_negative_dual_in_any_row(self, bench_gen):
        op = evolve(bench_gen, 1.0)
        mats = np.stack([op.matrix, op.matrix])
        duals = np.array([[0.5, 0.5], [1.0, -0.5]])[None, :, None]
        with pytest.raises(NonPositiveDualError):
            _adjoint_rows(mats, [PowerFamily(2.0)], duals, np.full((1, 2, 1, 2), 2.0))


class TestSupportLine:
    def test_at_base_point(self):
        f = el(2.0, 3.0)
        assert support_line_check(PowerFamily(2.0), f, f) is Ordering.EQUAL

    def test_quadratic_tangent(self):
        # tangent at e: 1/2 + (f - e); at f=(4,1) that is (3.5, 0.5) <= (8, 0.5)
        verdict = support_line_check(PowerFamily(2.0), el(4.0, 1.0), el(1.0, 1.0))
        assert verdict in (Ordering.LEQ, Ordering.EQUAL)

    def test_exp_above_affine(self, rng):
        fam = ExpFamily(1.0)
        base = el(0.0, 0.0, 0.0)
        for _ in range(50):
            f = el(*rng.uniform(-3.0, 3.0, size=3))
            assert support_line_check(fam, f, base) in (Ordering.LEQ, Ordering.EQUAL)

    def test_all_families_random(self, rng):
        fams = [PowerFamily(-1.0), PowerFamily(0.5), PowerFamily(3.0),
                EntropyFamily(), ExpFamily(-1.0)]
        for fam in fams:
            for _ in range(30):
                f = el(*rng.uniform(0.2, 3.0, size=4))
                f0 = el(*rng.uniform(0.2, 3.0, size=4))
                assert support_line_check(fam, f, f0) in (Ordering.LEQ, Ordering.EQUAL)


class TestAdjointPairing:
    def test_basis_dual_reduces_to_residual(self, bench_gen, bench_f):
        jrep = verify_jessen(bench_gen, PowerFamily(2.0), bench_f, 1.0)
        for i in range(2):
            delta = DualVector(np.eye(2)[i])
            rep = verify_adjoint_pairing(bench_gen, PowerFamily(2.0), delta,
                                         bench_f, 1.0)
            assert abs(rep.weak_gap - jrep.residual.values[i]) <= 1e-12
            assert rep.gap_ok

    def test_summed_dual_frozen(self, bench_gen, bench_f):
        rep = verify_adjoint_pairing(bench_gen, PowerFamily(2.0),
                                     DualVector([1.0, 1.0]), bench_f, 10.0)
        assert abs(rep.weak_gap - 2.25) <= 1e-7

    def test_transpose_identity_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            q = rng.uniform(0.0, 2.0, size=(n, n))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            gen = validate_generator(q, name="rand")
            f = el(*rng.uniform(0.2, 3.0, size=n))
            fstar = DualVector(rng.uniform(0.0, 2.0, size=n))
            rep = verify_adjoint_pairing(gen, PowerFamily(2.0), fstar, f,
                                         float(rng.uniform(0.1, 2.0)))
            assert rep.transpose_defect <= 1e-12
            assert rep.weak_gap >= -1e-9
            assert rep.consistency_defect <= 1e-10

    def test_nonpositive_dual_rejected(self, bench_gen, bench_f):
        with pytest.raises(NonPositiveDualError):
            verify_adjoint_pairing(bench_gen, PowerFamily(2.0),
                                   DualVector([1.0, -0.5]), bench_f, 1.0)

    def test_nonpositive_dual_rejected_on_evolved_operator(self, bench_gen, bench_f):
        op = evolve(bench_gen, 1.0)
        with pytest.raises(NonPositiveDualError):
            _adjoint_rows(op.matrix[None], [PowerFamily(2.0)],
                          DualVector([1.0, -0.5]).values[None, None, None],
                          bench_f.values[None, None, None])

    def test_nonpositive_dual_reported_before_unnormalized_generator(self, bench_f):
        leaky = validate_generator([[-1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(NonPositiveDualError):
            verify_adjoint_pairing(leaky, PowerFamily(2.0), DualVector([1.0, -0.5]), bench_f, 1.0)
        with pytest.raises(NotNormalizedError):
            verify_adjoint_pairing(leaky, PowerFamily(2.0), DualVector([1.0, 0.5]), bench_f, 1.0)

    def test_dual_vector_rejects_a_matrix(self):
        with pytest.raises(ValueError) as err:
            DualVector([[1.0]])
        assert str(err.value) == "dual vectors are finite one dimensional arrays"

    def test_dual_positive_cache(self):
        assert DualVector([0.0, 2.0]).positive
        assert not DualVector([-1e-6, 2.0]).positive


class TestDualConvexity:
    def test_pairing_linearity_and_scalar_gap(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            x1 = DualVector(rng.uniform(0.0, 2.0, size=n))
            x2 = DualVector(rng.uniform(0.0, 2.0, size=n))
            f = el(*rng.uniform(0.3, 2.5, size=n))
            g = el(*rng.uniform(0.3, 2.5, size=n))
            lam = float(rng.uniform(0.0, 1.0))
            rep = dual_convexity_report(PowerFamily(2.0), x1, x2, f, g, lam)
            assert rep.linearity_defect <= 1e-12
            assert rep.scalar_convexity_gap >= -1e-10


def _permuted(gen, perm):
    """Pi Q Pi^T, for the state permutation (Pi f)_i = f[perm[i]]."""
    return validate_generator(gen.q[np.ix_(perm, perm)])


def _rounding_unit(fams, f):
    """K eps (1 + max |phi(f)|) over the members ``fams``: the size of a few
    roundings of a K-term sum of terms as large as phi(f)."""
    return f.size * np.finfo(float).eps * (1.0 + max(np.max(np.abs(fam.value(f))) for fam in fams))


class TestMetamorphicRelations:
    """Two runs of the same kernels that must agree, with no reference value.
    A state permutation only reorders each K-term sum of the series, the
    product by Z(t) and the pairings, and the ExpH shift phi(f + c) =
    e^{pc} phi(f) only adds the roundings of f + c and of e^{pc}; so the two
    runs differ by a few roundings of K-term sums, in ``_rounding_unit``s.
    Each bound is at least 8x the worst gap seen over 31 seeds of the test's
    draws, with 2000 draws per seed for the residual relations and 1000 for
    the Gram and the adjoint, and so holds over a change of summation order,
    while a kernel that mixes up states or drops a stochastic row sum misses
    it by orders of magnitude. The inputs are the seeded samplers of the suites."""

    def test_state_permutation_permutes_the_jessen_residual(self):
        # worst seen 3.0 units (criterion 1's cases, K = 2-8, t in {0.1, 1, 10})
        rng = np.random.default_rng(29)
        for gen, fam, t, f in suites._random_cases(800, rng):
            perm = rng.permutation(gen.dim)
            want = verify_jessen(gen, fam, f, t).residual.values[perm]
            got = verify_jessen(_permuted(gen, perm), fam, LatticeElement(f.values[perm]), t)
            assert np.max(np.abs(got.residual.values - want)) <= 32 * _rounding_unit([fam], f.values)

    def test_state_permutation_permutes_the_gram_coordinates(self):
        # worst seen 3.5 units (criterion 4's F-kind Grams, K <= 6), over every midpoint member
        rng = np.random.default_rng(29)
        for _ in range(400):
            gen = random_conservative_generator(rng, max_dim=6, max_norm=4.0)
            f = random_domain_element(rng, gen.dim, "F").values
            t = (0.5, 2.0)[int(rng.integers(0, 2))]
            pset = suites._sample_exponent_set(rng, "F")
            perm = rng.permutation(gen.dim)
            want = build_gram(gen, LatticeElement(f), t, pset).entries[..., perm]
            got = build_gram(_permuted(gen, perm), LatticeElement(f[perm]), t, pset).entries
            unit = _rounding_unit([power_member(m) for m in np.unique(pset.midpoints())], f)
            assert np.max(np.abs(got - want)) <= 32 * unit

    def test_state_permutation_keeps_the_weak_gap(self):
        # worst seen 1.5 units (criterion 3's cases, a dual summing to 1)
        rng = np.random.default_rng(29)
        for gen, fam, t, f in suites._random_cases(400, rng):
            fstar = suites._random_dual(rng, gen.dim)
            perm = rng.permutation(gen.dim)
            want = verify_adjoint_pairing(gen, fam, DualVector(fstar), f, t).weak_gap
            got = verify_adjoint_pairing(_permuted(gen, perm), fam, DualVector(fstar[perm]),
                                         LatticeElement(f.values[perm]), t).weak_gap
            assert abs(got - want) <= 16 * _rounding_unit([fam], f.values)

    def test_exph_shift_scales_the_residual(self):
        # Z(f + c) = Z f + c for a conservative Z, so the ExpH(p) residual at
        # f + c is e^{pc} times the one at f; worst seen 10.0 units, |c| <= 1
        rng = np.random.default_rng(29)
        for _ in range(800):
            gen = random_conservative_generator(rng)
            fam = ExpFamily((1.0, -1.0, 0.5, 2.0)[int(rng.integers(0, 4))])
            t = (0.1, 1.0, 10.0)[int(rng.integers(0, 3))]
            f = random_domain_element(rng, gen.dim, "H").values
            c = float(rng.uniform(-1.0, 1.0))
            want = math.exp(fam.rate * c) * verify_jessen(gen, fam, LatticeElement(f), t).residual.values
            got = verify_jessen(gen, fam, LatticeElement(f + c), t).residual.values
            assert np.max(np.abs(got - want)) <= 100 * _rounding_unit([fam], f + c)
