import numpy as np
import pytest

from sgineq import expconv
from sgineq.errors import SgineqError
from sgineq.expconv import (
    ExponentSet,
    IllConditionedMidpointError,
    LambdaGram,
    MIDPOINT_GUARD,
    QuadFormMode,
    build_gram,
    check_order_psd,
    exp_convexity_probe,
    lambda_residual,
    midpoint_equivalence_check,
    quad_form_vector,
)
from sgineq.families import CustomFamily, EntropyFamily, ExpFamily, HalfSquareFamily, NegLogFamily
from sgineq.jessen import NonFiniteSideError, NotNormalizedError, jessen_sides
from sgineq.lattice import LatticeElement, Ordering
from sgineq.semigroup import SemigroupOperator, evolve, validate_generator
from sgineq.suites import random_conservative_generator, random_domain_element

from oracles import BENCH_Q, brute_quad_form, power_map, sym2_eigs, two_state_closed_form


def el(*vals):
    return LatticeElement(list(vals))


class TestExponentSet:
    def test_fields_and_midpoints(self):
        pset = ExponentSet((2.0, 4.0))
        assert pset.size == 2
        assert pset.family_kind == "F"
        assert np.array_equal(pset.midpoints(), [[2.0, 3.0], [3.0, 4.0]])

    def test_exact_special_points_allowed(self):
        ExponentSet((-1.0, 1.0))          # midpoint 0 -> neg-log branch
        ExponentSet((0.5, 1.5))           # midpoint 1 -> entropy branch
        ExponentSet((0.0, 4.0), family_kind="H")

    def test_near_special_rejected(self):
        with pytest.raises(IllConditionedMidpointError) as exc:
            ExponentSet((0.9999999,))
        assert "0.9999999" in str(exc.value)
        with pytest.raises(IllConditionedMidpointError):
            ExponentSet((-1e-7, 1e-7))   # midpoint ~0 but not exactly 0

    def test_guard_band_width(self):
        # just outside the band is accepted
        ExponentSet((1.0 + 2 * MIDPOINT_GUARD,))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ExponentSet((2.0,), family_kind="G")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExponentSet(())


class TestLambdaResidual:
    def test_zero_generator(self, bench_f):
        gen = validate_generator([[0.0, 0.0], [0.0, 0.0]], name="zero")
        for p in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            out = lambda_residual(gen, bench_f, p, 2.0)
            assert np.array_equal(out.values, [0.0, 0.0])

    def test_stationary_quadratic(self, bench_gen, bench_f):
        out = lambda_residual(bench_gen, bench_f, 2.0, 10.0)
        assert np.allclose(out.values, [1.125, 1.125], atol=1e-8)

    def test_constant_input(self, bench_gen):
        out = lambda_residual(bench_gen, el(3.0, 3.0), 2.5, 1.0)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_nonnegative_random(self, bench_gen, rng):
        for _ in range(50):
            f = el(*rng.uniform(0.2, 3.0, size=2))
            p = float(rng.uniform(1.5, 5.0))
            t = float(rng.uniform(0.1, 3.0))
            out = lambda_residual(bench_gen, f, p, t)
            assert np.min(out.values) >= -1e-10

    def test_h_kind_uses_exp_scale(self, bench_gen):
        f = el(0.5, -0.5)
        z = evolve(bench_gen, 1.0)
        fam = ExpFamily(1.5)
        want = z.apply(fam.apply(f)) - fam.apply(z.apply(f))
        got = lambda_residual(bench_gen, f, 1.5, 1.0, family_kind="H")
        assert np.allclose(got.values, want.values, atol=1e-14)

    def test_requires_conservative(self, bench_f):
        drift = validate_generator([[0.0, 1.0], [0.0, 0.0]], name="drift")
        with pytest.raises(NotNormalizedError):
            lambda_residual(drift, bench_f, 2.0, 1.0)


class TestBuildGram:
    def test_two_by_two_against_closed_form(self, bench_gen, bench_f):
        gram = build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 4.0)))
        z = two_state_closed_form(1.0)
        f = np.array([4.0, 1.0])

        def resid(p):
            phi = lambda x: power_map(x, p)
            return z @ phi(f) - phi(z @ f)

        # midpoints: (2,2)->2, (2,4)->3, (4,4)->4
        want = {(0, 0): resid(2.0), (0, 1): resid(3.0),
                (1, 0): resid(3.0), (1, 1): resid(4.0)}
        for (i, j), w in want.items():
            assert np.allclose(gram.entries[i, j], w, atol=1e-12)

        for k in range(2):
            m = gram.coordinate_matrices[k]
            lo, hi = sym2_eigs(m)
            assert abs(min(lo, hi) - gram.min_eigenvalues[k]) <= 1e-10
            assert gram.min_eigenvalues[k] >= -1e-10

    def test_singleton_reduces_to_residual(self, bench_gen, bench_f):
        gram = build_gram(bench_gen, bench_f, 1.0, ExponentSet((3.0,)))
        direct = lambda_residual(bench_gen, bench_f, 3.0, 1.0)
        assert np.array_equal(gram.entries[0, 0], direct.values)
        assert gram.coordinate_matrices[0].shape == (1, 1)
        rep = check_order_psd(gram, n_xi=100, seed=1)
        assert rep.spectral_pass and rep.sampled_pass

    def test_zero_generator_zero_gram(self, bench_f):
        gen = validate_generator(np.zeros((2, 2)), name="zero")
        gram = build_gram(gen, bench_f, 1.0, ExponentSet((2.0, 3.0, 4.0)))
        assert np.array_equal(gram.entries, np.zeros_like(gram.entries))
        assert all(ev == 0.0 for ev in gram.min_eigenvalues)
        rep = check_order_psd(gram, n_xi=50, seed=2)
        assert rep.spectral_pass and rep.sampled_pass
        assert rep.min_eigenvalue == 0.0

    def test_symmetry_exact(self, bench_gen, rng):
        f = el(*rng.uniform(0.5, 2.0, size=2))
        gram = build_gram(bench_gen, f, 0.7, ExponentSet((1.5, 2.25, 4.75)))
        assert np.array_equal(gram.entries, np.swapaxes(gram.entries, 0, 1))
        for m in gram.coordinate_matrices:
            assert np.array_equal(m, m.T)

    def test_diagonal_is_jessen_residual(self, bench_gen, bench_f):
        ps = (1.5, 2.0, 3.5)
        gram = build_gram(bench_gen, bench_f, 0.5, ExponentSet(ps))
        for i, p in enumerate(ps):
            direct = lambda_residual(bench_gen, bench_f, p, 0.5)
            assert np.array_equal(gram.entries[i, i], direct.values)
            assert np.min(gram.entries[i, i]) >= -1e-10

    def test_special_midpoint_dispatch_f(self, bench_gen, bench_f):
        gram = build_gram(bench_gen, bench_f, 1.0, ExponentSet((-1.0, 1.0)))
        z = evolve(bench_gen, 1.0)

        def manual(fam):
            return (z.apply(fam.apply(bench_f)) - fam.apply(z.apply(bench_f))).values

        assert np.allclose(gram.entries[0, 1], manual(NegLogFamily()), atol=1e-14)
        assert np.allclose(gram.entries[1, 1], manual(EntropyFamily()), atol=1e-14)

    def test_special_midpoint_dispatch_h(self, bench_gen):
        f = el(0.5, -1.0)
        gram = build_gram(bench_gen, f, 1.0, ExponentSet((0.0, 4.0), family_kind="H"))
        z = evolve(bench_gen, 1.0)

        def manual(fam):
            return (z.apply(fam.apply(f)) - fam.apply(z.apply(f))).values

        assert np.allclose(gram.entries[0, 0], manual(HalfSquareFamily()), atol=1e-14)
        assert np.allclose(gram.entries[0, 1], manual(ExpFamily(2.0)), atol=1e-14)
        assert np.allclose(gram.entries[1, 1], manual(ExpFamily(4.0)), atol=1e-14)

    def test_family_error_names_midpoint_and_keeps_its_type(self, bench_gen, bench_f, monkeypatch):
        class CodedFamilyError(SgineqError):
            def __init__(self, code, detail):
                super().__init__(f"[{code}] {detail}")
                self.code = code

        def refuse(x):
            raise CodedFamilyError(17, "refused input")

        monkeypatch.setattr(expconv, "_member", lambda kind, p: CustomFamily(
            fn=np.array, d2=np.ones_like, name=f"coded({p:g})", domain=refuse))
        with pytest.raises(CodedFamilyError, match=r"^at midpoint 3: \[17\] refused input$") as info:
            build_gram(bench_gen, bench_f, 1.0, ExponentSet((3.0,)))
        assert info.value.code == 17

    def test_overflowing_member_names_midpoint(self, bench_gen, bench_f):
        with pytest.raises(NonFiniteSideError, match=r"at midpoint 1001: PowerF\(1001\)"):
            build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 2000.0)))

    def test_coupled_time_smoke(self, bench_gen, bench_f):
        gram = build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 4.0)),
                          couple_time=True)
        assert gram.coupled
        rep = check_order_psd(gram, n_xi=50, seed=3)
        # reported, not asserted: just require the machinery to run
        assert isinstance(rep.spectral_pass, bool)

    def test_json_and_csv_exports(self, bench_gen, bench_f):
        gram = build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 4.0)))
        doc = gram.to_json()
        assert doc["p"] == [2.0, 4.0]
        assert doc["t"] == 1.0
        assert len(doc["coordinates"]) == 2
        assert {"index", "matrix", "min_eigenvalue"} <= set(doc["coordinates"][0])
        rows = list(gram.to_csv_rows())
        assert len(rows) == 2 * 2 * 2
        assert rows[0][:3] == (2.0, 2.0, 0)


def _residual(op, fam, f):
    """Z phi(f) - phi(Z f) of one element through ``jessen_sides``."""
    phi_zf, z_phi_f = jessen_sides(op.act, fam, f.values[None, :])
    return LatticeElement(z_phi_f[0] - phi_zf[0])


def _gram_bits_reference(gen, f, t, pset, couple_time):
    """Gram entries from one ``_residual`` call per (i, j) pair."""
    n = pset.size
    want = np.empty((n, n, f.dim))
    for i, pi in enumerate(pset.p):
        for j, pj in enumerate(pset.p):
            mid = 0.5 * (pi + pj)
            op = evolve(gen, mid if couple_time else t)
            want[i, j] = _residual(op, expconv._member(pset.family_kind, mid), f).values
    return want


def _gram_bit_cases():
    rng = np.random.default_rng(77)
    cases = [
        ("F_random", "F", (1.7, 2.6, 3.1, 4.4, 4.9), False),
        ("F_special_0_and_1", "F", (-1.0, 0.5, 1.0, 1.5, 3.0), False),
        ("F_duplicate_midpoints", "F", (2.0, 3.0, 4.0, 5.0), False),
        ("H_random", "H", (-1.8, -0.3, 0.7, 1.9), False),
        ("H_special_0", "H", (-2.0, 0.0, 2.0, 3.5), False),
        ("F_coupled", "F", (1.5, 2.0, 3.0, 4.0), True),
        ("H_coupled", "H", (0.0, 0.5, 2.0), True),
    ]
    out = []
    for label, kind, ps, coupled in cases:
        for k in range(3):
            gen = random_conservative_generator(rng, min_dim=2 + k, max_dim=2 + 2 * k, max_norm=4.0)
            f = random_domain_element(rng, gen.dim, kind)
            t = float(rng.uniform(0.2, 3.0))
            out.append(pytest.param(gen, f, t, ExponentSet(ps, family_kind=kind), coupled,
                                    id=f"{label}-{k}"))
    return out


class TestGramBits:
    @pytest.mark.parametrize("gen,f,t,pset,coupled", _gram_bit_cases())
    def test_match_per_midpoint_residuals(self, gen, f, t, pset, coupled):
        gram = build_gram(gen, f, t, pset, couple_time=coupled)
        want = _gram_bits_reference(gen, f, t, pset, coupled)
        coord = np.ascontiguousarray(want.transpose(2, 0, 1))
        assert gram.entries.tobytes() == want.tobytes()
        assert gram.coordinate_matrices.tobytes() == coord.tobytes()
        assert gram.min_eigenvalues.tobytes() == np.linalg.eigvalsh(coord)[:, 0].tobytes()
        op, kind = evolve(gen, t), pset.family_kind
        for p in pset.p:
            got = lambda_residual(gen, f, p, t, kind).values
            assert got.tobytes() == _residual(op, expconv._member(kind, p), f).values.tobytes()

    def test_duplicate_midpoints_evaluated_once(self, bench_gen, bench_f, monkeypatch):
        seen = []
        member = expconv._member
        monkeypatch.setattr(expconv, "_member", lambda kind, p: seen.append(p) or member(kind, p))
        build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 3.0, 4.0, 5.0)))
        # (i <= j) order: 2, 2.5, 3, 3.5 | 3 (again), 3.5, 4 | 4, 4.5 | 5
        assert seen == [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]

    def test_one_block_action_per_operator(self, bench_gen, bench_f, monkeypatch):
        blocks = []
        act = SemigroupOperator.act
        monkeypatch.setattr(SemigroupOperator, "act",
                            lambda self, F: blocks.append(F.shape) or act(self, F))
        build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 3.0, 4.0)))
        assert blocks == [(6, 2)]      # f and the 5 distinct midpoints 2, 2.5, 3, 3.5, 4
        blocks.clear()
        build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 3.0, 4.0)), couple_time=True)
        assert blocks == [(2, 2)] * 5



class TestOrderPsd:
    def test_spectral_implies_sampled(self, bench_gen, rng):
        for _ in range(10):
            f = el(*rng.uniform(0.3, 2.5, size=2))
            ps = tuple(sorted(rng.uniform(1.5, 5.0, size=3)))
            gram = build_gram(bench_gen, f, float(rng.uniform(0.2, 2.0)),
                              ExponentSet(ps))
            rep = check_order_psd(gram, n_xi=1000, seed=int(rng.integers(1 << 30)))
            if rep.spectral_pass:
                assert rep.sampled_pass
            assert rep.scaled_tol == rep.tol * (1.0 + gram.max_abs_entry())

    def test_report_fields(self, bench_gen, bench_f):
        gram = build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 4.0)))
        rep = check_order_psd(gram, n_xi=250, seed=9)
        assert rep.n_xi == 250
        assert rep.seed == 9
        assert rep.min_eigenvalue == min(gram.min_eigenvalues)
        assert rep.min_quadform >= -rep.scaled_tol


def _full_einsum_min(gram, n_xi, seed):
    """The sampled minimum over every row, drawn as ``check_order_psd`` draws it."""
    xi = np.random.default_rng(seed).normal(size=(n_xi, gram.pset.size))
    norms = np.linalg.norm(xi, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    xi = xi / norms
    return float(np.min(np.einsum("si,sj,ijk->sk", xi, xi, gram.entries)))


def _gram_of(entries):
    """A LambdaGram around given (n, n, K) entries."""
    entries = np.ascontiguousarray(entries, dtype=float)
    n = entries.shape[0]
    coord = np.ascontiguousarray(entries.transpose(2, 0, 1))
    return LambdaGram(pset=ExponentSet(np.arange(n) + 2.0), t=1.0, entries=entries,
                      coordinate_matrices=coord, min_eigenvalues=np.linalg.eigvalsh(coord)[:, 0])


def _bits(x):
    return np.float64(x).tobytes()


def _tie_grams():
    """Grams whose sampled forms tie: on every row, or on every row up to rounding."""
    eye = np.eye(5)[:, :, None]
    yield "zero_generator", np.zeros((3, 3, 2))
    yield "minus_identity", -eye * np.array([1.0, 1.0, 2.0])
    yield "scaled_identity", eye * np.array([-0.3, 7.0, -0.3])
    yield "repeated_diagonal", np.diag([-1.0, -1.0, -1.0, 2.0])[:, :, None] * np.array([1.0, 1.0])
    yield "subnormal_identity", -eye * 1e-310
    yield "rank_one", -np.ones((4, 4, 1))


class TestScreenedMinimum:
    """``min_quadform`` is the minimum of the einsum over every row, bit for bit."""

    @pytest.mark.parametrize("n_xi", [1, 7, 1000, 5000])
    def test_bits_match_full_einsum(self, n_xi):
        rng = np.random.default_rng(n_xi)
        for n in range(1, 7):
            for dim in range(1, 9):
                a = rng.normal(size=(n, n, dim))
                gram = _gram_of(a + a.transpose(1, 0, 2))
                seed = int(rng.integers(1 << 30))
                rep = check_order_psd(gram, n_xi=n_xi, seed=seed)
                assert _bits(rep.min_quadform) == _bits(_full_einsum_min(gram, n_xi, seed)), (n, dim)

    def test_bits_two_points_one_coordinate(self):
        # the shape where numpy's einsum sums a block of one or two rows in
        # another order than a longer block
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = rng.normal(size=(2, 2, 1))
            gram = _gram_of(a + a.transpose(1, 0, 2))
            seed = int(rng.integers(1 << 30))
            rep = check_order_psd(gram, n_xi=1000, seed=seed)
            assert _bits(rep.min_quadform) == _bits(_full_einsum_min(gram, 1000, seed))

    @pytest.mark.parametrize("entries", [pytest.param(e, id=label) for label, e in _tie_grams()])
    @pytest.mark.parametrize("n_xi", [7, 1000, 5000])
    def test_bits_on_ties(self, entries, n_xi):
        gram = _gram_of(entries)
        for seed in range(8):
            rep = check_order_psd(gram, n_xi=n_xi, seed=seed)
            assert _bits(rep.min_quadform) == _bits(_full_einsum_min(gram, n_xi, seed))

    def test_exact_pass_runs_on_few_rows(self, monkeypatch):
        rows = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum",
                            lambda spec, *ops: rows.append(len(ops[0])) or einsum(spec, *ops))
        a = np.random.default_rng(3).normal(size=(5, 5, 4))
        check_order_psd(_gram_of(a + a.transpose(1, 0, 2)), n_xi=5000, seed=1)
        assert len(rows) == 1 and rows[0] < 50

    def test_non_finite_entry_keeps_every_row(self):
        entries = np.ones((2, 2, 1))
        entries[0, 1, 0] = entries[1, 0, 0] = np.nan
        rep = check_order_psd(_gram_of(entries), n_xi=100, seed=0)
        assert np.isnan(rep.min_quadform) and not rep.sampled_pass

    def test_n_xi_must_be_positive(self, bench_gen, bench_f):
        gram = build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 4.0)))
        for bad in (0, -5):
            with pytest.raises(ValueError, match="n_xi must be at least 1"):
                check_order_psd(gram, n_xi=bad, seed=0)

def _bench_H(bench_gen, bench_f):
    def H(p):
        return lambda_residual(bench_gen, bench_f, p, 1.0)
    return H


class TestQuadForm:
    def test_against_brute_force(self, bench_gen, bench_f, rng):
        H = _bench_H(bench_gen, bench_f)
        xs = [2.0, 3.0, 4.0]
        h_map = {}
        for mode in QuadFormMode:
            for _ in range(5):
                xi = list(rng.uniform(-1.0, 1.0, size=3))
                got = quad_form_vector(H, xs, xi, mode)
                want = brute_quad_form(lambda p: H(p).values, xs, xi,
                                       midpoint=(mode is QuadFormMode.MIDPOINT))
                assert np.allclose(got, want, atol=1e-12)

    def test_single_point_sum(self, bench_gen, bench_f):
        H = _bench_H(bench_gen, bench_f)
        got = quad_form_vector(H, [1.5], [2.0], QuadFormMode.SUM)
        want = 4.0 * H(3.0).values
        assert np.allclose(got, want, atol=1e-14)
        assert exp_convexity_probe(H, [1.5], [2.0], QuadFormMode.SUM) in (
            Ordering.LEQ, Ordering.EQUAL)

    def test_two_point_midpoint_convexity(self, bench_gen, bench_f):
        # xi = (-1, 1) turns the form into H(x1)+H(x2) - 2 H((x1+x2)/2) >= 0
        H = _bench_H(bench_gen, bench_f)
        verdict = exp_convexity_probe(H, [2.0, 4.0], [-1.0, 1.0],
                                      QuadFormMode.MIDPOINT)
        assert verdict in (Ordering.LEQ, Ordering.EQUAL)
        form = quad_form_vector(H, [2.0, 4.0], [-1.0, 1.0], QuadFormMode.MIDPOINT)
        direct = H(2.0).values + H(4.0).values - 2.0 * H(3.0).values
        assert np.allclose(form, direct, atol=1e-14)

    def test_zero_xi(self, bench_gen, bench_f):
        H = _bench_H(bench_gen, bench_f)
        form = quad_form_vector(H, [2.0, 3.0], [0.0, 0.0], QuadFormMode.SUM)
        assert np.array_equal(form, [0.0, 0.0])

    def test_probe_passes_both_modes(self, bench_gen, bench_f, rng):
        H = _bench_H(bench_gen, bench_f)
        for mode in QuadFormMode:
            for _ in range(10):
                xi = list(rng.uniform(-1.0, 1.0, size=3))
                verdict = exp_convexity_probe(H, [2.0, 3.0, 4.0], xi, mode)
                assert verdict in (Ordering.LEQ, Ordering.EQUAL)


class TestMidpointEquivalence:
    def test_substitution_is_exact(self, bench_gen, bench_f, rng):
        H = _bench_H(bench_gen, bench_f)
        for _ in range(5):
            xs = sorted(rng.uniform(1.0, 2.4, size=3))
            xi = list(rng.uniform(-1.0, 1.0, size=3))
            rep = midpoint_equivalence_check(H, xs, xi)
            assert rep.defect_double == 0.0
            assert rep.defect_half == 0.0

    def test_report_tol_echo(self, bench_gen, bench_f):
        H = _bench_H(bench_gen, bench_f)
        rep = midpoint_equivalence_check(H, [1.0, 2.0], [0.5, -0.5])
        assert rep.tol == 1e-12
