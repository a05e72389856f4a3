import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sgineq import cli, expconv, families
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
from sgineq.families import (
    CustomFamily,
    EntropyFamily,
    ExpFamily,
    ExpOverflowError,
    HalfSquareFamily,
    NegLogFamily,
    NonPositiveInputError,
)
from sgineq.jessen import NonFiniteSideError, NotNormalizedError, _members_sides
from sgineq.lattice import LatticeElement, Ordering
from sgineq.semigroup import _stack_act, evolve, validate_generator
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

    @pytest.mark.parametrize("ps,kind,message", [
        # (1, 0) comes before (2, 2), whose midpoint 1e-9 is nearer its special point
        ((0.999998, 1.0000015, 1e-9), "F",
         "midpoint (1.0000015+0.999998)/2 = 0.99999975 lies within 1e-06 of 1"),
        ((5.0, 1.0000008, 1e-9), "F",
         "midpoint (1.0000008+1.0000008)/2 = 1.0000008 lies within 1e-06 of 1"),
        ((3.0, -4e-7, 2e-7, 1e-12), "H",
         "midpoint (-4e-07+-4e-07)/2 = -4e-07 lies within 1e-06 of 0"),
    ])
    def test_first_pair_in_row_order_is_named(self, ps, kind, message):
        with pytest.raises(IllConditionedMidpointError) as exc:
            ExponentSet(ps, kind)
        assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from("FH"), st.lists(st.one_of(
        st.floats(-3.0, 3.0), st.sampled_from((0.0, 1.0, 2.0, -1.0)),
        st.sampled_from((0.0, 1.0, 2.0)).flatmap(lambda sp: st.floats(sp - 3e-6, sp + 3e-6))),
        min_size=1, max_size=6))
    # midpoints that overflow to +-inf, far from every special point, which
    # ExponentSet forms inside numpy's error state
    @example("F", [1.7e308, 1.7e308])
    @example("H", [-1.7e308, -1.7e308])
    def test_guard_matches_the_pairwise_scan(self, kind, ps):
        # the plain scan over the pairs (i, j <= i) and the special points
        want = None
        for i, pi in enumerate(ps):
            for pj in ps[:i + 1]:
                mid = 0.5 * (pi + pj)
                for sp in ((0.0, 1.0) if kind == "F" else (0.0,)):
                    if want is None and mid != sp and abs(mid - sp) < MIDPOINT_GUARD:
                        want = f"midpoint ({pi!r}+{pj!r})/2 = {mid!r} lies within 1e-06 of {sp:g}"
        try:
            ExponentSet(ps, kind)
        except IllConditionedMidpointError as err:
            assert str(err) == want
        else:
            assert want is None


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

    def test_family_error_names_midpoint_and_keeps_its_type(self, bench_gen, bench_f):
        # the list form of the residual kernel, on the labels of the Gram route
        class CodedFamilyError(SgineqError):
            def __init__(self, code, detail):
                super().__init__(f"[{code}] {detail}")
                self.code = code

        def refuse(x):
            raise CodedFamilyError(17, "refused input")

        fam = CustomFamily(fn=np.array, d2=np.ones_like, name="coded(3)", domain=refuse)
        with pytest.raises(CodedFamilyError, match=r"^at midpoint 3: \[17\] refused input$") as info:
            _labelled_sides(bench_gen, bench_f, {3.0: fam})
        assert info.value.code == 17

    def test_overflowing_member_names_midpoint(self, bench_gen, bench_f, route_calls):
        with pytest.raises(NonFiniteSideError, match=r"at midpoint 1001: PowerF\(1001\)"):
            build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 2000.0)))
        # the column fails its finiteness check, and only the member it names is built
        assert route_calls == {"_member": 1, "_members_sides": 1}

    def test_earliest_check_fails_first_across_members(self, bench_gen, bench_f):
        # member 1 has a non-finite phi(f), member 2 refuses f itself: the
        # domain check runs over every member before the finiteness check
        def refuse(x):
            raise NonPositiveInputError("refused input")

        members = {
            2.0: CustomFamily(fn=lambda x: np.full_like(x, np.inf), d2=np.ones_like, name="inf"),
            3.0: CustomFamily(fn=np.array, d2=np.ones_like, name="refusing", domain=refuse),
        }
        with pytest.raises(NonPositiveInputError, match=r"^at midpoint 3: refused input$"):
            _labelled_sides(bench_gen, bench_f, members)
        members[3.0] = CustomFamily(fn=np.array, d2=np.ones_like, name="plain")
        with pytest.raises(NonFiniteSideError, match=r"^at midpoint 2: inf: "):
            _labelled_sides(bench_gen, bench_f, members)

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


def _labelled_sides(gen, f, members):
    """``_members_sides`` on the list of families ``members`` (midpoint ->
    family) at t = 1, each member with its own copy of f, labelled as
    ``_midpoint_residuals`` labels a column."""
    z = evolve(gen, 1.0).matrix
    labels = [f"at midpoint {mid:g}" for mid in members]
    return _members_sides(partial(_stack_act, z[None]), list(members.values()),
                          np.repeat(f.values[None, None, None], len(members), axis=0),
                          labels.__getitem__)


def _residual(op, fam, f):
    """Z phi(f) - phi(Z f) of one element through ``_members_sides``."""
    phi_zf, _, z_phi_f = _members_sides(partial(_stack_act, op.matrix[None]), [fam],
                                        f.values[None, None, None])
    return LatticeElement(z_phi_f[0, 0, 0] - phi_zf[0, 0, 0])


def _gram_bits_reference(gen, f, t, pset):
    """Gram entries from one ``_residual`` call per (i, j) pair."""
    n = pset.size
    op = evolve(gen, t)
    want = np.empty((n, n, f.dim))
    for i, pi in enumerate(pset.p):
        for j, pj in enumerate(pset.p):
            mid = 0.5 * (pi + pj)
            want[i, j] = _residual(op, families._member(pset.family_kind, mid), f).values
    return want


def _gram_bit_cases():
    rng = np.random.default_rng(77)
    cases = [
        ("F_random", "F", (1.7, 2.6, 3.1, 4.4, 4.9)),
        ("F_special_0_and_1", "F", (-1.0, 0.5, 1.0, 1.5, 3.0)),
        ("F_duplicate_midpoints", "F", (2.0, 3.0, 4.0, 5.0)),
        ("H_random", "H", (-1.8, -0.3, 0.7, 1.9)),
        ("H_special_0", "H", (-2.0, 0.0, 2.0, 3.5)),
    ]
    out = []
    for label, kind, ps in cases:
        for k in range(3):
            gen = random_conservative_generator(rng, min_dim=2 + k, max_dim=2 + 2 * k, max_norm=4.0)
            f = random_domain_element(rng, gen.dim, kind)
            t = float(rng.uniform(0.2, 3.0))
            out.append(pytest.param(gen, f, t, ExponentSet(ps, family_kind=kind),
                                    id=f"{label}-{k}"))
    return out


class TestGramBits:
    @pytest.mark.parametrize("gen,f,t,pset", _gram_bit_cases())
    def test_match_per_midpoint_residuals(self, gen, f, t, pset):
        gram = build_gram(gen, f, t, pset)
        want = _gram_bits_reference(gen, f, t, pset)
        coord = np.ascontiguousarray(want.transpose(2, 0, 1))
        assert gram.entries.tobytes() == want.tobytes()
        assert gram.coordinate_matrices.tobytes() == coord.tobytes()
        assert gram.min_eigenvalues.tobytes() == np.linalg.eigvalsh(coord)[:, 0].tobytes()
        op, kind = evolve(gen, t), pset.family_kind
        for p in pset.p:
            got = lambda_residual(gen, f, p, t, kind).values
            assert got.tobytes() == _residual(op, families._member(kind, p), f).values.tobytes()

    def test_duplicate_midpoints_evaluated_once(self, bench_gen, bench_f, monkeypatch):
        seen = []
        residuals = expconv._midpoint_residuals
        monkeypatch.setattr(expconv, "_midpoint_residuals",
                            lambda z, kind, mids, f: seen.extend(mids) or residuals(z, kind, mids, f))
        build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 3.0, 4.0, 5.0)))
        # (i <= j) order: 2, 2.5, 3, 3.5 | 3 (again), 3.5, 4 | 4, 4.5 | 5
        assert seen == [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]

    def test_one_block_action_per_operator(self, bench_gen, bench_f, monkeypatch):
        blocks = []
        stack_act = expconv._stack_act
        monkeypatch.setattr(expconv, "_stack_act", lambda mats, F: blocks.append(
            (mats.shape, F.shape)) or stack_act(mats, F))
        build_gram(bench_gen, bench_f, 1.0, ExponentSet((2.0, 3.0, 4.0)))
        # one matrix, on f and the 5 distinct midpoints 2, 2.5, 3, 3.5, 4: one
        # time, one sample, K = 2
        assert blocks == [((1, 2, 2), (6, 1, 1, 2))]



@pytest.fixture
def route_calls(monkeypatch):
    """Calls of ``families._member``, which builds one member of a column, and of
    the residual kernel ``expconv._members_sides``."""
    calls = {"_member": 0, "_members_sides": 0}
    for module, name in ((families, "_member"), (expconv, "_members_sides")):
        def spy(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, spy)
    return calls


class TestReplay:
    """A Gram is one kernel call on the column of its midpoints, which builds
    a member only to raise the error of the first one to fail a check."""

    @pytest.mark.parametrize("kind", ["F", "H"])
    def test_passing_gram_builds_no_member(self, kind, route_calls):
        rng = np.random.default_rng(24)
        for n in range(2, 41):
            gen = random_conservative_generator(rng, max_dim=4, max_norm=4.0)
            f = random_domain_element(rng, gen.dim, kind)
            lo, hi = (1.5, 5.0) if kind == "F" else (-2.0, 2.0)
            points = rng.uniform(lo, hi, size=n)
            # midpoints at the branches 0 and 1 and at the float power paths 2, 0.5 and -1
            points[:3] = ((0.0, 2.0, -1.0) if kind == "F" else (0.0, 1.0, -1.0))[:n]
            build_gram(gen, f, float(rng.uniform(0.2, 2.0)), ExponentSet(points, kind))
        assert route_calls == {"_member": 0, "_members_sides": 39}

    def test_f_off_the_cone_builds_one_member_and_names_the_midpoint(self, bench_gen,
                                                                     route_calls):
        with pytest.raises(NonPositiveInputError, match=r"^at midpoint 2\.5: PowerF\(2\.5\) needs "
                           r"strictly positive input, entry 0 = 1e-12$"):
            build_gram(bench_gen, el(1e-12, 1.0), 1.0, ExponentSet((2.5, 3.0)))
        assert route_calls == {"_member": 1, "_members_sides": 1}

    def test_overflowing_rate_builds_one_member_and_names_the_midpoint(self, bench_gen,
                                                                       route_calls):
        # midpoints in (i <= j) order: 1, 400.5, 800; 400.5 * 2 is the first argument past 700
        with pytest.raises(ExpOverflowError, match=r"^at midpoint 400\.5: ExpH\(400\.5\): "
                           r"exponent argument 801 exceeds 700$"):
            build_gram(bench_gen, el(2.0, 1.0), 1.0, ExponentSet((1.0, 800.0), family_kind="H"))
        assert route_calls == {"_member": 1, "_members_sides": 1}

    def test_gram_cap_overflow_config_builds_one_member(self, tmp_path, capsys, route_calls):
        # the 1000 exponents of configs/at_gram_cap.json with the last one 4000:
        # (3.32... + 4000)/2 is the first of the 500500 midpoints, in (i <= j)
        # order, whose phi(f) leaves double range
        config = Path(__file__).resolve().parents[1] / "configs" / "gram_cap_overflow.json"
        assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path / "o")]) == 64
        assert capsys.readouterr().err == (
            "sgineq: error: at midpoint 2001.66: PowerF(2001.66): phi(f), phi(Z f) and Z phi(f) "
            "must have finite entries\n")
        assert route_calls == {"_member": 1, "_members_sides": 1}


# Midpoints at the branches (0 and 1), at the float paths of np.power (2,
# 0.5 and -1), and at the edges of the guard band around the branches.
_EDGE_MIDPOINTS = (0.0, 1.0, 2.0, 0.5, -1.0) + tuple(
    sp + side * width for sp in (0.0, 1.0) for side in (-1.0, 1.0)
    for width in (MIDPOINT_GUARD, np.nextafter(MIDPOINT_GUARD, 0.0), 2.0 * MIDPOINT_GUARD))
# Entries of f per family kind: at and next to the cone tolerance, and large
# enough that a power or an exponential of them leaves double range.
_EDGE_ENTRIES = {"F": (1e-12, float(np.nextafter(1e-12, 1.0)), 1e-300, 1e40, 1e160),
                 "H": (300.0, -300.0, 1e-300, 1e40)}


@st.composite
def _midpoint_cases(draw):
    """(gen, t, kind, mids, f): a conservative generator with K = 1..6, a time,
    1..8 distinct midpoints, and f, with edge midpoints and edge entries."""
    kind = draw(st.sampled_from("FH"))
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    span = 8.0 if kind == "F" else 400.0
    mids = draw(st.lists(st.one_of(st.sampled_from(_EDGE_MIDPOINTS),
                                   st.floats(-span, span, allow_subnormal=False)),
                         min_size=n, max_size=n))
    entries = st.floats(1e-3, 10.0) if kind == "F" else st.floats(-3.0, 3.0)
    f = draw(st.lists(st.one_of(entries, st.sampled_from(_EDGE_ENTRIES[kind])),
                      min_size=k, max_size=k))
    gen = random_conservative_generator(np.random.default_rng(draw(st.integers(0, 2 ** 32))),
                                        min_dim=k, max_dim=k, max_norm=4.0)
    t = draw(st.floats(0.0, 3.0))
    # the distinct midpoints in first-seen order, as _gram keys them
    return gen, t, kind, list(dict.fromkeys(float(m) for m in mids)), np.array(f)


def _sides_or_error(apply, fams, block, where):
    """(shape, bits) of each side ``_members_sides`` gives, or the type and
    message of its error. A column's one shared Z f is repeated once per
    member, as the list of its members, each with its own copy of the block,
    gives it."""
    try:
        phi_zf, zf, z_phi_f = _members_sides(apply, fams, block, where)
    except Exception as err:
        return type(err), str(err)
    zf = np.repeat(zf, len(fams) // len(zf), axis=0)
    return [(side.shape, side.tobytes()) for side in (phi_zf, zf, z_phi_f)]


class TestBatchedSides:
    """The column form of ``_members_sides`` against its list form."""

    @settings(max_examples=400, deadline=None)
    @given(_midpoint_cases())
    # the subnormal times whose evolution once raised a math domain error
    @example((validate_generator(BENCH_Q), 5e-324, "F", [2.0, 0.5, 1.0], np.array([1.0, 4.0])))
    @example((validate_generator(BENCH_Q), 1e-323, "H", [-1.0, 0.0, 2.0], np.array([-3.0, 300.0])))
    def test_batched_rows_match_the_per_member_route(self, case):
        # the column of the members gives the sides of their list bit for bit,
        # or the same error, with its type and message; _midpoint_residuals,
        # the column form on its own labels, gives their rows or that error
        gen, t, kind, mids, f = case
        z = evolve(gen, t).matrix
        apply = partial(_stack_act, z[None])
        block = f[None, None, None]
        own = np.repeat(block, len(mids), axis=0)
        where = [f"at midpoint {m:g}" for m in mids].__getitem__
        listed = [families._member(kind, m) for m in mids]
        want = _sides_or_error(apply, listed, own, where)
        assert _sides_or_error(apply, families._MemberColumn(kind, np.array(mids)), block,
                               where) == want
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                got = expconv._midpoint_residuals(z, kind, mids, f)
        except Exception as err:
            assert (type(err), str(err)) == want
        else:
            phi_zf, _, z_phi_f = _members_sides(apply, listed, own)
            with np.errstate(over="ignore", invalid="ignore"):
                assert got.tobytes() == (z_phi_f - phi_zf)[:, 0, 0].tobytes()

    def test_non_finite_z_phi_f_gives_no_rows(self, bench_gen, bench_f):
        # Z phi(f) of a stochastic Z leaves double range only in rare roundings,
        # so an action that puts the last row out of range stands in for one
        z = evolve(bench_gen, 1.0).matrix

        def apply(block):
            out = _stack_act(z[None], block)
            out[-1] = np.inf
            return out

        mids = [2.0, 3.0]
        block = bench_f.values[None, None, None]
        where = [f"at midpoint {m:g}" for m in mids].__getitem__
        for fams, F in (([families._member("F", m) for m in mids], np.repeat(block, 2, axis=0)),
                        (families._MemberColumn("F", np.array(mids)), block)):
            with pytest.raises(NonFiniteSideError, match=r"^at midpoint 3: PowerF\(3\): "):
                _members_sides(apply, fams, F, where)

    def test_non_finite_phi_f_is_found_before_z_f_leaves_the_domain(self):
        # the "Z" below maps the row (1, 2) to (-1, 2), off the cone, and phi(f)
        # of PowerF(2000) overflows: a finite phi(f) is the earlier check
        shear = partial(_stack_act, np.array([[[1.0, -1.0], [0.0, 1.0]]]))
        mids = [3.0, 2000.0]
        block = np.array([1.0, 2.0])[None, None, None]
        where = [f"at midpoint {m:g}" for m in mids].__getitem__
        for fams, F in (([families._member("F", m) for m in mids], np.repeat(block, 2, axis=0)),
                        (families._MemberColumn("F", np.array(mids)), block)):
            with pytest.raises(NonFiniteSideError, match=r"^at midpoint 2000: PowerF\(2000\): "):
                _members_sides(shear, fams, F, where)


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
    entries = np.asarray(entries, dtype=float)
    coord = np.ascontiguousarray(entries.transpose(2, 0, 1))
    return LambdaGram(pset=ExponentSet(np.arange(entries.shape[0]) + 2.0), t=1.0,
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
        # sizes past numpy's 8-element pairwise block, and coordinates scaled
        # from 1e-300 to 1e300
        rng = np.random.default_rng(n_xi)
        for n in (*range(1, 10), 17, 33):
            for dim in range(1, 9):
                for scales in (1.0, np.logspace(-300, 300, dim)):
                    a = rng.normal(size=(n, n, dim)) * scales
                    gram = _gram_of(a + a.transpose(1, 0, 2))
                    seed = int(rng.integers(1 << 30))
                    rep = check_order_psd(gram, n_xi=n_xi, seed=seed)
                    want = _full_einsum_min(gram, n_xi, seed)
                    assert _bits(rep.min_quadform) == _bits(want), (n, dim, scales)

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

    @pytest.mark.parametrize("keeps_every_row", [False, True])
    def test_peak_memory_is_one_screen_block(self, keeps_every_row):
        # at most one (K, n, n_xi) block and three (n_xi, n) arrays, whether the
        # exact pass runs on a few rows or, on a zero Gram, on all of them
        n, dim, n_xi = 64, 4, 5000
        a = np.random.default_rng(4).normal(size=(n, n, dim)) * (not keeps_every_row)
        gram = _gram_of(a + a.transpose(1, 0, 2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            check_order_psd(gram, n_xi=n_xi, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (dim * n * n_xi + 3 * n_xi * n), peak

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
