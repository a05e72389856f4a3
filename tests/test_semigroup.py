import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from oracles import (
    BENCH_Q,
    abs_row_sum_norm,
    chain_mu,
    eye_plus_chain,
    plain_series,
    plain_term_schedule,
    row_block_act,
    two_state_closed_form,
)
from sgineq import semigroup
from sgineq.expconv import ExponentSet, build_gram, lambda_residual
from sgineq.families import PowerFamily
from sgineq.jessen import verify_jessen
from sgineq.lattice import LatticeElement, lattice_norm
from sgineq.reporting import all_passed
from sgineq.semigroup import (
    EvolveOverflowError,
    NegativeOffDiagonalError,
    NotSquareError,
    TimeCapError,
    act,
    check_positivity_and_normalization,
    check_semigroup_axioms,
    estimate_generator,
    evolve,
    evolve_many,
    generator_from_json,
    generator_to_json,
    validate_generator,
)
from sgineq.suites import random_conservative_generator, random_positive_generator

# Frozen from the eigendecomposition of [[-1,1],[1,-1]] at t = 1:
# exp(-2) = 0.1353352832366127.
Z1_DIAG = 0.5676676416183064
Z1_OFF = 0.4323323583816936


def test_oracle_self_consistency():
    z = two_state_closed_form(1.0)
    assert abs(z[0, 0] - Z1_DIAG) <= 1e-16
    assert abs(z[0, 1] - Z1_OFF) <= 1e-16
    assert np.allclose(z.sum(axis=1), 1.0, atol=1e-15)


class TestValidate:
    def test_benchmark_is_conservative(self):
        gen = validate_generator(BENCH_Q)
        assert gen.conservative
        assert gen.dim == 2
        assert gen.sup_norm == 2.0

    def test_negative_off_diagonal_named(self):
        with pytest.raises(NegativeOffDiagonalError) as err:
            validate_generator([[0.0, -0.5], [0.0, 0.0]])
        assert "(0,1)" in str(err.value)

    def test_zero_matrix_valid(self):
        gen = validate_generator(np.zeros((3, 3)))
        assert gen.conservative

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate_generator([[0.0, 1.0]])

    def test_conservative_classification_boundary(self):
        q = [[-1.0, 1.0 + 5e-13], [1.0, -1.0]]
        assert validate_generator(q).conservative
        q = [[-1.0, 1.0 + 5e-11], [1.0, -1.0]]
        assert not validate_generator(q).conservative

    def test_json_roundtrip(self):
        gen = validate_generator(BENCH_Q, name="bench")
        data = generator_to_json(gen)
        back = generator_from_json(data)
        assert back.name == "bench"
        assert np.array_equal(back.q, gen.q)


class TestEvolve:
    def test_zero_generator_identity(self):
        gen = validate_generator(np.zeros((4, 4)))
        op = evolve(gen, 3.7)
        assert np.array_equal(op.matrix, np.eye(4))
        assert op.trunc_error == 0.0

    def test_time_zero_identity(self):
        gen = validate_generator(BENCH_Q)
        assert np.array_equal(evolve(gen, 0.0).matrix, np.eye(2))

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_against_closed_form(self, t):
        gen = validate_generator(BENCH_Q)
        op = evolve(gen, t)
        assert np.max(np.abs(op.matrix - two_state_closed_form(t))) <= 1e-12

    def test_frozen_value_at_one(self):
        op = evolve(validate_generator(BENCH_Q), 1.0)
        assert abs(op.matrix[0, 0] - Z1_DIAG) <= 1e-13
        assert abs(op.matrix[1, 0] - Z1_OFF) <= 1e-13

    def test_nilpotent_generator_exact_polynomial(self):
        gen = validate_generator([[0.0, 1.0], [0.0, 0.0]])
        for t in (0.5, 1.0, 2.0):
            expect = np.array([[1.0, t], [0.0, 1.0]])
            assert np.max(np.abs(evolve(gen, t).matrix - expect)) <= 1e-14

    def test_stiff_time_still_stochastic(self):
        # rate * t = 800 forces the splitting path
        gen = validate_generator(BENCH_Q)
        op = evolve(gen, 400.0)
        assert np.max(np.abs(op.matrix - 0.5)) <= 1e-12
        assert np.max(np.abs(op.matrix.sum(axis=1) - 1.0)) <= 1e-10
        assert op.matrix.min() >= 0.0

    def test_trunc_error_budget(self):
        gen = validate_generator(BENCH_Q)
        for t in (1.0, 400.0):
            op = evolve(gen, t)
            norm = np.max(np.sum(np.abs(op.matrix), axis=1))
            assert op.trunc_error <= 1e-14 * norm

    @pytest.mark.parametrize("rate_time", [0.1, 1.0, 10.0, 128.0, 129.0, 1000.0, 9000.0])
    def test_trunc_error_budget_over_rates(self, rate_time, monkeypatch):
        # lam * t above 128 splits the series into 2^s steps and squares
        monkeypatch.setattr(semigroup, "DEFAULT_TIME_CAP", 2e4)
        rng = np.random.default_rng(int(rate_time * 10))
        for _ in range(3):
            gen = random_conservative_generator(rng, max_dim=8)
            lam = float(np.max(np.abs(np.diag(gen.q))))
            op = evolve(gen, rate_time / lam)
            norm = np.max(np.sum(np.abs(op.matrix), axis=1))
            assert 0.0 < op.trunc_error <= 1e-14 * norm

    def test_time_cap(self):
        gen = validate_generator(BENCH_Q)  # norm 2
        with pytest.raises(TimeCapError):
            evolve(gen, 6000.0)

    @pytest.mark.parametrize("entry", ["evolve", "act", "verify_jessen", "lambda_residual",
                                       "build_gram"])
    def test_time_cap_reaches_every_entry_point(self, entry):
        gen = validate_generator(BENCH_Q)  # norm 2
        f = LatticeElement([4.0, 1.0])
        run = {
            "evolve": lambda t: evolve(gen, t),
            "act": lambda t: act(gen, t, f.values[None, :]),
            "verify_jessen": lambda t: verify_jessen(gen, PowerFamily(2.0), f, t),
            "lambda_residual": lambda t: lambda_residual(gen, f, 2.0, t),
            "build_gram": lambda t: build_gram(gen, f, t, ExponentSet((2.0, 3.0))),
        }[entry]
        at_cap = semigroup.DEFAULT_TIME_CAP / 2.0
        assert at_cap * gen.sup_norm == semigroup.DEFAULT_TIME_CAP
        run(at_cap)
        with pytest.raises(TimeCapError):
            run(math.nextafter(at_cap, math.inf))

    def test_overflow_detected(self):
        gen = validate_generator([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(EvolveOverflowError):
            evolve(gen, 800.0)

    def test_negative_time_rejected(self):
        gen = validate_generator(BENCH_Q)
        with pytest.raises(ValueError):
            evolve(gen, -0.5)

    def test_scipy_cross_check(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            rates = rng.uniform(0, 1, size=(n, n))
            np.fill_diagonal(rates, 0.0)
            q = rates.copy()
            np.fill_diagonal(q, -rates.sum(axis=1))
            gen = validate_generator(q)
            for t in (0.3, 2.0):
                ours = evolve(gen, t).matrix
                ref = scipy.linalg.expm(t * q)
                assert np.max(np.abs(ours - ref)) <= 1e-11

    def test_scipy_cross_check_nonconservative(self):
        q = np.array([[0.0, 1.0], [0.5, -0.2]])
        gen = validate_generator(q)
        ours = evolve(gen, 1.5).matrix
        ref = scipy.linalg.expm(1.5 * q)
        assert np.max(np.abs(ours - ref)) <= 1e-11


def _same_matrices(stack, gen, ts):
    """Whether the stack holds the bits of ``evolve(gen, t).matrix`` for each t."""
    want = [evolve(gen, t).matrix for t in ts]
    return (stack.shape == (len(ts), gen.dim, gen.dim)
            and all(z.tobytes() == w.tobytes() for z, w in zip(stack, want)))


def _outcome(fn):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as exc:  # any outcome is compared
        return type(exc), str(exc)


class TestEvolveMany:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_evolve_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        k = seed + 1
        gen = (random_conservative_generator(rng, min_dim=k, max_dim=k) if seed % 2
               else random_positive_generator(rng, max_dim=max(k, 2)))
        lam = gen.uniform_rate or 1.0
        # lam*t above 128 needs squarings; mixed with unstepped times and repeats
        ts = [0.0, 1e-6, *rng.uniform(0.0, 3.0, size=4), 300.0 / lam, 0.7, 0.7, 129.0 / lam, 0.0]
        assert _same_matrices(evolve_many(gen, ts), gen, ts)

    @pytest.mark.parametrize("q", [np.zeros((3, 3)), [[0.5, 0.2], [0.0, -0.1]], [[0.4]], BENCH_Q],
                             ids=["zero", "nonconservative", "one_state", "bench"])
    def test_special_generators_and_empty_list(self, q):
        gen = validate_generator(q)
        ts = [0.0, 0.25, 3.7, 3.7]
        assert _same_matrices(evolve_many(gen, ts), gen, ts)
        assert _same_matrices(evolve_many(gen, iter(ts)), gen, ts)
        assert _same_matrices(evolve_many(gen, []), gen, [])

    @pytest.mark.parametrize("q,ts", [
        (BENCH_Q, [0.5, -1.0, 0.2]),
        (BENCH_Q, [0.5, float("nan")]),
        (BENCH_Q, [0.5, 6000.0, -1.0]),
        (BENCH_Q, [-1.0, 6000.0]),
        ([[-1.0, 1000.0], [0.0, 0.0]], [0.0001, 1.0, -1.0]),  # series overflow guard
        ([[5.0, 0.0], [0.0, 0.0]], [1.0, 200.0, -1.0]),  # overflow in the squarings
        ([[5.0, 0.0], [0.0, 0.0]], [1.0, -1.0, 200.0]),
        ([[5.0, 0.0], [0.0, 0.0]], [1.0, 200.0, 6000.0]),  # overflow, then past the time cap
    ])
    def test_raises_what_evolve_raises_first(self, q, ts):
        gen = validate_generator(q)
        want = _outcome(lambda: [evolve(gen, t) for t in ts])
        assert isinstance(want, tuple)
        assert _outcome(lambda: evolve_many(gen, ts)) == want

    def test_evolve_runs_only_to_replay_a_failure(self, monkeypatch):
        calls = []

        def spy(gen, t):
            calls.append(t)
            return evolve(gen, t)

        monkeypatch.setattr(semigroup, "evolve", spy)
        gen = validate_generator(BENCH_Q)
        # success: one stacked series, and no evolve call a tracer would count
        evolve_many(gen, [0.0, 0.1, 1.0, 10.0, 300.0])
        assert calls == []
        # failure: the times run through evolve until the first one raises
        with pytest.raises(TimeCapError):
            evolve_many(gen, iter([0.5, 6000.0, -1.0]))
        assert calls == [0.5, 6000.0]


def _generator(k, seed, conservative=True):
    rng = np.random.default_rng([seed, k])
    if conservative:
        return random_conservative_generator(rng, min_dim=k, max_dim=k, max_norm=5.0)
    return random_positive_generator(rng, max_dim=k, max_norm=3.0)


def _expm_multiply_rows(gen, t, block):
    """Rows of exp(tQ) F^T from scipy's truncated-Taylor action (Al-Mohy & Higham 2011)."""
    return scipy.sparse.linalg.expm_multiply(t * gen.q, block.T).T


class TestAct:
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("k", [2, 8, 64, 300])
    def test_matches_expm_multiply(self, k, t):
        gen = _generator(k, seed=1)
        block = np.random.default_rng(k).uniform(-2.0, 2.0, size=(3, k))
        got = act(gen, t, block)
        assert got.shape == (3, k)
        assert np.max(np.abs(got - _expm_multiply_rows(gen, t, block))) <= 1e-12

    def test_stepped_rate_matches_expm_multiply(self):
        # lam * t is about 2000, so act runs 2^4 steps of rate <= 128 in turn
        gen = _generator(8, seed=2)
        t = 2000.0 / float(np.max(np.abs(np.diag(gen.q))))
        assert gen.sup_norm * t <= 1e4
        block = np.random.default_rng(3).uniform(0.2, 3.0, size=(4, 8))
        got = act(gen, t, block)
        assert np.max(np.abs(got - _expm_multiply_rows(gen, t, block))) <= 1e-12
        assert np.max(np.abs(got - block @ evolve(gen, t).matrix.T)) <= 1e-12

    def test_nonconservative_matches_expm_multiply(self):
        gen = _generator(5, seed=4, conservative=False)
        assert not gen.conservative
        block = np.random.default_rng(5).uniform(0.2, 3.0, size=(2, gen.dim))
        for t in (0.5, 2.0):
            want = _expm_multiply_rows(gen, t, block)
            assert np.max(np.abs(act(gen, t, block) - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))

    @pytest.mark.parametrize("k,t", [(2, 1.0), (5, 0.3), (64, 10.0), (3, 400.0)])
    def test_identity_block_gives_evolved_matrix(self, k, t):
        gen = _generator(k, seed=6) if k != 2 else validate_generator(BENCH_Q)
        assert np.max(np.abs(act(gen, t, np.eye(k)).T - evolve(gen, t).matrix)) <= 1e-13

    def test_nonnegative_block_stays_nonnegative(self, rng):
        for k, t in ((4, 0.5), (16, 3.0), (6, 500.0)):
            gen = _generator(k, seed=7)
            block = rng.uniform(0.0, 1.0, size=(5, k)) * (rng.uniform(size=(5, k)) < 0.5)
            assert act(gen, t, block).min() >= 0.0

    def test_trivial_evolutions_return_the_block(self):
        block = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert np.array_equal(act(validate_generator(BENCH_Q), 0.0, block), block)
        assert np.array_equal(act(validate_generator(np.zeros((2, 2))), 5.0, block), block)

    def test_same_errors_as_evolve(self):
        bench = validate_generator(BENCH_Q)
        block = np.ones((1, 2))
        with pytest.raises(TimeCapError):
            act(bench, 6000.0, block)
        for bad_t in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="nonnegative"):
                evolve(bench, bad_t)
            with pytest.raises(ValueError, match="nonnegative"):
                act(bench, bad_t, block)
        # growth beyond double range within one step, and across the steps
        for q, t in (([[-1.0, 10.0], [10.0, -1.0]], 100.0), ([[1.0, 0.0], [0.0, 1.0]], 800.0)):
            gen = validate_generator(q)
            with pytest.raises(EvolveOverflowError):
                evolve(gen, t)
            with pytest.raises(EvolveOverflowError):
                act(gen, t, block)

    def test_rejects_malformed_blocks(self):
        bench = validate_generator(BENCH_Q)
        for bad in (np.ones(2), np.ones((1, 3)), np.array([[1.0, np.inf]])):
            with pytest.raises(ValueError):
                act(bench, 1.0, bad)


def _birth_death(k, seed):
    """Conservative tridiagonal generator with rates in [0.5, 1.5]."""
    rng = np.random.default_rng([seed, k])
    q = np.zeros((k, k))
    idx = np.arange(k - 1)
    q[idx, idx + 1] = rng.uniform(0.5, 1.5, size=k - 1)
    q[idx + 1, idx] = rng.uniform(0.5, 1.5, size=k - 1)
    q[np.diag_indices(k)] = -q.sum(axis=1)
    return validate_generator(q)


def _traced_peak(fn):
    """Peak bytes traced while fn runs, above what was traced when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _random_chain_generator(k):
    """K = k: conservative for odd k, with row sums up to 0.1 for even k."""
    q = _generator(k, seed=9).q
    surplus = np.random.default_rng(k).uniform(0.0, 0.1, size=k) * (k % 2 == 0)
    return validate_generator(q + np.diag(surplus))


# -0.0 entries keep their sign in Q/lam, where np.eye(K) + Q/lam made them +0.0
SIGNED_ZERO_Q = [[-1.0, -0.0, 1.0], [0.5, -0.5, -0.0], [-0.0, 2.0, -2.0]]
CHAIN_GENERATORS = {
    **{f"random{k}": lambda k=k: _random_chain_generator(k) for k in range(1, 9)},
    "one_state": lambda: validate_generator([[-0.4]]),
    "dense64": lambda: _generator(64, seed=9),
    "birth_death300": lambda: _birth_death(300, seed=9),
    "signed_zero": lambda: validate_generator(SIGNED_ZERO_Q),
    "zero_diagonal_rows": lambda: validate_generator(
        [[0.0, 0.0, 0.0], [1.0, -1.5, 0.5], [-0.0, 0.0, 0.0]]),
    "zero_diagonal_nonconservative": lambda: validate_generator(
        [[0.0, 0.7, -0.0], [0.2, 0.0, 0.3], [-0.0, 1.0, 0.0]]),
    "positive_diagonal": lambda: validate_generator([[0.01, 0.2], [-0.0, -2.0]]),
    "fortran_order": lambda: validate_generator(np.asfortranarray(_generator(5, seed=3).q)),
}


def _blocks(k, seed):
    """(S, K) blocks for ``act``: a random one, the same in Fortran order, and one
    row with a signed zero and an entry small enough to underflow."""
    rng = np.random.default_rng([seed, k])
    block = rng.uniform(-2.0, 2.0, size=(3, k))
    row = rng.uniform(-2.0, 2.0, size=(1, k))
    row[0, 0], row[0, -1] = -0.0, -1e-300
    return [block, np.asfortranarray(block), row]


def _kernel_outputs(gen, ts, blocks):
    """Bytes of ``evolve`` (matrix and trunc_error), ``evolve_many`` and ``act``, or what they raise."""
    def matrix_and_error(t):
        op = evolve(gen, t)
        return op.matrix.tobytes(), op.trunc_error

    return ([_outcome(lambda t=t: matrix_and_error(t)) for t in ts],
            _outcome(lambda: evolve_many(gen, ts).tobytes()),
            [_outcome(lambda t=t, b=b: act(gen, t, b).tobytes()) for t in ts for b in blocks])


def _raised(outputs):
    """The (type, message) pairs among the outcomes of ``_kernel_outputs``."""
    matrices, stack, acts = outputs
    return [o for o in [*matrices, stack, *acts] if isinstance(o, tuple) and isinstance(o[0], type)]


class TestChain:
    """P = Q/lam with 1 added to its diagonal in place, one K x K array per call."""

    @pytest.mark.parametrize("name", sorted(CHAIN_GENERATORS))
    def test_evolve_bytes_match_eye_plus_chain(self, monkeypatch, name):
        gen = CHAIN_GENERATORS[name]()
        lam = gen.uniform_rate or 1.0
        # lam*t of 129 and 1000 need one and three squarings
        ts = [0.0, 0.3, 1.0, 129.0 / lam, 1000.0 / lam]
        ops = [evolve(gen, t) for t in ts]
        stack = evolve_many(gen, ts)
        monkeypatch.setattr(semigroup, "_chain", eye_plus_chain)
        monkeypatch.setattr(gen, "mu", chain_mu(gen))
        want = [evolve(gen, t) for t in ts]
        assert [(op.matrix.tobytes(), op.trunc_error) for op in ops] == [
            (op.matrix.tobytes(), op.trunc_error) for op in want]
        assert stack.tobytes() == evolve_many(gen, ts).tobytes()

    @pytest.mark.parametrize("name", sorted(CHAIN_GENERATORS))
    def test_mu_summed_over_p_gives_the_same_matrices(self, monkeypatch, name):
        # mu moves only the term schedule; taken from the rows of P it differs in
        # the last bits on some of these chains, and no term count changes
        gen = CHAIN_GENERATORS[name]()
        lam = gen.uniform_rate or 1.0
        ts = [0.0, 0.3, 1.0, 10.0, 129.0 / lam, 1000.0 / lam]
        mats, stack = [evolve(gen, t).matrix.tobytes() for t in ts], evolve_many(gen, ts).tobytes()
        monkeypatch.setattr(semigroup, "_chain", eye_plus_chain)
        monkeypatch.setattr(gen, "mu", chain_mu(gen, from_p=True))
        assert mats == [evolve(gen, t).matrix.tobytes() for t in ts]
        assert stack == evolve_many(gen, ts).tobytes()

    def test_signed_zeros_reach_the_chain(self):
        gen = validate_generator(SIGNED_ZERO_Q)
        p, ref_p = semigroup._chain(gen), eye_plus_chain(gen)
        assert np.signbit(p).sum() == 3 and not np.signbit(ref_p).any()
        assert np.array_equal(p, ref_p) and gen.mu == chain_mu(gen)

    def test_chain_of_a_fortran_ordered_q(self):
        # the diagonal add must reach P whatever the layout of q
        q = np.asfortranarray(_generator(6, seed=4, conservative=False).q)
        assert validate_generator(q).q.flags.c_contiguous
        gen = semigroup.Generator(q)
        p, ref_p = semigroup._chain(gen), eye_plus_chain(gen)
        assert np.array_equal(p, ref_p) and gen.mu == chain_mu(gen)

    def test_chain_is_c_ordered_and_64_byte_aligned_from_k_64(self):
        # an only 16-byte aligned P costs the block action 14-25% at K = 64-300
        qs = [_generator(k, seed=k).q for k in (1, 2, 5, 63, 64, 65, 300)]
        qs += [np.asfortranarray(qs[2]), np.asfortranarray(qs[-1]), np.zeros((64, 64))]
        for q in qs:
            for _ in range(3):
                p = semigroup._chain(semigroup.Generator(q))
                assert p.flags.c_contiguous and p.shape == q.shape
                assert len(q) < 64 or p.ctypes.data % 64 == 0

    @pytest.mark.parametrize("name", sorted(CHAIN_GENERATORS))
    def test_act_matches_row_block_route(self, name):
        gen = CHAIN_GENERATORS[name]()
        lam = gen.uniform_rate or 1.0
        block = np.random.default_rng(gen.dim).uniform(-2.0, 2.0, size=(3, gen.dim))
        for t in (0.1, 1.0, 10.0, 300.0 / lam):
            got = act(gen, t, block)
            want = row_block_act(gen, t, block)
            # a product with the view P^T sums in another order than one with a
            # contiguous copy: 1.0e-15 relative on the K = 300 chain at t = 10,
            # up to 3e-15 on dense K = 64 ones at lam*t = 300
            assert got.flags.c_contiguous and got.shape == block.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", sorted(CHAIN_GENERATORS))
    def test_series_bytes_match_plain_series(self, monkeypatch, name):
        gen = CHAIN_GENERATORS[name]()
        lam = gen.uniform_rate or 1.0
        # lam*t of 129 and 1000: one and three squarings, 2 and 8 steps of act
        ts = [0.0, 0.3, 1.0, 129.0 / lam, 1000.0 / lam]
        got = _kernel_outputs(gen, ts, _blocks(gen.dim, seed=len(name)))
        assert not _raised(got)
        monkeypatch.setattr(semigroup, "_series", plain_series)
        assert got == _kernel_outputs(gen, ts, _blocks(gen.dim, seed=len(name)))

    def test_series_bytes_match_plain_series_random(self, monkeypatch):
        rng = np.random.default_rng(14)
        draws = []
        for i in range(200):
            k = int(rng.integers(1, 9))
            gen = (random_conservative_generator(rng, min_dim=k, max_dim=k, max_norm=rng.uniform(0.5, 40.0))
                   if i % 2 else random_positive_generator(rng, max_dim=max(k, 2), max_norm=rng.uniform(0.5, 3.0)))
            lam = gen.uniform_rate or 1.0
            ts = [float(rng.uniform(0.0, 2.0)), float(rng.uniform(1.0, 128.0)) / lam, 129.0 / lam]
            draws.append((gen, ts, _blocks(gen.dim, seed=i)))
        got = [_kernel_outputs(*draw) for draw in draws]
        # only non-conservative draws may overflow; 22 of their 1300 outcomes do
        raised = [_raised(out) for out in got]
        assert not any(raised[1::2])
        assert sum(map(len, raised)) <= 30
        assert {exc for errors in raised for exc, _ in errors} <= {semigroup.EvolveOverflowError}
        monkeypatch.setattr(semigroup, "_series", plain_series)
        assert got == [_kernel_outputs(*draw) for draw in draws]

    @pytest.mark.parametrize("name", ["random1", "random5", "dense64", "fortran_order"])
    def test_results_share_no_memory(self, name):
        gen = CHAIN_GENERATORS[name]()
        lam = gen.uniform_rate or 1.0
        ts = [0.0, 1.0, 129.0 / lam]
        for F in _blocks(gen.dim, seed=3):  # one of them in Fortran order
            before = F.tobytes()
            outs = [act(gen, t, F) for t in ts]
            assert F.tobytes() == before
            assert not any(np.shares_memory(out, F) for out in outs)
            assert not any(np.shares_memory(a, b) for i, a in enumerate(outs) for b in outs[:i])
        first, first_stack = evolve(gen, 1.0).matrix, evolve_many(gen, ts)
        kept = first.tobytes(), first_stack.tobytes()
        second, second_stack = evolve(gen, 1.0).matrix, evolve_many(gen, ts)
        assert (first.tobytes(), first_stack.tobytes()) == kept
        assert not np.shares_memory(first, second) and not np.shares_memory(first_stack, second_stack)

    @pytest.mark.parametrize("name", ["random1", "random5", "birth_death300"])
    def test_act_on_an_empty_block(self, name):
        gen = CHAIN_GENERATORS[name]()
        for t in (0.0, 1.0, 1000.0 / (gen.uniform_rate or 1.0)):
            got = act(gen, t, np.empty((0, gen.dim)))
            assert got.shape == (0, gen.dim)

    def test_act_allocates_one_chain(self):
        k = 300
        gen = _birth_death(k, seed=0)
        block = np.random.default_rng(0).uniform(0.5, 2.0, size=(2, k))
        assert _traced_peak(lambda: act(gen, 1.0, block)) < 1.5 * k * k * 8

    def test_sup_norm_allocates_no_matrix(self):
        k = 300
        q = _birth_death(k, seed=0).q
        # the row sums, sup_norm, lam and mu are all formed at construction
        assert _traced_peak(lambda: semigroup.Generator(q)) < k * k * 8 / 4

    def test_sup_norm_is_the_abs_row_sum(self):
        rng = np.random.default_rng(12)
        for k in range(1, 9):
            for _ in range(50):
                # integer entries sum exactly in any order
                q = rng.integers(0, 20, size=(k, k)).astype(float)
                q[rng.uniform(size=(k, k)) < 0.3] = -0.0
                np.fill_diagonal(q, rng.integers(-60, 20, size=k))
                assert validate_generator(q).sup_norm == abs_row_sum_norm(q)
        for k in range(2, 9):
            for seed in range(100):
                gen = _generator(k, seed=seed, conservative=seed % 2 == 0)
                want = abs_row_sum_norm(gen.q)
                assert abs(gen.sup_norm - want) <= 4 * math.ulp(want)


class TestTermSchedule:
    """``_plan`` gives the tuple of the plain loop with one math.log per term."""

    @pytest.fixture(autouse=True)
    def _no_time_cap(self, monkeypatch):
        # the plain loop has no time cap
        monkeypatch.setattr(semigroup, "DEFAULT_TIME_CAP", math.inf)

    @staticmethod
    def _assert_same(lam, ts, mus):
        gen = validate_generator([[-lam, lam], [0.0, 0.0]])
        assert gen.uniform_rate == lam
        for t in ts:
            for mu in mus:
                gen.mu = mu  # the schedule of any mu, not only of the generator's own
                assert semigroup._plan(gen, t) == plain_term_schedule(lam, t, mu), (t, mu)

    def test_rate_from_tiny_to_the_step_limit(self):
        ts = [5e-324, 1e-323, *np.logspace(-300.0, math.log10(128.0), 301), 128.0]
        self._assert_same(1.0, ts, [1.0, 1.5, 4.0])

    def test_growth_up_to_the_overflow_guard(self):
        # mu > 1 with log_growth = rate * (mu - 1) from 1e-3 up to 700
        for rate in (1e-3, 0.1, 1.0, 10.0, 128.0):
            mus = [1.0 + g / rate for g in (1e-3, 1.0, 50.0, 300.0, 699.0)]
            self._assert_same(1.0, [rate], [mu for mu in mus if rate * (mu - 1.0) <= 700.0])
        self._assert_same(1.0, [1.0], [701.0])

    def test_both_sides_of_the_step_limit(self):
        ts = [127.99999999999999, 128.0, 128.00000000000003, 129.0, 255.9, 256.0, 256.1,
              1000.0, 9000.0, 1e4]
        self._assert_same(1.0, ts, [1.0, 1.3])
        self._assert_same(3.7, [v / 3.7 for v in ts], [1.0, 2.0])

    def test_random_draws(self):
        rng = np.random.default_rng(20240821)
        for _ in range(300):
            lam = float(10.0 ** rng.uniform(-3.0, 3.0))
            t = float(10.0 ** rng.uniform(-12.0, math.log10(5000.0))) / lam
            rate = plain_term_schedule(lam, t, 1.0)[0]  # the step rate does not depend on mu
            mu = 1.0 if rng.uniform() < 0.3 else 1.0 + rng.uniform(0.0, 699.0) / rate
            self._assert_same(lam, [t], [mu])


class TestDegenerateRates:
    """lam*t below the double range, and a P = I + Q/lam beyond it."""

    def test_underflowing_rate_is_the_identity(self):
        gen = validate_generator([[-1e-300, 1e-300], [1e-300, -1e-300]])
        assert gen.uniform_rate * 1e-300 == 0.0
        block = np.array([[1.0, -2.0], [0.5, 3.0]])
        op = evolve(gen, 1e-300)
        assert op.matrix.tobytes() == np.eye(2).tobytes() and op.trunc_error == 0.0
        assert evolve_many(gen, [1e-300, 0.0]).tobytes() == np.stack([np.eye(2)] * 2).tobytes()
        assert np.array_equal(act(gen, 1e-300, block), block)

    def test_identity_evolutions_are_the_empty_schedule(self):
        # Q = 0 (P = 0/0 = NaN, read by no term) at any time, and a lam*t that
        # underflows, each evolve to I bit for bit, with no warning from numpy
        zero = [validate_generator(np.zeros((k, k))) for k in (1, 2, 3)]
        zero.append(semigroup.Generator(np.asfortranarray(np.zeros((3, 3)))))
        tiny = validate_generator([[-1e-300, 1e-300], [1e-300, -1e-300]])
        cases = [(gen, [0.0, -0.0, 0.5, 1e3]) for gen in zero] + [(tiny, [0.0, -0.0, 1e-30])]
        for gen, ts in cases:
            eye = np.eye(gen.dim).tobytes()
            assert [m.tobytes() for m in evolve_many(gen, ts)] == [eye] * len(ts)
            rows = np.random.default_rng(gen.dim).uniform(-2.0, 2.0, size=(3, gen.dim))
            rows[0, 0], rows[-1, -1] = -0.0, 5e-324
            for t in ts:
                op = evolve(gen, t)
                assert op.matrix.tobytes() == eye and op.trunc_error == 0.0
                assert op.t == t and math.copysign(1.0, op.t) == 1.0
                for F in (rows, np.asfortranarray(rows)):
                    out = act(gen, t, F)
                    assert out.flags.c_contiguous and not np.shares_memory(out, F)
                    assert out.tobytes() == rows.tobytes()

    def test_subnormal_rate_has_a_plan(self):
        # lam*t = 5e-324 is the smallest subnormal, and the tail ratio rate*mu/2 of
        # its first term rounds to 0: the tail bound is 0, not a math domain error
        gen = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        assert semigroup._plan(gen, 5e-324) == (5e-324, 0, 1, 0.0)
        want = np.array([[1.0, 5e-324], [5e-324, 1.0]])
        assert evolve(gen, 5e-324).matrix.tobytes() == want.tobytes()
        assert evolve_many(gen, [5e-324, 0.0]).tobytes() == np.stack([want, np.eye(2)]).tobytes()

    def test_non_finite_chain_is_an_overflow(self):
        # Q/lam overflows off the diagonal, with lam*t underflowing to 0 (NaN growth)
        # at t = 1e-300 and representable (infinite growth) at t = 1e-20
        gen = validate_generator([[-1e-300, 1e10], [0.0, 0.0]])
        outcomes = []
        for t in (1e-300, 1e-20):
            outcomes += [_outcome(lambda: evolve(gen, t)),
                         _outcome(lambda: evolve_many(gen, [0.0, t])),
                         _outcome(lambda: act(gen, t, np.ones((1, 2))))]
        assert outcomes[0][0] is EvolveOverflowError
        assert outcomes == [outcomes[0]] * 6


def _random_conservative(rng, max_norm=10.0):
    n = int(rng.integers(2, 7))
    rates = rng.uniform(0, 1, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    q = rates.copy()
    np.fill_diagonal(q, -rates.sum(axis=1))
    norm = np.max(np.sum(np.abs(q), axis=1))
    if norm > 0:
        q *= rng.uniform(0.2, 1.0) * max_norm / norm
    return validate_generator(q)


def test_structural_nonnegativity(rng):
    for _ in range(50):
        gen = _random_conservative(rng)
        t = float(rng.uniform(0, 5))
        assert evolve(gen, t).matrix.min() >= 0.0


def test_semigroup_law_random(rng):
    worst = 0.0
    for _ in range(200):
        gen = _random_conservative(rng)
        s = float(rng.uniform(0, 5))
        t = float(rng.uniform(0, 5))
        zs, zt, zst = evolve(gen, s), evolve(gen, t), evolve(gen, s + t)
        worst = max(worst, float(np.max(np.abs(zs.matrix @ zt.matrix - zst.matrix))))
    assert worst <= 1e-10


def test_row_stochastic_random(rng):
    for _ in range(50):
        gen = _random_conservative(rng)
        op = evolve(gen, float(rng.uniform(0, 5)))
        assert np.max(np.abs(op.matrix.sum(axis=1) - 1.0)) <= 1e-10


def test_order_monotone(rng):
    gen = _random_conservative(rng)
    for _ in range(20):
        f = rng.uniform(-2, 2, size=gen.dim)
        g = f + rng.uniform(0, 1, size=gen.dim)
        z = evolve(gen, 1.3).matrix
        assert np.min(z @ g - z @ f) >= -1e-14


def test_positive_part_contraction_subconservative(rng):
    # row sums <= 0: leak mass from a conservative generator
    for _ in range(20):
        gen0 = _random_conservative(rng, max_norm=4.0)
        q = gen0.q.copy()
        q[np.diag_indices_from(q)] -= rng.uniform(0, 0.5, size=gen0.dim)
        gen = validate_generator(q)
        t = float(rng.uniform(0, 3))
        f = rng.uniform(-2, 2, size=gen.dim)
        zf = evolve(gen, t).matrix @ f
        assert np.max(np.maximum(zf, 0.0)) <= np.max(np.maximum(f, 0.0)) + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 8), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.integers(0, 16),
)
def test_uniformization_properties(raw, tq):
    # integer rate matrices /4 give exactly representable generators
    rates = np.array(raw, dtype=float) / 4.0
    np.fill_diagonal(rates, 0.0)
    q = rates.copy()
    np.fill_diagonal(q, -rates.sum(axis=1))
    gen = validate_generator(q)
    op = evolve(gen, tq / 4.0)
    assert op.matrix.min() >= 0.0
    assert np.max(np.abs(op.matrix.sum(axis=1) - 1.0)) <= 1e-10


class TestAxiomChecks:
    def test_benchmark_composition(self):
        gen = validate_generator(BENCH_Q)
        entries = check_semigroup_axioms(gen, 0.3, 0.7, f=LatticeElement([1.0, 0.0]))
        by_name = {e.name: e for e in entries}
        assert by_name["composition"].defect <= 1e-12
        assert all_passed(entries)

    def test_zero_generator_exact(self):
        gen = validate_generator(np.zeros((2, 2)))
        entries = check_semigroup_axioms(gen, 0.4, 1.1, f=LatticeElement([1.0, 0.0]))
        assert all(e.defect == 0.0 for e in entries if e.name != "continuity_sweep_decreasing")
        assert all_passed(entries)

    def test_continuity_sweep_first_order(self):
        gen = validate_generator(BENCH_Q)
        f = LatticeElement([1.0, 0.0])
        entries = check_semigroup_axioms(gen, 0.2, 0.9, f=f)
        sweep = [e for e in entries if e.name == "continuity_sweep_decreasing"]
        assert len(sweep) == 1 and sweep[0].passed
        # defect at h is h * ||Qf|| to first order
        h = 1e-3
        defect = lattice_norm(evolve(gen, h).apply(f) - f)
        first_order = h * lattice_norm(LatticeElement(gen.q @ f.values))
        assert abs(defect - first_order) <= 5e-6

    def test_normalization_and_modulus(self, bench_gen):
        f = LatticeElement([1.0, -1.0])
        entries = check_positivity_and_normalization(bench_gen, 1.0, f)
        by_name = {e.name: e for e in entries}
        assert by_name["normalization"].passed
        assert by_name["modulus_bound"].passed
        assert by_name["positive_part_contraction"].passed
        # closed form: Z|f| = e and |Zf| = exp(-2t) * e
        zf = evolve(bench_gen, 1.0).apply(f)
        assert np.max(np.abs(np.abs(zf.values) - math.exp(-2.0))) <= 1e-12

    def test_normalization_fails_for_positive_row_sum(self):
        gen = validate_generator([[0.5, 0.5], [0.0, 0.0]])
        entries = check_positivity_and_normalization(gen, 1.0, LatticeElement([1.0, 1.0]))
        by_name = {e.name: e for e in entries}
        assert not by_name["normalization"].passed


class TestGeneratorEstimate:
    def test_zero_generator(self):
        gen = validate_generator(np.zeros((2, 2)))
        assert estimate_generator(gen, 1e-3, LatticeElement([1.0, 0.0])) == 0.0

    def test_taylor_bound(self, bench_gen):
        f = LatticeElement([1.0, 0.0])
        assert estimate_generator(bench_gen, 1e-4, f) <= 2e-4

    def test_halving_ratio(self, bench_gen):
        f = LatticeElement([1.0, 0.0])
        d1 = estimate_generator(bench_gen, 1e-3, f)
        d2 = estimate_generator(bench_gen, 5e-4, f)
        assert 1.5 <= d1 / d2 <= 2.5

    def test_bad_step(self, bench_gen):
        with pytest.raises(ValueError):
            estimate_generator(bench_gen, 0.0, LatticeElement([1.0, 0.0]))


# (q, the type and message that Generator(q, "g") and validate_generator(q, "g") raise)
BAD_GENERATORS = {
    "row": ([[0.0, 1.0]], NotSquareError, "generator must be square, got shape (1, 2)"),
    "vector": ([0.0, 1.0], NotSquareError, "generator must be square, got shape (2,)"),
    "empty": (np.zeros((0, 0)), NotSquareError,
              "generator must have at least one state, got shape (0, 0)"),
    "inf": ([[-1.0, np.inf], [0.0, 0.0]], NotSquareError, "generator entries must be finite"),
    "minus_inf_diagonal": ([[-np.inf, 1.0], [0.0, 0.0]], NotSquareError,
                           "generator entries must be finite"),
    "nan": ([[np.nan, 0.0], [0.0, 0.0]], NotSquareError, "generator entries must be finite"),
    "negative_off_diagonal": ([[-1.0, -0.5], [0.0, 0.0]], NegativeOffDiagonalError,
                              "off-diagonal entry (0,1) = -0.5 in 'g' is negative"),
    # the first negative entry in row order, whatever the layout of q
    "two_negative_off_diagonals": ([[-1.0, 0.0, -3.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                                   NegativeOffDiagonalError,
                                   "off-diagonal entry (0,2) = -3.0 in 'g' is negative"),
}


def _extreme_generators(count):
    """Validated generators with off-diagonal entries from 2^-40 to 2^40, signed
    zeros among them, and diagonals at, below and above minus the row sum."""
    rng = np.random.default_rng(19)
    gens = []
    for i in range(count):
        k = int(rng.integers(1, 7))
        q = rng.uniform(1.0, 2.0, size=(k, k)) * 2.0 ** rng.integers(-40, 41, size=(k, k))
        q[rng.uniform(size=(k, k)) < 0.25] = 0.0
        q[rng.uniform(size=(k, k)) < 0.25] = -0.0
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1) * (1.0, 0.5, 2.0)[i % 3])
        gens.append(validate_generator(q * 2.0 ** int(rng.integers(-40, 41))))
    return gens


class TestOperatorSurface:
    @pytest.mark.parametrize("name", sorted(BAD_GENERATORS))
    def test_generator_checks_the_hypothesis(self, name):
        raw, exc, message = BAD_GENERATORS[name]
        for q in (np.array(raw), np.asfortranarray(raw)):
            assert _outcome(lambda: semigroup.Generator(q, "g")) == (exc, message)
            assert _outcome(lambda: validate_generator(q, "g")) == (exc, message)
        # the diagonal may be negative, and an off-diagonal zero of either sign
        q = np.array([[-1.0, -0.0, 1.0], [0.0, -2.0, 2.0], [-0.0, 0.0, -0.0]])
        gen = validate_generator(q)
        assert gen.q.tobytes() == q.tobytes() and semigroup.Generator(q).q is q
        # validate_generator holds a read-only, C-ordered float copy
        for raw_q in (q, np.asfortranarray(q), q.astype(np.float32), q.tolist()):
            held = validate_generator(raw_q).q
            assert held.dtype == np.float64 and held.flags.c_contiguous
            assert not held.flags.writeable and not np.shares_memory(held, raw_q)

    def test_evolved_entries_are_nonnegative_with_no_clamp(self):
        # the series and its squarings keep every entry >= 0 on their own
        rng = np.random.default_rng(20)
        for gen in _extreme_generators(60):
            norm = gen.sup_norm or 1.0
            ts = [0.0, 5e-324, 1e-300 / norm, 1e-6 / norm, 0.7 / norm, 30.0 / norm, 500.0 / norm]
            shape = (3, gen.dim)
            block = rng.uniform(0.0, 2.0, size=shape) * 2.0 ** rng.integers(-40, 41, size=shape)
            block[0, 0] = -0.0
            for t in ts:
                op = evolve(gen, t)
                assert not op.matrix.flags.writeable
                assert (op.matrix >= 0.0).all() and (act(gen, t, block) >= 0.0).all(), (gen.q, t)
            assert (evolve_many(gen, ts) >= 0.0).all()

    def test_act_rejects_malformed_blocks(self, bench_gen):
        for bad in (np.ones(2), np.ones((1, 3)), np.ones((1, 2, 2))):
            with pytest.raises(ValueError, match=r"act needs an \(S, 2\) block, got shape"):
                act(bench_gen, 1.0, bad)

    def test_apply_dim_mismatch(self, bench_gen):
        op = evolve(bench_gen, 1.0)
        with pytest.raises(ValueError):
            op.apply(LatticeElement([1.0, 2.0, 3.0]))
