"""Closed-form reference values, independent of the package internals.

Everything here is computed with plain math/numpy expressions so the
library's own evolution and Gram code never feeds its own oracle. The one
exception is ``verify``, the reference of the verify driver, which runs the
package's single-case functions in the plainest loop.
"""

import math
from functools import partial

import numpy as np

# Symmetric 2-state exchange generator used across the suite.
BENCH_Q = [[-1.0, 1.0], [1.0, -1.0]]


def two_state_closed_form(t: float) -> np.ndarray:
    """exp(tQ) for Q = [[-1,1],[1,-1]] by eigendecomposition.

    Eigenvalues 0 and -2 with projectors (1/2)[[1,1],[1,1]] and
    (1/2)[[1,-1],[-1,1]].
    """
    d = math.exp(-2.0 * t)
    a = 0.5 * (1.0 + d)
    b = 0.5 * (1.0 - d)
    return np.array([[a, b], [b, a]])


def half_square(x):
    return np.asarray(x, dtype=float) ** 2 / 2.0


def power_map(x, p: float):
    """The normalized power member x^p / (p(p-1)) as a scalar map."""
    x = np.asarray(x, dtype=float)
    return x ** p / (p * (p - 1.0))


def jessen_residual_2state(t: float, f, scalar_map) -> np.ndarray:
    """Z(t)(phi f) - phi(Z(t) f) via the closed-form matrix."""
    z = two_state_closed_form(t)
    f = np.asarray(f, dtype=float)
    return z @ scalar_map(f) - scalar_map(z @ f)


def sym2_eigs(m: np.ndarray) -> tuple:
    """Eigenvalues of a symmetric 2x2 by the quadratic formula, sorted."""
    a, b, c = float(m[0, 0]), float(m[0, 1]), float(m[1, 1])
    half_tr = 0.5 * (a + c)
    root = math.hypot(0.5 * (a - c), b)
    return (half_tr - root, half_tr + root)


def brute_quad_form(h_map, x_list, xi_list, midpoint: bool) -> np.ndarray:
    """Nested-loop quadratic form sum_ij xi_i xi_j H(arg_ij)."""
    x = [float(v) for v in x_list]
    xi = [float(v) for v in xi_list]
    total = None
    for i, xiv in enumerate(xi):
        for j, xjv in enumerate(xi):
            arg = (x[i] + x[j]) / 2.0 if midpoint else x[i] + x[j]
            term = xiv * xjv * np.asarray(h_map(arg), dtype=float)
            total = term if total is None else total + term
    return total


def plain_term_schedule(lam: float, t: float, mu: float) -> tuple:
    """(rate, splits, terms, tail) of the uniformization series at lam*t > 0.

    The schedule as a plain loop: halve lam*t until it is at most 128,
    then track log b_k = log(exp(-rate) (rate mu)^k / k!) with one
    math.log per term and test the geometric tail bound
    b_k ratio / (1 - ratio) against 1e-17 exp(rate (mu - 1)) at every k
    with ratio = rate mu / (k + 1) < 1.
    """
    splits = 0
    while lam * t / (2 ** splits) > 128.0:
        splits += 1
    rate = lam * (t / (2 ** splits))
    log_growth = rate * (mu - 1.0)
    log_b = -rate
    log_target = math.log(1e-17) + log_growth
    rate_mu = rate * mu
    log_rate_mu = math.log(rate_mu)
    max_iter = int(rate_mu + 60.0 * math.sqrt(rate_mu + 1.0) + 400)
    for k in range(1, max_iter + 1):
        log_b += log_rate_mu - math.log(k)
        ratio = rate_mu / (k + 1)
        if ratio < 1.0:
            # a ratio that underflows to 0 (a subnormal rate) takes its log as a difference
            log_ratio = math.log(ratio) if ratio > 0.0 else log_rate_mu - math.log(k + 1)
            log_tail = log_b + log_ratio - math.log(1.0 - ratio)
            if log_tail <= log_target:
                return rate, splits, k, math.exp(log_tail)
    raise AssertionError("no term count reaches the tail target")


def eye_plus_chain(gen):
    """P of ``semigroup._chain`` formed as np.eye(K) + Q/lam.

    The chain as a sum of two K x K arrays, the reference for the P that
    ``_chain`` builds in place; all NaN for Q = 0 (0/0), as there.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.eye(gen.dim) + gen.q / gen.uniform_rate


def chain_mu(gen, from_p=False):
    """mu of the generator, the largest row sum of P: max(1, 1 + max_i rowsum_i(Q)/lam)
    in Python floats, as ``Generator`` forms it, or 1.0 for Q = 0. With ``from_p``
    it is the largest row sum of ``eye_plus_chain(gen)`` summed over P, which can
    differ from that in the last bits.
    """
    if not gen.uniform_rate:
        return 1.0
    if from_p:
        with np.errstate(over="ignore", invalid="ignore"):
            return max(1.0, float(eye_plus_chain(gen).sum(axis=1).max()))
    return max(1.0, 1.0 + float(gen.q.sum(axis=1).max()) / gen.uniform_rate)


def plain_series(term, m, coefs) -> np.ndarray:
    """The uniformized series sum with two new arrays per term.

    The allocating loop: term_k = term_{k-1} @ m * c_k and total += term_k,
    the reference for the in-place buffers of ``semigroup._series``.
    """
    total = term.copy()
    for c in coefs:
        term = term @ m * c
        total += term
    return total


def row_block_act(gen, t: float, F) -> np.ndarray:
    """Z(t) applied to the rows of F as the series in F @ (P^T)^k.

    The row-block route: P = I + Q/lam is transposed into a contiguous
    copy and every term is one (S, K) x (K, K) product, with the schedule
    of ``plain_term_schedule`` and 2^splits steps in sequence.
    """
    block = np.array(F, dtype=float)
    if not gen.uniform_rate or t == 0.0:
        return block
    p = eye_plus_chain(gen)
    rate, splits, terms, _ = plain_term_schedule(gen.uniform_rate, t, chain_mu(gen))
    pt = np.ascontiguousarray(p.T)
    for _ in range(2 ** splits):
        term = math.exp(-rate) * block
        block = term.copy()
        for k in range(1, terms + 1):
            term = term @ pt * (rate / k)
            block += term
    return block


def band_width(gen) -> int:
    """b = max |i - j| over the nonzero q_ij, 0 for Q = 0, by a loop over the entries."""
    return max((abs(i - j) for i, j in zip(*np.nonzero(gen.q))), default=0)


def band_diagonals(gen) -> np.ndarray:
    """W of ``semigroup._diagonals``: row b + d holds diagonal d of
    ``eye_plus_chain(gen)`` at the rows i of P that it meets, 0 elsewhere."""
    b, k = band_width(gen), gen.dim
    p = eye_plus_chain(gen)
    w = np.zeros((2 * b + 1, k))
    for d in range(-b, b + 1):
        for i in range(k):
            if 0 <= i + d < k:
                w[b + d, i] = p[i, i + d]
    return w


def plain_band_series(term, w, coefs) -> np.ndarray:
    """The banded series with new arrays per term, the reference for
    ``semigroup._band_series``: term_k is the sum over d = -b, ..., b, in that
    order, of w_d times term_{k-1} shifted by d (column i reads column i + d,
    and 0 off the block), then times c_k; total += term_k."""
    b, k = len(w) // 2, term.shape[1]
    total = term.copy()
    for c in coefs:
        acc = None
        for d in range(-b, b + 1):
            shifted = np.zeros_like(term)
            shifted[:, max(0, -d):k - max(0, d)] = term[:, max(0, d):k - max(0, -d)]
            part = w[b + d] * shifted
            acc = part if acc is None else acc + part
        term = acc * c
        total += term
    return total


def band_act(gen, t: float, F) -> np.ndarray:
    """Z(t) applied to the rows of F as the banded series ``plain_band_series``
    on ``band_diagonals``, with the schedule of ``plain_term_schedule`` and
    2^splits steps in sequence."""
    block = np.array(F, dtype=float)
    if not gen.uniform_rate or t == 0.0:
        return block
    w = band_diagonals(gen)
    rate, splits, terms, _ = plain_term_schedule(gen.uniform_rate, t, chain_mu(gen))
    for _ in range(2 ** splits):
        block = plain_band_series(math.exp(-rate) * block, w, [rate / k for k in range(1, terms + 1)])
    return block


def abs_row_sum_norm(q) -> float:
    """max_i sum_j |q_ij|, with |Q| formed entry by entry."""
    return float(np.max(np.sum(np.abs(np.asarray(q, dtype=float)), axis=1)))


def single_row_adjoint(z, phi, fstar, f) -> tuple:
    """The six fields of one adjoint pairing, with plain 1-D products on one
    row: Z = ``z``, the map ``phi`` entrywise, the dual ``fstar`` and ``f``."""
    lhs = float(z.T @ fstar @ f)
    rhs = float(fstar @ (z @ f))
    phi_zf, z_phi_f = phi(z @ f), z @ phi(f)
    gap = float(fstar @ z_phi_f) - float(fstar @ phi_zf)
    pairing = float(fstar @ (z_phi_f - phi_zf))
    defect = abs(lhs - rhs)
    return defect, gap, pairing, abs(gap - pairing), defect <= 1e-12, gap >= -1e-9


def verify(cfg) -> dict:
    """The report of ``sgineq verify`` on a ``SuiteConfig``, from the plainest loop.

    It draws from one rng on the stream of ``run_config_verification`` and
    loops over (generator, family, t, sample), one row at a time. Unlike the
    rest of this module it runs the package's single-case functions: the two
    axiom suites, ``evolve``, ``build_gram``, ``check_order_psd`` and
    ``verify_jessen``. The Jessen and adjoint values of a row are the plain
    1-D products ``z @ f`` and ``single_row_adjoint``, with each pass rule
    written out. ``_members_sides`` on the block of one (generator, family, t)
    stands for the input checks, so the first error raised, in loop order,
    is that of the loop that checked each time's block on its own.
    """
    from sgineq.expconv import ExponentSet, build_gram, check_order_psd
    from sgineq.families import PowerFamily
    from sgineq.jessen import NotNormalizedError, _members_sides, jessen_report, verify_jessen
    from sgineq.lattice import Ordering
    from sgineq.semigroup import _stack_act, evolve
    from sgineq.suites import (_family_domain_kind, random_domain_element,
                               run_lattice_axiom_suite, run_semigroup_axiom_suite)

    bad = [g for g in cfg.generators if not g.conservative]
    if bad and not cfg.allow_unnormalized:
        label = bad[0].name or f"generator of dim {bad[0].dim}"
        raise NotNormalizedError(
            f"{label} is not conservative; set allow_unnormalized to run it as a control")
    gens = [g for g in cfg.generators if g.conservative]
    psets = [ExponentSet(ps, family_kind="F") for ps in cfg.p_sets]
    rng = np.random.default_rng(cfg.seed)
    suites = {}

    lattice = []
    for dim in sorted({g.dim for g in cfg.generators}):
        lattice += run_lattice_axiom_suite(dim, cfg.samples, int(rng.integers(0, 2 ** 31)))
    semigroup = run_semigroup_axiom_suite(gens, max(2, cfg.samples // 10),
                                          int(rng.integers(0, 2 ** 31)))
    for name, entries in (("lattice_axioms", lattice), ("semigroup_axioms", semigroup)):
        suites[name] = {"checks": [e.to_json() for e in entries],
                        "passed": all(e.passed for e in entries)}
    ops = [[evolve(gen, t) for t in cfg.t_grid] for gen in gens]

    cases, min_slack = [], math.inf
    for gen, gen_ops in zip(gens, ops):
        for fam in cfg.families:
            kind = _family_domain_kind(fam)
            for t, op in zip(cfg.t_grid, gen_ops):
                block = np.array([random_domain_element(rng, gen.dim, kind).values
                                  for _ in range(cfg.samples)])
                # for the errors of its input checks
                _members_sides(partial(_stack_act, op.matrix[None]), [fam], block[None, None])
                for f in block:
                    phi_zf, z_phi_f = fam.value(op.matrix @ f), op.matrix @ fam.value(f)
                    rep = jessen_report(phi_zf, z_phi_f, cfg.order_tol, t, fam, gen)
                    floor = -1e-9 * (1.0 + float(np.max(np.abs(rep.residual.values))))
                    min_slack = min(min_slack, rep.min_slack)
                    if rep.verdict not in (Ordering.LEQ, Ordering.EQUAL) or rep.min_slack < floor:
                        cases.append(rep.to_json())
    suites["jessen"] = {
        "aggregate": {"min_slack": None if min_slack == math.inf else min_slack,
                      "failures": len(cases)},
        "failed_cases": cases,
        "passed": not cases,
    }

    worst_tr, worst_gap, failures = 0.0, math.inf, 0
    for gen, gen_ops in zip(gens, ops):
        for fam in cfg.families:
            kind = _family_domain_kind(fam)
            for op in gen_ops:
                f = random_domain_element(rng, gen.dim, kind).values
                raw = rng.uniform(0.0, 1.0, size=gen.dim)
                fstar = raw / max(raw.sum(), 1e-12)
                # for the errors of its input checks
                _members_sides(partial(_stack_act, op.matrix[None]), [fam], f[None, None, None])
                defect, gap, _, consistency, transpose_ok, gap_ok = single_row_adjoint(
                    op.matrix, fam.value, fstar, f)
                worst_tr, worst_gap = max(worst_tr, defect), min(worst_gap, gap)
                failures += not (transpose_ok and gap_ok and consistency <= 1e-10)
    suites["adjoint"] = {
        "aggregate": {"max_transpose_defect": worst_tr,
                      "min_weak_gap": None if worst_gap == math.inf else worst_gap,
                      "failures": failures},
        "passed": failures == 0,
    }

    records = []
    for gen in gens:
        for pset in psets:
            for t in cfg.t_grid:
                if t != 0.0:
                    gram = build_gram(gen, random_domain_element(rng, gen.dim, "F"), t, pset)
                    rep = check_order_psd(gram, n_xi=200, seed=int(rng.integers(0, 2 ** 31)),
                                          tol=cfg.psd_tol)
                    records.append({"p": list(pset.p), "t": t, "generator": gen.name}
                                   | rep.to_json())
    suites["gram_psd"] = {"records": records,
                          "passed": all(rec["spectral_pass"] and rec["sampled_pass"]
                                        for rec in records)}
    passed = all(suite["passed"] for suite in suites.values())

    if bad:
        observed = [
            verify_jessen(gen, PowerFamily(2.0), random_domain_element(rng, gen.dim, "F"), t,
                          allow_unnormalized=True).to_json()
            for gen in bad for t in cfg.t_grid if t != 0.0
        ]
        suites["observed_controls"] = {
            "note": "non-conservative generators under override; diagnostics only",
            "cases": observed,
        }
    return {"config": cfg.to_json(), "suites": suites, "passed": passed}
