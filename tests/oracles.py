"""Closed-form reference values, independent of the package internals.

Everything here is computed with plain math/numpy expressions so the
library's own evolution and Gram code never feeds its own oracle.
"""

import math

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
            log_tail = log_b + math.log(ratio) - math.log(1.0 - ratio)
            if log_tail <= log_target:
                return rate, splits, k, math.exp(log_tail)
    raise AssertionError("no term count reaches the tail target")


def eye_plus_chain(gen):
    """(P, mu) of ``semigroup._chain`` with P formed as np.eye(K) + Q/lam.

    The chain as a sum of two K x K arrays, the reference for the P that
    ``_chain`` builds in place; (None, 1.0) for Q = 0.
    """
    if not gen.uniform_rate:
        return None, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.eye(gen.dim) + gen.q / gen.uniform_rate
        return p, max(1.0, float(p.sum(axis=1).max()))


def row_block_act(gen, t: float, F) -> np.ndarray:
    """Z(t) applied to the rows of F as the series in F @ (P^T)^k.

    The row-block route: P = I + Q/lam is transposed into a contiguous
    copy and every term is one (S, K) x (K, K) product, with the schedule
    of ``plain_term_schedule`` and 2^splits steps in sequence.
    """
    block = np.array(F, dtype=float)
    p, mu = eye_plus_chain(gen)
    if p is None or t == 0.0:
        return block
    rate, splits, terms, _ = plain_term_schedule(gen.uniform_rate, t, mu)
    pt = np.ascontiguousarray(p.T)
    for _ in range(2 ** splits):
        term = math.exp(-rate) * block
        block = term.copy()
        for k in range(1, terms + 1):
            term = term @ pt * (rate / k)
            block += term
    return block


def abs_row_sum_norm(q) -> float:
    """max_i sum_j |q_ij|, with |Q| formed entry by entry."""
    return float(np.max(np.sum(np.abs(np.asarray(q, dtype=float)), axis=1)))
