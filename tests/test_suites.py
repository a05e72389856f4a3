import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgineq import jessen, suites
from sgineq.cli import DEFAULT_CONFIG
from sgineq.jessen import DualVector, jessen_sides, verify_adjoint_pairing
from sgineq.lattice import LatticeElement, Ordering, partial_leq
from sgineq.semigroup import NegativeOffDiagonalError, evolve
from sgineq.suites import (
    MAX_SAMPLE_WORK,
    ConfigError,
    SuiteConfig,
    config_from_json,
    random_domain_element,
    run_config_verification,
)

THREE_STATE = dict(
    DEFAULT_CONFIG,
    generators=[{"q": [[-1.5, 1.0, 0.5], [0.2, -0.7, 0.5], [2.0, 1.0, -3.0]], "name": "three"}],
    t_grid=[0.0, 0.5, 2.0],
    samples=12,
    seed=7,
)


def skip_axiom_suite_seeds(cfg):
    """An rng at the point where run_config_verification draws its Jessen blocks."""
    rng = np.random.default_rng(cfg.seed)
    for _ in {g.dim for g in cfg.generators}:
        rng.integers(0, 2 ** 31)  # one lattice axiom suite seed per dim
    rng.integers(0, 2 ** 31)  # the semigroup axiom suite seed
    return rng


def reference_aggregates(cfg):
    """The Jessen and adjoint aggregates of run_config_verification, from a
    per-sample loop on the same rng stream: the kernel on one row of the
    evolved matrix (the route the block driver takes; ``verify_jessen``
    applies Z(t) without forming it, so its last bits may differ) and the
    single-case adjoint verifier."""
    rng = skip_axiom_suite_seeds(cfg)
    gens = [g for g in cfg.generators if g.conservative]

    min_slack, failures = math.inf, 0
    for gen in gens:
        for fam in cfg.families:
            kind = suites._family_domain_kind(fam)
            for t in cfg.t_grid:
                for _ in range(cfg.samples):
                    f = random_domain_element(rng, gen.dim, kind)
                    phi_zf, z_phi_f = jessen_sides(evolve(gen, t).act, fam, f.values[None, :])
                    lhs, rhs = LatticeElement(phi_zf[0]), LatticeElement(z_phi_f[0])
                    verdict = partial_leq(lhs, rhs, cfg.order_tol)
                    residual = (rhs - lhs).values
                    floor = -1e-9 * (1.0 + float(np.max(np.abs(residual))))
                    slack = float(np.min(residual))
                    min_slack = min(min_slack, slack)
                    if verdict not in (Ordering.LEQ, Ordering.EQUAL) or slack < floor:
                        failures += 1
    jessen_agg = {"min_slack": min_slack, "failures": failures}

    worst_tr, worst_gap, adj_failures = 0.0, math.inf, 0
    for gen in gens:
        for fam in cfg.families:
            kind = suites._family_domain_kind(fam)
            for t in cfg.t_grid:
                f = random_domain_element(rng, gen.dim, kind)
                raw = rng.uniform(0.0, 1.0, size=gen.dim)
                rep = verify_adjoint_pairing(gen, fam, DualVector(raw / max(raw.sum(), 1e-12)), f, t)
                worst_tr = max(worst_tr, rep.transpose_defect)
                worst_gap = min(worst_gap, rep.weak_gap)
                adj_failures += not (rep.transpose_ok and rep.gap_ok)
    adjoint_agg = {
        "max_transpose_defect": worst_tr,
        "min_weak_gap": worst_gap,
        "failures": adj_failures,
    }
    return jessen_agg, adjoint_agg


class TestConfigVerification:
    @pytest.mark.parametrize("data", [DEFAULT_CONFIG, THREE_STATE], ids=["bundled", "three_state"])
    def test_aggregates_match_per_sample_loop(self, data):
        cfg = config_from_json(data)
        report = run_config_verification(cfg)
        jessen_agg, adjoint_agg = reference_aggregates(cfg)
        assert report["suites"]["jessen"]["aggregate"] == jessen_agg
        assert report["suites"]["adjoint"]["aggregate"] == adjoint_agg
        assert report["suites"]["jessen"]["failed_cases"] == []

    def test_jessen_and_adjoint_evolve_once_per_generator_and_time(self, monkeypatch):
        calls = []
        real_evolve = suites.evolve

        def spy(gen, t, *args, **kwargs):
            calls.append((gen.name, t))
            return real_evolve(gen, t, *args, **kwargs)

        monkeypatch.setattr(suites, "evolve", spy)
        monkeypatch.setattr(jessen, "evolve", spy)
        # the semigroup axiom suite evolves at its own random times
        monkeypatch.setattr(suites, "run_semigroup_axiom_suite", lambda *args, **kwargs: [])
        data = dict(
            THREE_STATE,
            generators=THREE_STATE["generators"] + [DEFAULT_CONFIG["generators"][0]],
            t_grid=[0.5, 1.0, 0.5],
            p_sets=[],
        )
        report = run_config_verification(config_from_json(data))
        assert report["passed"] is True
        assert sorted(calls) == sorted((name, t) for name in ("three", "benchmark2") for t in (0.5, 1.0))

    def test_slack_floor_fails_residual_inside_loose_band(self):
        # Row sums of 1e-12 pass as conservative, but at t = 1e6 Z(t) scales
        # coordinate 0 by e^(1e-6), so the residual there is about
        # -1e-6 * f^2 / 2 <= -2e-8: inside atol = 1e-3, below the slack floor.
        cfg = config_from_json({
            "generators": [{"q": [[1e-12, 0.0], [0.0, 0.0]], "name": "leaky"}],
            "families": [{"family": "PowerF", "t": 2.0}],
            "t_grid": [1e6],
            "samples": 5,
            "tolerances": {"atol": 1e-3},
        })
        jes = run_config_verification(cfg)["suites"]["jessen"]
        assert jes["passed"] is False
        assert jes["aggregate"]["failures"] == 5
        assert len(jes["failed_cases"]) == 5
        assert {case["verdict"] for case in jes["failed_cases"]} <= {"LEQ", "EQUAL"}
        assert max(case["min_slack"] for case in jes["failed_cases"]) < -1e-9
        # each record carries its own block row's residual, bit for bit
        gen, fam = cfg.generators[0], cfg.families[0]
        block = skip_axiom_suite_seeds(cfg).uniform(0.2, 3.0, size=(5, 2))
        phi_zf, z_phi_f = jessen_sides(evolve(gen, 1e6).act, fam, block)
        residual = z_phi_f - phi_zf
        assert [case["residual"] for case in jes["failed_cases"]] == residual.tolist()
        assert [case["min_slack"] for case in jes["failed_cases"]] == residual.min(axis=1).tolist()


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
MATRICES = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.floats(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
FIELD_VALUES = {
    "generators": st.lists(st.fixed_dictionaries({"q": MATRICES}) | JSON_VALUES, max_size=3),
    "families": st.lists(
        st.fixed_dictionaries({"family": st.sampled_from(["PowerF", "ExpH", "NegLog", "Entropy",
                                                          "HalfSquare", "Other"]),
                               "t": JSON_SCALARS}) | JSON_VALUES, max_size=3),
    "t_grid": st.lists(JSON_SCALARS, max_size=3),
    "p_sets": st.lists(st.lists(JSON_SCALARS, max_size=3) | JSON_SCALARS, max_size=3),
    "samples": JSON_SCALARS,
    "seed": JSON_SCALARS,
    "tolerances": st.dictionaries(st.sampled_from(["atol", "rtol", "psd"]), JSON_SCALARS) | JSON_VALUES,
    "allow_unnormalized": JSON_SCALARS,
    "output_dir": JSON_SCALARS,
}
# Relative generator refs resolve here and never find a file.
MISSING_DIR = Path(__file__).resolve().parent / "no-such-directory"


@settings(max_examples=400, deadline=None)
@given(
    st.fixed_dictionaries({}, optional={key: FIELD_VALUES[key] | JSON_VALUES for key in FIELD_VALUES}),
    st.sets(st.sampled_from(sorted(FIELD_VALUES))),
)
def test_config_from_json_returns_config_or_config_error(overrides, dropped):
    data = {k: v for k, v in dict(DEFAULT_CONFIG, **overrides).items() if k not in dropped}
    try:
        cfg = config_from_json(data, base_dir=MISSING_DIR)
    except ConfigError:
        return
    except NegativeOffDiagonalError:
        # a generator outside the Metzler class is a hypothesis violation (exit 2)
        return
    assert isinstance(cfg, SuiteConfig)
    assert cfg.samples >= 1 and cfg.seed >= 0
    assert all(math.isfinite(t) and t >= 0 for t in cfg.t_grid)
    assert cfg.samples * sum(g.dim for g in cfg.generators) * len(cfg.families) \
        * len(cfg.t_grid) <= MAX_SAMPLE_WORK


def test_bundled_config_is_far_inside_the_work_budget():
    cfg = config_from_json(DEFAULT_CONFIG)
    assert cfg.samples * 2 * len(cfg.families) * len(cfg.t_grid) == 2160 < MAX_SAMPLE_WORK
    with pytest.raises(ConfigError, match="work budget"):
        config_from_json(dict(DEFAULT_CONFIG, samples=MAX_SAMPLE_WORK))
