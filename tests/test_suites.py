import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings, strategies as st

from sgineq import cli, jessen, lattice, semigroup, suites
from sgineq.cli import DEFAULT_CONFIG
from sgineq.jessen import DualVector, jessen_sides, verify_adjoint_pairing
from sgineq.lattice import LatticeElement, Ordering, partial_leq
from sgineq.semigroup import (
    NegativeOffDiagonalError,
    check_positivity_and_normalization,
    check_semigroup_axioms,
    evolve,
    validate_generator,
)
from sgineq.suites import (
    MAX_SAMPLE_WORK,
    ConfigError,
    SuiteConfig,
    config_from_json,
    random_conservative_generator,
    random_domain_element,
    random_positive_generator,
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


# Small sample counts, valid or not, so each fuzzed verify run stays short.
SMALL_SAMPLES = (st.integers(-1, 6) | st.lists(st.integers(), max_size=2)
                 | JSON_SCALARS.filter(lambda v: not isinstance(v, (int, float)) or abs(v) <= 6))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.fixed_dictionaries({}, optional={key: SMALL_SAMPLES if key == "samples" else FIELD_VALUES[key]
                                        for key in FIELD_VALUES}),
    st.sets(st.sampled_from(sorted(FIELD_VALUES))),
)
def test_cli_verify_exit_code_contract(monkeypatch, overrides, dropped):
    monkeypatch.delenv("SGINEQ_OUTPUT_DIR", raising=False)
    data = {k: v for k, v in dict(DEFAULT_CONFIG, **overrides).items() if k not in dropped}
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(data))
        code = cli.main(["verify", "--config", str(config), "--out", str(out)])
        assert code in (0, 1, 2, 64)
        if code in (0, 1):
            report = json.loads((out / "report.json").read_text())
            assert report["passed"] is (code == 0)


def test_bundled_config_is_far_inside_the_work_budget():
    cfg = config_from_json(DEFAULT_CONFIG)
    assert cfg.samples * 2 * len(cfg.families) * len(cfg.t_grid) == 2160 < MAX_SAMPLE_WORK
    with pytest.raises(ConfigError, match="work budget"):
        config_from_json(dict(DEFAULT_CONFIG, samples=MAX_SAMPLE_WORK))


def test_committed_cap_config_sits_at_the_work_budget():
    # the CI run of this config is the time bound on a verify at the cap
    path = Path(__file__).resolve().parents[1] / "configs" / "at_sample_cap.json"
    cfg = config_from_json(json.loads(path.read_text()))
    assert cfg.samples * sum(g.dim for g in cfg.generators) * len(cfg.families) \
        * len(cfg.t_grid) == MAX_SAMPLE_WORK


LATTICE_CHECKS = ("absorption", "decomposition", "modulus_triangle", "norm_compatibility",
                  "norm_submultiplicative", "unit_norm")


def lattice_suite_reference(dim, samples, seed):
    """Defects of run_lattice_axiom_suite from a per-sample loop over the
    same draws, one pair of lattice elements per sample row, with the
    norms taken by ``lattice_norm``."""
    rng = np.random.default_rng(seed)
    F = rng.uniform(-5, 5, size=(samples, dim))
    G = rng.uniform(-5, 5, size=(samples, dim))
    U = rng.uniform(-1.0, 1.0, size=(samples, dim))
    worst = dict.fromkeys(LATTICE_CHECKS, 0.0)
    for fv, gv, uv in zip(F, G, U):
        f, g, h = LatticeElement(fv), LatticeElement(gv), LatticeElement(gv * uv)
        j, m = lattice.join(f, g), lattice.meet(f, g)
        worst["absorption"] = max(
            worst["absorption"],
            float(np.max(np.abs(lattice.join(f, m).values - f.values))),
            float(np.max(np.abs(lattice.meet(f, j).values - f.values))),
        )
        pos, neg = lattice.pos_part(f), lattice.neg_part(f)
        worst["decomposition"] = max(
            worst["decomposition"],
            float(np.max(np.abs((pos - neg).values - f.values))),
            float(np.max(np.abs((pos + neg).values - lattice.abs_val(f).values))),
        )
        worst["modulus_triangle"] = max(
            worst["modulus_triangle"],
            float(np.max(lattice.abs_val(f + g).values
                         - (lattice.abs_val(f) + lattice.abs_val(g)).values)),
        )
        worst["norm_compatibility"] = max(
            worst["norm_compatibility"], lattice.lattice_norm(h) - lattice.lattice_norm(g)
        )
        worst["norm_submultiplicative"] = max(
            worst["norm_submultiplicative"],
            lattice.lattice_norm(lattice.multiply(f, g))
            - lattice.lattice_norm(f) * lattice.lattice_norm(g),
        )
    worst["unit_norm"] = abs(lattice.lattice_norm(LatticeElement(np.ones(dim))) - 1.0)
    return worst


# name -> (lattice function to replace, replacement, check that must fail)
LATTICE_MUTATIONS = {
    "join_is_meet": ("join", lattice.meet, "absorption"),
    "meet_is_join": ("meet", lattice.join, "absorption"),
    "pos_part_is_abs": ("pos_part", lattice.abs_val, "decomposition"),
    "neg_part_is_zero": ("neg_part", lambda f: LatticeElement(np.zeros(f.dim)), "decomposition"),
    "abs_val_is_identity": ("abs_val", lambda f: f, "decomposition"),
    "abs_val_is_square": ("abs_val", lambda f: LatticeElement(f.values * f.values),
                          "modulus_triangle"),
    "multiply_doubles": ("multiply", lambda f, g: LatticeElement(2.0 * f.values * g.values),
                         "norm_submultiplicative"),
    "lattice_norm_doubles": ("lattice_norm", lambda f: 2.0 * float(np.max(np.abs(f.values))),
                             "unit_norm"),
}


class TestLatticeAxiomSuite:
    @pytest.mark.parametrize("mutation", [None, *(m for m in LATTICE_MUTATIONS
                                                  if m != "lattice_norm_doubles")])
    @pytest.mark.parametrize("dim,samples,seed", [(1, 1, 0), (2, 40, 5), (3, 7, 11), (8, 300, 2)])
    def test_block_matches_per_sample_loop(self, monkeypatch, mutation, dim, samples, seed):
        # the norm checks are row reductions, so a mutated lattice_norm
        # reaches only the loop; every other op reaches both
        if mutation is not None:
            name, replacement, _ = LATTICE_MUTATIONS[mutation]
            monkeypatch.setattr(lattice, name, replacement)
        entries = suites.run_lattice_axiom_suite(dim, samples, seed)
        want = lattice_suite_reference(dim, samples, seed)
        assert [e.name for e in entries] == list(LATTICE_CHECKS)
        assert {e.name: e.defect for e in entries} == want
        assert all(math.copysign(1.0, e.defect) == 1.0 for e in entries)
        if mutation is None:
            assert all(e.passed and e.defect == 0.0 for e in entries)

    @pytest.mark.parametrize("mutation", sorted(LATTICE_MUTATIONS))
    def test_mutated_op_fails_its_check(self, monkeypatch, mutation):
        name, replacement, check = LATTICE_MUTATIONS[mutation]
        monkeypatch.setattr(lattice, name, replacement)
        failed = {e.name for e in suites.run_lattice_axiom_suite(3, 50, 1) if not e.passed}
        assert check in failed


def semigroup_suite_reference(generators, samples, seed):
    """Entries of run_semigroup_axiom_suite from a per-sample loop over the
    same draws: three ``evolve`` calls and one matrix product per (s, t)
    sample, with each defect as its bytes."""
    rng = np.random.default_rng(seed)
    tol = 1e-10
    entries = []
    for gen in generators:
        label = gen.name or f"dim{gen.dim}"
        law = neg = norm = 0.0
        for _ in range(samples):
            s = float(rng.uniform(0.0, 2.5))
            t = float(rng.uniform(0.0, 2.5))
            zs, zt, zst = (evolve(gen, x).matrix for x in (s, t, s + t))
            law = max(law, float(np.max(np.abs(zs @ zt - zst))))
            neg = max(neg, float(-np.min(zst)))
            if gen.conservative:
                norm = max(norm, float(np.max(np.abs(zst.sum(axis=1) - 1.0))))
        sampled = [(f"{label}:composition", law <= tol, law, tol),
                   (f"{label}:nonnegativity", neg <= 0.0, neg, 0.0)]
        if gen.conservative:
            sampled.append((f"{label}:normalization", norm <= tol, norm, tol))
        f = LatticeElement(rng.uniform(-1.0, 2.0, size=gen.dim))
        fixed = (check_semigroup_axioms(gen, 0.4, 1.1, f=f)
                 + check_positivity_and_normalization(gen, 0.7, f))
        entries += sampled + [(e.name, e.passed, e.defect, e.tol) for e in fixed]
    return [(name, ok, np.float64(defect).tobytes(), bound) for name, ok, defect, bound in entries]


def _suite_generators(case):
    rng = np.random.default_rng(17)
    if case == "bundled":
        return [validate_generator(DEFAULT_CONFIG["generators"][0]["q"], name="benchmark2")]
    if case == "k5_and_nonconservative":
        return [random_conservative_generator(rng, min_dim=5, max_dim=5, name="k5"),
                random_positive_generator(rng, max_dim=3)]
    # lam = 60, so lam * (s + t) reaches 300 and the times need splits
    return [validate_generator([[-60.0, 60.0], [30.0, -30.0]], name="split")]


class TestSemigroupAxiomSuite:
    @pytest.mark.parametrize("stack_entries", [None, 40])
    @pytest.mark.parametrize("case,samples,seed", [("bundled", 40, 3),
                                                   ("k5_and_nonconservative", 30, 11),
                                                   ("split", 25, 5)])
    def test_matches_per_sample_loop(self, monkeypatch, case, samples, seed, stack_entries):
        # a small stack bound splits the samples into many chunks
        if stack_entries is not None:
            monkeypatch.setattr(suites, "_STACK_ENTRIES", stack_entries)
        gens = _suite_generators(case)
        entries = suites.run_semigroup_axiom_suite(gens, samples, seed)
        got = [(e.name, e.passed, np.float64(e.defect).tobytes(), e.tol) for e in entries]
        assert got == semigroup_suite_reference(gens, samples, seed)

    def test_no_per_sample_evolve_call(self, monkeypatch):
        calls = []
        real_evolve = semigroup.evolve

        def spy(gen, t, *args, **kwargs):
            calls.append(t)
            return real_evolve(gen, t, *args, **kwargs)

        monkeypatch.setattr(suites, "evolve", spy)
        monkeypatch.setattr(semigroup, "evolve", spy)
        gens = _suite_generators("k5_and_nonconservative")
        suites.run_semigroup_axiom_suite(gens, 200, 1)
        # the one remaining call per generator is the positivity check at t = 0.7
        assert calls == [0.7] * len(gens)


def test_bundled_suite_evolve_many_operators_match_expm(monkeypatch):
    batches = []
    real_evolve_many = semigroup.evolve_many

    def spy(gen, ts):
        ts = list(ts)
        stack = real_evolve_many(gen, ts)
        batches.append((gen, ts, stack))
        return stack

    monkeypatch.setattr(suites, "evolve_many", spy)
    monkeypatch.setattr(semigroup, "evolve_many", spy)
    run_config_verification(config_from_json(DEFAULT_CONFIG))
    # 4 sampled (s, t, s + t) triples, then the identity, composition and
    # continuity-sweep times of check_semigroup_axioms
    assert [len(ts) for _, ts, _ in batches] == [12, 10]
    for gen, ts, stack in batches:
        for t, z in zip(ts, stack):
            assert np.max(np.abs(z - scipy.linalg.expm(t * gen.q))) <= 1e-13
