import json
import math
import re
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sgineq import cli, expconv, jessen, lattice, semigroup, suites
from sgineq.expconv import ExponentSet, build_gram, check_order_psd
from sgineq.families import NonPositiveInputError, exp_member, power_member
from sgineq.cli import DEFAULT_CONFIG
from sgineq.jessen import DualVector, _members_sides, verify_adjoint_pairing
from sgineq.lattice import LatticeElement, Ordering, partial_leq
from sgineq.semigroup import (
    NegativeOffDiagonalError,
    _stack_act,
    check_positivity_and_normalization,
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

import oracles
from test_cli import FAST_GENERATOR, LATER_GENERATOR

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
                    z = evolve(gen, t).matrix
                    phi_zf, _, z_phi_f = _members_sides(partial(_stack_act, z[None]), [fam],
                                                        f.values[None, None, None])
                    lhs, rhs = LatticeElement(phi_zf[0, 0, 0]), LatticeElement(z_phi_f[0, 0, 0])
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
                adj_failures += not (rep.transpose_ok and rep.gap_ok
                                     and rep.consistency_defect <= 1e-10)
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

    def test_gram_suite_reuses_the_evolved_operators(self, monkeypatch):
        calls = []
        real_evolve = suites.evolve

        def spy(gen, t):
            calls.append((gen.name, t))
            return real_evolve(gen, t)

        for module in (suites, jessen, expconv):
            monkeypatch.setattr(module, "evolve", spy)
        monkeypatch.setattr(suites, "run_semigroup_axiom_suite", lambda *args, **kwargs: [])
        cfg = config_from_json(dict(THREE_STATE, t_grid=[0.5, 1.0, 0.5],
                                    p_sets=[[2.0, 4.0], [1.5, 3.0]]))
        report = run_config_verification(cfg)
        records = report["suites"]["gram_psd"]["records"]
        assert len(records) == 6 and report["passed"] is True
        assert sorted(calls) == [("three", 0.5), ("three", 1.0)]
        # each record is that of build_gram on the element the driver drew
        rng = skip_axiom_suite_seeds(cfg)
        gen = cfg.generators[0]
        # past the Jessen blocks and the adjoint (f, f*) pairs of every family and t
        rng.uniform(size=len(cfg.families) * 3 * (cfg.samples + 2) * gen.dim)
        for rec in records:
            f = random_domain_element(rng, gen.dim, "F")
            gram = build_gram(gen, f, rec["t"], ExponentSet(rec["p"]))
            want = check_order_psd(gram, n_xi=200, seed=int(rng.integers(0, 2 ** 31)), tol=1e-8)
            assert rec == {"p": rec["p"], "t": rec["t"], "generator": "three"} | want.to_json()

    def test_adjoint_sample_fails_on_consistency_defect(self, monkeypatch):
        # a weak gap that disagrees with the residual pairing fails a
        # verify sample, as it fails one of run_adjoint_random_suite
        real = suites._adjoint_rows
        monkeypatch.setattr(suites, "_adjoint_rows", lambda *args: [
            rep._replace(consistency_defect=1.0) for rep in real(*args)])
        report = run_config_verification(config_from_json(DEFAULT_CONFIG))
        adjoint = report["suites"]["adjoint"]
        assert adjoint["passed"] is False
        assert adjoint["aggregate"]["failures"] > 0
        assert report["passed"] is False

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
        phi_zf, _, z_phi_f = _members_sides(partial(_stack_act, evolve(gen, 1e6).matrix[None]),
                                            [fam], block[None, None])
        residual = (z_phi_f - phi_zf)[0, 0]
        assert [case["residual"] for case in jes["failed_cases"]] == residual.tolist()
        assert [case["min_slack"] for case in jes["failed_cases"]] == residual.min(axis=1).tolist()


# The family selectors a drawn config chooses from. ExpH(30) stays finite,
# but its values are so large that the weak gap and the residual pairing
# differ by more than 1e-10; ExpH(500) exceeds the exponent limit on inputs
# above 1.4, in the Jessen blocks or the adjoint rows of some times.
REFERENCE_FAMILIES = [
    {"family": "PowerF", "t": 2.0}, {"family": "PowerF", "t": -1.0},
    {"family": "PowerF", "t": 0.5}, {"family": "NegLog"}, {"family": "Entropy"},
    {"family": "HalfSquare"}, {"family": "ExpH", "t": -1.0}, {"family": "ExpH", "t": 30.0},
    {"family": "ExpH", "t": 500.0},
]


@st.composite
def verify_configs(draw):
    """Small verify configs: one or two conservative generators with K from 1
    to 6, often a non-conservative control, and a t_grid with 0, repeats and
    times so small that under zero tolerances rounding fails the Jessen
    verdict. Now and then a time past the time cap of most generators, a
    control without the override, or a p_set inside the midpoint guard band."""
    def generator(name, conservative):
        k = draw(st.integers(1, 6))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        q = random_conservative_generator(rng, max_dim=k, min_dim=k).q.copy()
        if not conservative:
            q[np.diag_indices(k)] += rng.uniform(0.1, 1.0, size=k)
        return {"q": q.tolist()} | ({"name": name} if draw(st.booleans()) else {})

    def rarely(values, item):
        # inserts item at a drawn place in about one draw of ten
        if draw(st.sampled_from(range(10))) == 9:
            values.insert(draw(st.integers(0, len(values))), item)
        return values

    gens = [generator(f"g{i}", True) for i in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), generator("control", False))
    times = st.sampled_from([0.0, 1e-16, 1e-15, 0.5, 2.0, 40.0])
    psets = st.sampled_from([[2.0, 4.0], [1.5, 3.0, 5.0], [-1.0, 0.5]])
    return {
        "generators": gens,
        "families": draw(st.lists(st.sampled_from(REFERENCE_FAMILIES), min_size=1, max_size=3)),
        "t_grid": rarely(draw(st.lists(times, min_size=1, max_size=4)), 5000.0),
        "p_sets": rarely(draw(st.lists(psets, max_size=2)), [1.0, 1.0 + 1e-7]),
        "samples": draw(st.integers(1, 6)),
        "seed": draw(st.integers(0, 2 ** 31)),
        "tolerances": draw(st.sampled_from([{}, {"atol": 0.0, "rtol": 0.0}])),
        "allow_unnormalized": draw(st.sampled_from(range(10))) < 9,
    }


def verify_outcome(run, cfg):
    """The report JSON of ``run(cfg)`` as ``verify`` writes it, or the type
    and message of what it raises."""
    try:
        return json.dumps(run(cfg), sort_keys=True, indent=2)
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=200, deadline=None)
@given(verify_configs())
# Jessen failures in two families and at two time indices of one generator
# under zero tolerances, adjoint rows that fail only the consistency bound
# (ExpH(30)), and a control under the override
@example({"generators": [THREE_STATE["generators"][0], {"q": [[-1.0, 1.0], [1.0, -1.0]]},
                         {"q": [[-1.0, 1.5], [0.5, -0.5]], "name": "leaky"}],
          "families": [{"family": "PowerF", "t": 2.0}, {"family": "Entropy"},
                       {"family": "ExpH", "t": 30.0}],
          "t_grid": [1e-16, 0.5, 0.0, 1e-15, 1e-16], "p_sets": [[2.0, 4.0]], "samples": 3,
          "seed": 4, "tolerances": {"atol": 0.0, "rtol": 0.0}, "allow_unnormalized": True})
# the Jessen block of all times fails; the worst exponent argument of the
# first time to fail is not that of the whole block
@example(json.loads((Path(__file__).resolve().parents[1] / "configs"
                     / "family_overflow.json").read_text()))
# the second family of the first generator and the first family of the
# second generator fail; the first generator's error is the one raised
@example(LATER_GENERATOR)
def test_driver_matches_reference_verify(data):
    cfg = config_from_json(data)
    assert verify_outcome(run_config_verification, cfg) == verify_outcome(oracles.verify, cfg)


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
    assert sum(len(ps) ** 2 for ps in cfg.p_sets) * sum(g.dim for g in cfg.generators) \
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


@st.composite
def hypothesis_configs(draw):
    """Configs inside the paper's hypotheses and the run limits: one
    conservative generator with K = 2 to 5, off-diagonals in [0, 1] and each
    diagonal -(its row sum), scaled by 2^k with k in [-30, 30]; 1 to 3 times
    from {0.01, 0.1, 1, 5} * 2^-k, so t*||Q|| <= 40; the nine bundled families,
    the bundled p_set and the default tolerances."""
    dim = draw(st.integers(2, 5))
    q = np.array(draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim),
                               min_size=dim, max_size=dim)))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    scale = 2.0 ** draw(st.integers(-30, 30))
    times = draw(st.lists(st.sampled_from([0.01, 0.1, 1.0, 5.0]), min_size=1, max_size=3))
    return dict(DEFAULT_CONFIG, generators=[{"q": (q * scale).tolist()}],
                t_grid=[t / scale for t in times], samples=draw(st.integers(1, 10)),
                seed=draw(st.integers(0, 2 ** 32)))


def verify_in_process(data, capsys):
    """The exit code and stderr of ``sgineq verify`` on the config ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(data))
        code = cli.main(["verify", "--config", str(config), "--out", str(Path(tmp) / "out")])
    return code, capsys.readouterr().err


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hypothesis_configs())
@example(FAST_GENERATOR)
def test_config_inside_the_hypotheses_never_exits_64(monkeypatch, capsys, data):
    # exit 2 (the absolute row-sum test at large scales) and exit 1 are defects of
    # their own, not usage errors
    monkeypatch.delenv("SGINEQ_OUTPUT_DIR", raising=False)
    code, err = verify_in_process(data, capsys)
    assert code in (0, 1, 2), err


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hypothesis_configs(), st.sampled_from(suites._SCALARS), st.data())
def test_config_with_one_broken_scalar_field_exits_64_with_its_message(monkeypatch, capsys,
                                                                       data, row, draws):
    # a value of the wrong JSON type, or of the right type outside the row's rule
    monkeypatch.delenv("SGINEQ_OUTPUT_DIR", raising=False)
    if row.rule is not None and draws.draw(st.booleans()):
        value = draws.draw((st.integers(-2 ** 64, 2 ** 64) | st.floats()).filter(
            lambda v: row.is_type(v) and not row.rule(row.cast(v))))
        message = row.message
    else:
        value = draws.draw(JSON_VALUES.filter(lambda v: not row.is_type(v)))
        message = f"{row.key} must be {row.kind}, got {value!r}"
    where, _, key = row.key.rpartition(".")
    if where:
        data = dict(data, **{where: dict(data.get(where, {}), **{key: value})})
    else:
        data = dict(data, **{key: value})
    assert verify_in_process(data, capsys) == (64, f"sgineq: error: {message}\n")


def test_bundled_config_is_far_inside_the_work_budget():
    cfg = config_from_json(DEFAULT_CONFIG)
    assert cfg.samples * 2 * len(cfg.families) * len(cfg.t_grid) == 2160 < MAX_SAMPLE_WORK
    with pytest.raises(ConfigError, match="work budget"):
        config_from_json(dict(DEFAULT_CONFIG, samples=MAX_SAMPLE_WORK))


def test_gram_entries_of_every_p_set_are_held_to_the_work_budget(monkeypatch):
    # the bundled Gram: 2^2 exponent pairs x 2 states x 3 times = 24 entries; one
    # family and one sample keep the sampled coordinates at 6
    one_family = dict(DEFAULT_CONFIG, samples=1, families=DEFAULT_CONFIG["families"][:1])
    # the generator counts 1, not 1000, inside these small budgets
    monkeypatch.setattr(suites, "_GENERATOR_WORK", 1)
    monkeypatch.setattr(suites, "MAX_SAMPLE_WORK", 24)
    assert config_from_json(one_family).p_sets == [[2.0, 4.0]]
    monkeypatch.setattr(suites, "MAX_SAMPLE_WORK", 23)
    with pytest.raises(ConfigError, match=r"p_set sizes\^2 x generator dims x times = 24 exceeds"):
        config_from_json(one_family)
    # every p_set counts: (2^2 + 3^2) x 2 x 3 = 78
    monkeypatch.setattr(suites, "MAX_SAMPLE_WORK", 77)
    with pytest.raises(ConfigError, match=r"p_set sizes\^2 x generator dims x times = 78 exceeds"):
        config_from_json(dict(one_family, p_sets=[[2.0, 4.0], [2.0, 3.0, 5.0]]))


def test_committed_gram_config_is_just_over_the_work_budget():
    # the CI run of this config exits 64 before any Gram or exponent set is built
    path = Path(__file__).resolve().parents[1] / "configs" / "gram_over_budget.json"
    data = json.loads(path.read_text())
    assert [len(ps) for ps in data["p_sets"]] == [1001] and len(data["t_grid"]) == 1
    with pytest.raises(ConfigError, match=rf"= 2004002 exceeds the work budget {MAX_SAMPLE_WORK}$"):
        config_from_json(data)


def test_committed_gram_cap_config_sits_at_the_work_budget():
    # the CI run of this config (exit 0 within 60 s) is the time bound on a
    # verify at the Gram cap: 1000 seeded exponents in [2, 6], whose 500500
    # midpoints are all distinct
    path = Path(__file__).resolve().parents[1] / "configs" / "at_gram_cap.json"
    data = json.loads(path.read_text())
    (ps,) = data["p_sets"]
    assert len(ps) == 1000 and all(2.0 <= p <= 6.0 for p in ps)
    assert len({0.5 * (p + q) for i, p in enumerate(ps) for q in ps[: i + 1]}) == 500500
    cfg = config_from_json(data)
    assert sum(len(p) ** 2 for p in cfg.p_sets) * sum(g.dim for g in cfg.generators) \
        * len(cfg.t_grid) == MAX_SAMPLE_WORK


def test_config_order_band_defaults_are_the_default_tolerance():
    defaults = SuiteConfig._field_defaults
    band = lattice.DEFAULT_TOLERANCE
    assert (defaults["atol"], defaults["rtol"]) == (band.atol, band.rtol)


@pytest.mark.parametrize("fam", [
    *(pytest.param(fam, id=f"benchmark-{fam.label}") for fam in suites.benchmark_families()),
    *(pytest.param(member(p), id=f"{member.__name__}({p:g})")
      for member in (power_member, exp_member) for p in (0.0, 1.0, 2.0, -1.0)),
])
def test_domain_kind_is_f_exactly_when_zero_is_outside_the_domain(fam):
    try:
        fam.check_domain(np.zeros(1))
    except NonPositiveInputError:
        rejects_zero = True
    else:
        rejects_zero = False
    assert (suites._family_domain_kind(fam) == "F") == rejects_zero


def test_committed_cap_config_sits_at_the_work_budget():
    # the CI run of this config is the time bound on a verify at the cap
    path = Path(__file__).resolve().parents[1] / "configs" / "at_sample_cap.json"
    cfg = config_from_json(json.loads(path.read_text()))
    assert cfg.samples * sum(g.dim for g in cfg.generators) * len(cfg.families) \
        * len(cfg.t_grid) == MAX_SAMPLE_WORK


def test_committed_generator_cap_config_sits_at_the_work_budget():
    # the CI run of this config is the time bound on a verify at the generator
    # cap: 2000 2-state generators, one family, one time and one sample
    path = Path(__file__).resolve().parents[1] / "configs" / "at_generator_cap.json"
    cfg = config_from_json(json.loads(path.read_text()))
    assert {g.dim for g in cfg.generators} == {2}
    assert (len(cfg.families), len(cfg.t_grid), cfg.samples) == (1, 1, 1)
    assert len(cfg.generators) * suites._GENERATOR_WORK == MAX_SAMPLE_WORK


def test_generator_count_is_held_to_the_work_budget_before_any_generator_is_read():
    path = Path(__file__).resolve().parents[1] / "configs" / "generators_over_budget.json"
    data = json.loads(path.read_text())
    message = rf"^generators x 1000 = 2001000 exceeds the work budget {MAX_SAMPLE_WORK}$"
    with pytest.raises(ConfigError, match=message):
        config_from_json(data)
    # the same count of entries that are no generators
    with pytest.raises(ConfigError, match=message):
        config_from_json(dict(data, generators=[None] * 2001))


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
    sample, with each defect as its bytes. Every time is in units of
    1/max(lam, 1), the fixed times of the axiom and positivity checks too."""
    rng = np.random.default_rng(seed)
    tol = 1e-10
    entries = []
    for gen in generators:
        label = gen.name or f"dim{gen.dim}"
        unit = max(gen.uniform_rate, 1.0)
        law = neg = norm = 0.0
        for _ in range(samples):
            s = float(rng.uniform(0.0, 2.5)) / unit
            t = float(rng.uniform(0.0, 2.5)) / unit
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
        axiom_times = [x / unit for x in semigroup._axiom_times(0.4, 1.1)]
        fixed = (semigroup._axiom_entries(np.array([evolve(gen, x).matrix for x in axiom_times]), f)
                 + check_positivity_and_normalization(gen, 0.7 / unit, f))
        entries += sampled + [(e.name, e.passed, e.defect, e.tol) for e in fixed]
    return [(name, ok, np.float64(defect).tobytes(), bound) for name, ok, defect, bound in entries]


def _suite_generators(case):
    rng = np.random.default_rng(17)
    if case == "bundled":
        return [validate_generator(DEFAULT_CONFIG["generators"][0]["q"], name="benchmark2")]
    if case == "k5_and_nonconservative":
        return [random_conservative_generator(rng, min_dim=5, max_dim=5, name="k5"),
                random_positive_generator(rng, max_dim=3)]
    # lam = 60: in absolute units lam * (s + t) would reach 300 and need splits;
    # in the suite's units of 1/lam it stays at most 5
    return [validate_generator([[-60.0, 60.0], [30.0, -30.0]], name="split")]


class TestSemigroupAxiomSuite:
    @pytest.mark.parametrize("stack_entries", [None, 40])
    @pytest.mark.parametrize("case,samples,seed", [("bundled", 40, 3),
                                                   ("k5_and_nonconservative", 30, 11),
                                                   ("split", 25, 5), ("bundled", 0, 3)])
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
        # the positivity check at t = 0.7 rides in the last evolve_many chunk
        assert calls == []


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
    # one stack: 4 sampled (s, t, s + t) triples, then the identity,
    # composition and continuity-sweep times of check_semigroup_axioms and the
    # time of check_positivity_and_normalization
    assert [len(ts) for _, ts, _ in batches] == [23]
    for gen, ts, stack in batches:
        for t, z in zip(ts, stack):
            assert np.max(np.abs(z - scipy.linalg.expm(t * gen.q))) <= 1e-13


def test_verify_makes_one_jessen_and_one_adjoint_kernel_call_per_generator(monkeypatch):
    # each call takes the blocks of every family of its generator
    calls = []
    for name in ("_members_sides", "_adjoint_rows"):
        real = getattr(suites, name)
        monkeypatch.setattr(suites, name, lambda *args, _name=name, _real=real:
                            calls.append((_name, len(args[1]))) or _real(*args))
    gens = [*THREE_STATE["generators"], *DEFAULT_CONFIG["generators"]]
    data = dict(DEFAULT_CONFIG, generators=gens)
    assert run_config_verification(config_from_json(data))["passed"] is True
    assert calls == [("_members_sides", 9)] * 2 + [("_adjoint_rows", 9)] * 2


def test_bundled_verify_builds_nineteen_lattice_elements(monkeypatch):
    # 18 in the lattice-axiom suite, whose subject they are, and the f of the
    # semigroup-axiom checks; the Jessen, adjoint and Gram samples stay arrays
    built = []
    real_init = lattice.LatticeElement.__init__

    def spy(self, values):
        built.append(values)
        real_init(self, values)

    monkeypatch.setattr(lattice.LatticeElement, "__init__", spy)
    run_config_verification(config_from_json(DEFAULT_CONFIG))
    assert len(built) == 19


def test_bundled_verify_draws_no_domain_element(monkeypatch):
    drawn = []
    real_draw = suites.random_domain_element
    monkeypatch.setattr(suites, "random_domain_element",
                        lambda *args: drawn.append(args) or real_draw(*args))
    run_config_verification(config_from_json(DEFAULT_CONFIG))
    assert drawn == []


def test_config_json_keys_are_the_fields_and_options_and_round_trip():
    cfg = config_from_json(dict(THREE_STATE, allow_unnormalized=True, output_dir="elsewhere",
                                tolerances={"atol": 1e-8, "rtol": 1e-11, "psd": 1e-7}))
    data = cfg.to_json()
    required = [name for name in SuiteConfig._fields if name not in SuiteConfig._field_defaults]
    keys = [row.key.rpartition(".") for row in suites._SCALARS]
    assert sorted(data) == sorted([*required, "tolerances", *(key for where, _, key in keys
                                                              if not where)])
    assert sorted(data["tolerances"]) == sorted(key for where, _, key in keys if where)
    back = config_from_json(data)
    assert back.to_json() == data
    # generators and families have no value equality; their JSON is compared above
    objects = dict(generators=None, families=None)
    assert back._replace(**objects) == cfg._replace(**objects)


def test_readme_key_sentence_names_exactly_the_table_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    top, tols = re.search(r"A config object holds only the keys (.*?), and\s+`tolerances`\s+only"
                          r"\s+(.*?);", readme, re.S).groups()
    # the keys SuiteConfig.to_json writes from the table, as the test above checks
    assert sorted(re.findall(r"`(\w+)`", top)) == sorted(suites._KEYS)
    assert sorted(re.findall(r"`(\w+)`", tols)) == sorted(suites._KEYS["tolerances"])


def test_bundled_verify_evolves_three_distinct_pairs(monkeypatch):
    # the stacks of the three grid times; the semigroup-axiom suite evolves
    # through evolve_many alone, which calls evolve only to replay a failure
    calls = []
    real_evolve = semigroup.evolve

    def spy(gen, t):
        calls.append(t)
        return real_evolve(gen, t)

    for module in (semigroup, suites, jessen, expconv):
        monkeypatch.setattr(module, "evolve", spy)
    run_config_verification(config_from_json(DEFAULT_CONFIG))
    assert sorted(calls) == [0.1, 1.0, 10.0]
