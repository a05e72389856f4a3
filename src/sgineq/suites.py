"""Randomized verification suites and config-driven report assembly.

Every suite takes a seed, draws from one ``numpy.random.default_rng``
stream, and reports plain dict/tuple records, so a fixed config and
seed reproduce the same report bytes. Negative-control material
(non-conservative generators under the explicit override) is kept in an
``observed`` section separate from asserted checks, so it never flips
the overall verdict.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import SgineqError
from .expconv import (
    ExponentSet,
    IllConditionedMidpointError,
    _gram,
    _midpoint_residuals,
    build_gram,
    check_order_psd,
    midpoint_equivalence_check,
)
from .families import (
    EntropyFamily,
    ExpFamily,
    HalfSquareFamily,
    NegLogFamily,
    OperatorFamily,
    PowerFamily,
    _PositiveConeFamily,
    _number,
    family_from_json,
    family_to_json,
)
from .jessen import (
    DualVector,
    NotNormalizedError,
    _adjoint_rows,
    _jessen_passed,
    _members_sides,
    _slack_floor,
    jessen_report,
    verify_adjoint_pairing,
    verify_jessen,
)
from .lattice import DEFAULT_TOLERANCE, LatticeElement, OrderTolerance, leq_rows
from .semigroup import (
    _AXIOM_TOL,
    CheckEntry,
    Generator,
    NotSquareError,
    _axiom_entries,
    _axiom_times,
    _positivity_entries,
    _stack_act,
    evolve,
    evolve_many,
    generator_from_json,
    generator_to_json,
    validate_generator,
)
from . import lattice

__all__ = [
    "ConfigError",
    "SuiteConfig",
    "config_from_json",
    "benchmark_families",
    "random_conservative_generator",
    "random_positive_generator",
    "random_domain_element",
    "run_lattice_axiom_suite",
    "run_semigroup_axiom_suite",
    "JessenSuiteResult",
    "run_jessen_random_suite",
    "NegativeControlResult",
    "run_negative_control",
    "AdjointSuiteResult",
    "run_adjoint_random_suite",
    "GramSuiteResult",
    "run_gram_random_suite",
    "run_midpoint_equivalence_suite",
    "run_config_verification",
    "MAX_SAMPLE_WORK",
]

# Cap on samples x (sum of generator dims) x families x times, the number
# of sampled coordinates in verify's Jessen blocks. A block is the
# (family, time, sample, coordinate) array of one generator, so the cap
# bounds its memory. At the cap, configs/at_sample_cap.json (one 2-state
# generator, one family, one time) verifies in 3.7-3.8 s on a shared 2-vCPU
# machine. The bundled config uses 2160. The same cap bounds the entries of
# every Gram, the sum over p_sets of size^2 x (sum of generator dims) x
# times; the bundled config uses 24. At that cap, configs/at_gram_cap.json
# (one 2-state generator, one time, one p_set of 1000 random exponents in
# [2, 6], whose 500500 midpoints are all distinct) verifies in 1.2-1.6 s on a
# shared 2-vCPU machine with one BLAS thread, all midpoints in one call of the
# members kernel; configs/gram_cap_overflow.json, the same with its last
# exponent 4000, exits 64 there in 0.8-1.2 s, before any eigenvalue is taken.
MAX_SAMPLE_WORK = 2_000_000

# Matrix entries per evolve_many stack in the semigroup-axiom suite, which
# bounds the memory of a chunk of triples at any sample count.
_STACK_ENTRIES = 2 ** 16

# Times of the random Jessen and adjoint suites.
_SUITE_TIMES = (0.1, 1.0, 10.0)

# Sampling boxes of the family domains: the positive cone, cut off away
# from 0, for F-kind families and a symmetric box for H-kind ones.
_DOMAIN_BOX = {"F": (0.2, 3.0), "H": (-2.0, 2.0)}


class ConfigError(SgineqError):
    """Config cannot be used: missing fields, wrong shapes, empty lists."""


def _integral(value) -> bool:
    """A JSON number with an integral value."""
    return type(value) is int or type(value) is float and value.is_integer()


def _float(value) -> float:
    """``float(value)``; an int beyond double range is a ConfigError."""
    try:
        return float(value)
    except OverflowError as err:
        raise ConfigError(f"bad config value: {err}") from err


# The config's scalar fields, one row per JSON key, "tolerances.atol" for the key
# atol of the tolerances object: the SuiteConfig field it sets, the JSON type test
# with what it asks for, the cast of a value that passes it, and the rule the cast
# value must meet with the message of one that does not (None: no rule). A value
# that fails a test is a usage error, never coerced.
_Scalar = namedtuple("_Scalar", "key field is_type kind cast rule message", defaults=(None, None))
_SCALARS = (
    _Scalar("samples", "samples", _integral, "an integral number", int,
            lambda v: v >= 1, "samples must be at least 1"),
    _Scalar("seed", "seed", _integral, "an integral number", int,
            lambda v: v >= 0, "seed must be nonnegative"),
    _Scalar("allow_unnormalized", "allow_unnormalized", lambda v: type(v) is bool, "true or false",
            bool),
    _Scalar("output_dir", "output_dir", lambda v: type(v) is str, "a string", str),
    *(_Scalar(f"tolerances.{key}", field, _number, "a number", _float,
              lambda v: math.isfinite(v) and v >= 0,
              "tolerances atol, rtol and psd must be finite and nonnegative")
      for key, field in (("atol", "atol"), ("rtol", "rtol"), ("psd", "psd_tol"))),
)


class SuiteConfig(NamedTuple):
    generators: list
    families: list
    t_grid: list
    p_sets: list
    samples: int = 50
    seed: int = 20240821
    atol: float = DEFAULT_TOLERANCE.atol
    rtol: float = DEFAULT_TOLERANCE.rtol
    psd_tol: float = 1e-8
    allow_unnormalized: bool = False
    output_dir: str = "out"

    @property
    def order_tol(self) -> OrderTolerance:
        return OrderTolerance(atol=self.atol, rtol=self.rtol)

    def to_json(self) -> dict:
        out = {
            "generators": [generator_to_json(g) for g in self.generators],
            "families": [family_to_json(f) for f in self.families],
            "t_grid": [float(t) for t in self.t_grid],
            "p_sets": [list(p) for p in self.p_sets],
            "tolerances": {},
        }
        for row in _SCALARS:
            where, _, key = row.key.rpartition(".")
            (out[where] if where else out)[key] = getattr(self, row.field)
        return out


# The list fields, which have no default, and the keys of a config object and
# of its tolerances object: those ``SuiteConfig.to_json`` writes.
_LISTS = SuiteConfig._fields[:4]
_KEYS = SuiteConfig([], [], [], []).to_json()


def config_from_json(data: dict, base_dir: Path | None = None) -> SuiteConfig:
    """Build a SuiteConfig from a plain JSON object.

    Generators are inline matrices or string refs to JSON files holding
    one generator object each, resolved against ``base_dir``. Every
    malformed value raises ConfigError; a generator with a negative
    off-diagonal entry raises NegativeOffDiagonalError, a hypothesis
    violation. The scalar fields are checked first, by ``_SCALARS``.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    options = _scalar_fields(data)
    for key in _LISTS:
        if key not in data and key != "p_sets":
            raise ConfigError(f"config is missing a required field: {key!r}")
        if not isinstance(data.get(key, []), (list, tuple)):
            raise ConfigError(f"{key} must be a list")
    raw_gens, raw_fams, raw_times, raw_psets = (data.get(key, []) for key in _LISTS)
    if not raw_gens:
        raise ConfigError("generator list is empty")
    if not raw_fams:
        raise ConfigError("family list is empty")
    if not all(map(_number, raw_times)):
        raise ConfigError(f"t_grid entries must be numbers, got {raw_times!r}")
    if not all(isinstance(ps, (list, tuple)) and all(map(_number, ps)) for ps in raw_psets):
        raise ConfigError(f"p_sets must be lists of numbers, got {raw_psets!r}")
    try:
        t_grid = [float(t) for t in raw_times]
    except OverflowError as err:
        raise ConfigError(f"t_grid entries must be numbers: {err}") from err
    if not t_grid or not all(math.isfinite(t) and t >= 0 for t in t_grid):
        raise ConfigError("t_grid must be nonempty with finite nonnegative entries")

    generators = []
    for item in raw_gens:
        if isinstance(item, str):
            ref = Path(item)
            if base_dir is not None and not ref.is_absolute():
                ref = base_dir / ref
            try:
                item = json.loads(ref.read_text())
            except (OSError, ValueError) as err:
                raise ConfigError(f"cannot read generator ref {item!r}: {err}") from err
        if not isinstance(item, dict):
            raise ConfigError(f"a generator must be a JSON object or a file ref, got {item!r}")
        _known_keys("generator", item, ("q", "name"))
        q = item.get("q")
        if not isinstance(q, list) or not all(isinstance(row, list) and all(map(_number, row))
                                              for row in q):
            raise ConfigError(f"generator q must be a list of rows of numbers, got {q!r}")
        # failed cases and Gram records name their generator, so a name must be one
        if "name" in item and type(item["name"]) is not str:
            raise ConfigError(f"generator name must be a string, got {item['name']!r}")
        try:
            generators.append(generator_from_json(item))
        except (ValueError, OverflowError, NotSquareError) as err:
            raise ConfigError(f"bad generator entry: {err}") from err
    names = [g.name for g in generators if g.name is not None]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"generator name {name!r} is given more than once")

    families = []
    for raw in raw_fams:
        try:
            families.append(family_from_json(raw))
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"bad family selector: {err}") from err
        # the keys its wire form writes: a parameter the family does not take is refused
        _known_keys("family selector", raw, family_to_json(families[-1]))

    p_sets = [[_float(p) for p in ps] for ps in raw_psets]
    if any(not ps or not all(math.isfinite(p) for p in ps) for ps in p_sets):
        raise ConfigError("every p_set must be a nonempty list of finite exponents")
    cfg = SuiteConfig(generators=generators, families=families, t_grid=t_grid, p_sets=p_sets,
                      **options)
    dims = sum(g.dim for g in generators)
    _within_budget("samples x generator dims x families x times",
                   cfg.samples * dims * len(families) * len(t_grid))
    _within_budget("p_set sizes^2 x generator dims x times",
                   sum(len(ps) ** 2 for ps in cfg.p_sets) * dims * len(t_grid))
    return cfg


def _scalar_fields(data: dict) -> dict:
    """The SuiteConfig fields that the config object ``data`` sets, by the rows
    of ``_SCALARS``, once no key of it or of its tolerances object is unknown;
    a field it leaves out keeps the default of SuiteConfig."""
    _known_keys("config", data, _KEYS)
    tols = data.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("tolerances must be a JSON object")
    _known_keys("tolerances", tols, _KEYS["tolerances"])
    options = {}
    for row in _SCALARS:
        where, _, key = row.key.rpartition(".")
        obj = tols if where else data
        if key in obj:
            if not row.is_type(obj[key]):
                raise ConfigError(f"{row.key} must be {row.kind}, got {obj[key]!r}")
            value = options[row.field] = row.cast(obj[key])
            if row.rule is not None and not row.rule(value):
                raise ConfigError(row.message)
    return options


def _known_keys(where: str, data: dict, known) -> None:
    """Raise ConfigError naming the first key of ``data`` not in ``known``;
    such a key, a misspelled field say, would otherwise be ignored."""
    known = set(known)
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown {where} key {key!r}")


def _within_budget(what: str, work: int) -> None:
    """Raise ConfigError, naming ``what``, when ``work`` exceeds MAX_SAMPLE_WORK."""
    if work > MAX_SAMPLE_WORK:
        raise ConfigError(f"{what} = {work} exceeds the work budget {MAX_SAMPLE_WORK}")


def benchmark_families() -> list[OperatorFamily]:
    """The nine members every randomized suite cycles through."""
    return [
        PowerFamily(-1.0),
        PowerFamily(0.5),
        PowerFamily(2.0),
        PowerFamily(3.0),
        NegLogFamily(),
        EntropyFamily(),
        ExpFamily(1.0),
        ExpFamily(-1.0),
        HalfSquareFamily(),
    ]


def _family_domain_kind(fam: OperatorFamily) -> str:
    return "F" if isinstance(fam, _PositiveConeFamily) else "H"


def random_conservative_generator(rng, max_dim: int = 8, max_norm: float = 5.0,
                                  min_dim: int = 2, name: str | None = None) -> Generator:
    """Random Metzler matrix with exact zero row sums, ||Q|| <= max_norm."""
    n = int(rng.integers(min_dim, max_dim + 1))
    rates = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    q = rates.copy()
    np.fill_diagonal(q, -rates.sum(axis=1))
    norm = np.max(np.sum(np.abs(q), axis=1))
    if norm > 0:
        q *= rng.uniform(0.3, 1.0) * max_norm / norm
    return validate_generator(q, name=name)


def random_positive_generator(rng, max_dim: int = 8, max_norm: float = 5.0,
                              name: str | None = None) -> Generator:
    """Random Metzler matrix with at least one strictly positive row sum."""
    n = int(rng.integers(2, max_dim + 1))
    rates = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    q = rates.copy()
    surplus = rng.uniform(0.1, 1.0, size=n) * (rng.uniform(size=n) < 0.7)
    if not np.any(surplus > 0):
        surplus[int(rng.integers(0, n))] = 0.5
    np.fill_diagonal(q, -rates.sum(axis=1) + surplus)
    norm = np.max(np.sum(np.abs(q), axis=1))
    if norm > 0:
        q *= max_norm / norm
    return validate_generator(q, name=name)


def random_domain_element(rng, dim: int, kind: str) -> LatticeElement:
    """Sample inside the family domain: positive cone for F, a box for H."""
    return LatticeElement(rng.uniform(*_DOMAIN_BOX[kind], size=dim))


def _random_dual(rng, dim: int) -> np.ndarray:
    """Coefficients of a random positive dual, uniform draws scaled to sum 1."""
    raw = rng.uniform(0.0, 1.0, size=dim)
    return raw / max(raw.sum(), 1e-12)


def run_lattice_axiom_suite(dim: int, samples: int, seed: int) -> list[CheckEntry]:
    """Sampled identities of the componentwise lattice structure, each within 1e-12.

    The samples are drawn as (samples, dim) blocks. R^(samples*dim) is
    itself a componentwise lattice algebra, so each identity is checked
    once, through the lattice functions, on the flattened blocks; the
    two norm checks take the sup norm of each sample row.
    """
    rng = np.random.default_rng(seed)
    F = rng.uniform(-5, 5, size=(samples, dim))
    G = rng.uniform(-5, 5, size=(samples, dim))
    # |h| <= |g| built by shrinking g entrywise
    H = G * rng.uniform(-1.0, 1.0, size=(samples, dim))
    f, g = LatticeElement(F.ravel()), LatticeElement(G.ravel())
    pos, neg = lattice.pos_part(f), lattice.neg_part(f)

    def worst(*defects):
        return max(0.0, *(float(np.max(d)) for d in defects))

    def gap(a, b):
        return np.abs(a.values - b.values)

    def row_norms(values):
        return np.max(np.abs(values.reshape(samples, dim)), axis=1)

    defects = {
        "absorption": worst(gap(lattice.join(f, lattice.meet(f, g)), f),
                            gap(lattice.meet(f, lattice.join(f, g)), f)),
        "decomposition": worst(gap(pos - neg, f), gap(pos + neg, lattice.abs_val(f))),
        "modulus_triangle": worst(lattice.abs_val(f + g).values
                                  - (lattice.abs_val(f) + lattice.abs_val(g)).values),
        "norm_compatibility": worst(row_norms(H) - row_norms(G)),
        "norm_submultiplicative": worst(row_norms(lattice.multiply(f, g).values)
                                        - row_norms(F) * row_norms(G)),
        "unit_norm": abs(lattice.lattice_norm(LatticeElement(np.ones(dim))) - 1.0),
    }
    return [CheckEntry(name, defect <= 1e-12, defect, 1e-12) for name, defect in defects.items()]


def run_semigroup_axiom_suite(generators, samples: int, seed: int) -> list[CheckEntry]:
    """Axioms and positivity structure for each supplied generator, within 1e-10.

    The sampled (s, t, s + t) triples are evolved and reduced in stacked
    chunks. The times of ``check_semigroup_axioms`` at s = 0.4, t = 1.1 and
    of ``check_positivity_and_normalization`` at t = 0.7 ride in the last
    chunk, so a generator's chunks are its only evolutions. Every time, the
    sweep included, is in units of 1/max(lam, 1), lam = ``uniform_rate``, so
    lam*t <= 5 keeps a fast generator far inside the time cap.
    """
    rng = np.random.default_rng(seed)
    tol = _AXIOM_TOL
    entries = []
    for gen in generators:
        label = gen.name or f"dim{gen.dim}"
        worst_law = worst_neg = worst_norm = 0.0
        unit = max(gen.uniform_rate, 1.0)
        fixed = [x / unit for x in (*_axiom_times(0.4, 1.1), 0.7)]
        # one (s, t) row per sample, in the order of one draw of s then t, then f
        pairs = rng.uniform(0.0, 2.5, size=(samples, 2)) / unit
        f = LatticeElement(rng.uniform(-1.0, 2.0, size=gen.dim))
        chunk = max(1, _STACK_ENTRIES // (3 * gen.dim ** 2))
        # with no samples the one chunk holds the fixed times alone
        for lo in range(0, max(samples, 1), chunk):
            s, t = pairs[lo:lo + chunk].T
            n = 3 * len(s)
            last = lo + chunk >= samples
            z = evolve_many(gen, np.column_stack([s, t, s + t]).ravel().tolist()
                            + (fixed if last else []))
            if n:
                zs, zt, zst = z[:n].reshape(-1, 3, gen.dim, gen.dim).swapaxes(0, 1)
                worst_law = max(worst_law, float(np.max(np.abs(zs @ zt - zst))))
                worst_neg = max(worst_neg, float(-np.min(zst)))
                if gen.conservative:
                    worst_norm = max(worst_norm, float(np.max(np.abs(zst.sum(axis=-1) - 1.0))))
        entries.append(CheckEntry(f"{label}:composition", worst_law <= tol, worst_law, tol))
        entries.append(CheckEntry(f"{label}:nonnegativity", worst_neg <= 0.0, worst_neg, 0.0))
        if gen.conservative:
            entries.append(CheckEntry(f"{label}:normalization", worst_norm <= tol, worst_norm, tol))
        entries.extend(_axiom_entries(z[n:-1], f))
        entries.extend(_positivity_entries(z[-1], f))
    return entries


def _random_cases(n_cases: int, rng):
    """The (generator, family, t, f) cases of criteria 1 and 3, each drawn
    from ``rng`` in that order, f in the domain of the family; a caller may
    draw more from ``rng`` before it takes the next case."""
    families = benchmark_families()
    for _ in range(n_cases):
        gen = random_conservative_generator(rng)
        fam = families[int(rng.integers(0, len(families)))]
        t = _SUITE_TIMES[int(rng.integers(0, len(_SUITE_TIMES)))]
        yield gen, fam, t, random_domain_element(rng, gen.dim, _family_domain_kind(fam))


class JessenSuiteResult(NamedTuple):
    cases: list
    min_slack: float
    worst_scaled_slack: float
    failures: int


def run_jessen_random_suite(n_cases: int, seed: int) -> JessenSuiteResult:
    """Random (generator, family, t, f) draws against the inequality.

    A case fails by ``JessenReport.passed``: when the verdict is neither
    LEQ nor EQUAL, or the minimal slack drops below
    -1e-9 * (1 + ||residual||); only failed cases are kept.
    """
    cases = []
    min_slack = worst_scaled = float("inf")
    for gen, fam, t, f in _random_cases(n_cases, np.random.default_rng(seed)):
        report = verify_jessen(gen, fam, f, t)
        floor = float(_slack_floor(report.residual.values))
        min_slack = min(min_slack, report.min_slack)
        worst_scaled = min(worst_scaled, report.min_slack - floor)
        if not report.passed:
            cases.append(report.to_json() | {"ok": False})
    return JessenSuiteResult(cases, min_slack, worst_scaled, len(cases))


class NegativeControlResult(NamedTuple):
    found: bool
    attempts: int
    min_slack: float
    generator: dict | None


def run_negative_control(seed: int) -> NegativeControlResult:
    """Sample up to 60 non-conservative positive generators until the
    inequality breaks by more than 1e-6, witnessing that normalization is
    a real hypothesis."""
    rng = np.random.default_rng(seed)
    fam = PowerFamily(2.0)
    best = float("inf")
    witness = None
    for i in range(1, 61):
        gen = random_positive_generator(rng, max_dim=5, max_norm=3.0, name=f"control{i}")
        f = random_domain_element(rng, gen.dim, "F")
        t = float(rng.uniform(0.5, 2.0))
        report = verify_jessen(gen, fam, f, t, allow_unnormalized=True)
        if report.min_slack < best:
            best = report.min_slack
            witness = generator_to_json(gen) | {"t": t}
        if best < -1e-6:
            return NegativeControlResult(True, i, best, witness)
    return NegativeControlResult(False, 60, best, witness)


class AdjointSuiteResult(NamedTuple):
    cases: int
    max_transpose_defect: float
    min_weak_gap: float
    max_consistency_defect: float
    failures: int


def run_adjoint_random_suite(n_cases: int, seed: int) -> AdjointSuiteResult:
    """Transpose identity and weak-form gap over random triples; the
    weak gap must also match the residual pairing within 1e-10."""
    rng = np.random.default_rng(seed)
    worst_tr = 0.0
    worst_gap = float("inf")
    worst_cons = 0.0
    failures = 0
    for gen, fam, t, f in _random_cases(n_cases, rng):
        rep = verify_adjoint_pairing(gen, fam, DualVector(_random_dual(rng, gen.dim)), f, t)
        worst_tr = max(worst_tr, rep.transpose_defect)
        worst_gap = min(worst_gap, rep.weak_gap)
        worst_cons = max(worst_cons, rep.consistency_defect)
        if not rep.passed:
            failures += 1
    return AdjointSuiteResult(
        cases=n_cases,
        max_transpose_defect=worst_tr,
        min_weak_gap=worst_gap,
        max_consistency_defect=worst_cons,
        failures=failures,
    )


class GramSuiteResult(NamedTuple):
    instances: int
    min_eigenvalue: float
    min_quadform: float
    failures: int


def _sample_exponent_set(rng, kind: str) -> ExponentSet:
    size = int(rng.integers(2, 7))
    while True:
        if kind == "F":
            points = rng.uniform(1.5, 5.0, size=size)
        else:
            points = rng.uniform(-2.0, 2.0, size=size)
            if rng.uniform() < 0.3:
                points[0] = 0.0
        try:
            return ExponentSet(points, family_kind=kind)
        except IllConditionedMidpointError:
            continue


def run_gram_random_suite(n_instances: int, kind: str, seed: int) -> GramSuiteResult:
    """Random Gram instances with both PSD certificates, 1000 sampled forms each."""
    rng = np.random.default_rng(seed)
    worst_eig = float("inf")
    worst_quad = float("inf")
    failures = 0
    for i in range(n_instances):
        gen = random_conservative_generator(rng, max_dim=6, max_norm=4.0)
        f = random_domain_element(rng, gen.dim, kind)
        t = (0.5, 2.0)[int(rng.integers(0, 2))]
        pset = _sample_exponent_set(rng, kind)
        gram = build_gram(gen, f, t, pset)
        rep = check_order_psd(gram, n_xi=1000, seed=int(rng.integers(0, 2 ** 31)))
        worst_eig = min(worst_eig, rep.min_eigenvalue)
        worst_quad = min(worst_quad, rep.min_quadform)
        if not rep.passed:
            failures += 1
    return GramSuiteResult(
        instances=n_instances,
        min_eigenvalue=worst_eig,
        min_quadform=worst_quad,
        failures=failures,
    )


def run_midpoint_equivalence_suite(n_instances: int, seed: int) -> dict:
    """Substitution identity on random residual-based maps; the suite passes
    when every instance passes ``MidpointEquivalenceReport.passed``."""
    rng = np.random.default_rng(seed)
    worst, passed = 0.0, True
    for _ in range(n_instances):
        gen = random_conservative_generator(rng, max_dim=5, max_norm=3.0)
        f = random_domain_element(rng, gen.dim, "F")
        t = float(rng.uniform(0.3, 2.0))
        z = evolve(gen, t).matrix
        n = int(rng.integers(1, 5))
        xs = rng.uniform(1.2, 2.4, size=n)
        xis = rng.uniform(-1.0, 1.0, size=n)

        def h_map(p, _z=z, _f=f.values):
            return LatticeElement(_midpoint_residuals(_z, "F", [p], _f)[0])

        rep = midpoint_equivalence_check(h_map, xs, xis)
        worst = max(worst, rep.defect_double, rep.defect_half)
        passed = passed and rep.passed
    return {"instances": n_instances, "max_defect": worst, "pass": passed}


def _by_groups(kernel, mats: np.ndarray, fams, *blocks):
    """``kernel(mats, fams, *blocks)`` on every member of ``fams`` and every
    group, a matrix of the stack ``mats``, at once: each of ``blocks`` is an
    (M, G, ...) array, with the M members along axis 0 and the G groups along
    axis 1. Should it raise, it runs on the slice of each member and group,
    member by member and group by group, and raises the first error, whose
    message (such as the worst exponent argument of ``ExpFamily``) a loop over
    the members and the groups gives.
    """
    try:
        return kernel(mats, fams, *blocks)
    except Exception as err:
        error = err
    for m, fam in enumerate(fams):
        for g in range(len(mats)):
            kernel(mats[g:g + 1], [fam], *(block[m:m + 1, g:g + 1] for block in blocks))
    raise error


def _split_controls(cfg: SuiteConfig) -> tuple[list, list]:
    """The conservative generators, which are checked, and the controls, each
    a hypothesis violation unless the config sets allow_unnormalized."""
    controls = [g for g in cfg.generators if not g.conservative]
    if controls and not cfg.allow_unnormalized:
        label = controls[0].name or f"generator of dim {controls[0].dim}"
        raise NotNormalizedError(f"{label} is not conservative; set allow_unnormalized "
                                 "to run it as a control")
    return [g for g in cfg.generators if g.conservative], controls


def _evolved_stacks(gens, t_grid) -> list[np.ndarray]:
    """One (len(t_grid), K, K) stack per generator, whose matrix j is
    Z(t_grid[j]), from one ``evolve`` per distinct nonzero t; Z(0) = I."""
    distinct = list(dict.fromkeys(t_grid))
    index = [distinct.index(t) for t in t_grid]
    return [np.stack([evolve(gen, t).matrix if t else np.eye(gen.dim) for t in distinct])[index]
            for gen in gens]


def _gram_suite(cfg: SuiteConfig, gens, stacks, psets, rng, n_xi: int, xi_seed: int | None = None):
    """(generator, f, gram, report) per generator, p_set and nonzero t, in that
    order: f drawn from ``rng`` as an array in the F domain, the Gram from Z(t) in
    ``stacks``, and ``check_order_psd`` on ``n_xi`` forms from the seed
    ``xi_seed``, or one drawn from ``rng`` after f when None."""
    for gen, mats in zip(gens, stacks):
        for pset in psets:
            for t, z in zip(cfg.t_grid, mats):
                if t == 0.0:
                    continue
                f = rng.uniform(*_DOMAIN_BOX["F"], size=gen.dim)
                gram = _gram(z, f, t, pset)
                seed = int(rng.integers(0, 2 ** 31)) if xi_seed is None else xi_seed
                yield gen, f, gram, check_order_psd(gram, n_xi=n_xi, seed=seed, tol=cfg.psd_tol)


def run_config_verification(cfg: SuiteConfig) -> dict:
    """The cmd-verify driver: all suites against an explicit config.

    Non-conservative generators in the config are rejected unless the
    override is set, in which case their results go to ``observed``.
    Z(t) is evolved once per (generator, t), and the Jessen, adjoint and
    Gram suites share its matrix. The Jessen samples of each generator are
    one (family, time, sample, coordinate) array, each family's part one
    draw, and are checked as one block, the rows at time index g through
    Z(t_grid[g]); the adjoint samples of each generator likewise, an
    element and a dual per family and time. Failed cases are reported in
    (family, t, row) order. Should a block fail a check, its slices are
    checked again family by family and time by time, so that the error
    raised is that of the first family and time to fail.
    A Jessen sample passes by ``jessen._jessen_passed``, the rule of
    ``JessenReport.passed`` and so of ``run_jessen_random_suite``: its
    verdict is LEQ or EQUAL and its min slack clears the floor
    -1e-9 * (1 + ||residual||); an adjoint sample passes by
    ``AdjointPairingReport.passed``, the rule of ``run_adjoint_random_suite``.
    """
    asserted_gens, controls = _split_controls(cfg)
    # a guard-band midpoint is a hypothesis violation whatever the generators
    psets = [ExponentSet(ps, family_kind="F") for ps in cfg.p_sets]

    rng = np.random.default_rng(cfg.seed)
    report: dict = {"config": cfg.to_json(), "suites": {}}

    lat_entries = [entry for dim in sorted({g.dim for g in cfg.generators})
                   for entry in run_lattice_axiom_suite(dim, cfg.samples,
                                                        int(rng.integers(0, 2 ** 31)))]
    semi_entries = run_semigroup_axiom_suite(
        asserted_gens, max(2, cfg.samples // 10), int(rng.integers(0, 2 ** 31))
    )
    for name, entries in (("lattice_axioms", lat_entries), ("semigroup_axioms", semi_entries)):
        report["suites"][name] = {"checks": [e.to_json() for e in entries],
                                  "passed": all(e.passed for e in entries)}

    # group g of a block goes through Z(t_grid[g])
    stacks = _evolved_stacks(asserted_gens, cfg.t_grid)
    tol = cfg.order_tol
    shape = (len(cfg.t_grid), cfg.samples)

    jessen_cases = []
    min_slack = float("inf")
    for gen, mats in zip(asserted_gens, stacks):
        # per family, its (time, sample, coordinate) block in one draw
        F = np.array([rng.uniform(*_DOMAIN_BOX[_family_domain_kind(fam)], size=(*shape, gen.dim))
                      for fam in cfg.families])
        phi_zf, _, z_phi_f = _by_groups(
            lambda stack, fams, block: _members_sides(partial(_stack_act, stack), fams, block),
            mats, cfg.families, F)
        residual = z_phi_f - phi_zf
        ok = _jessen_passed(leq_rows(phi_zf, z_phi_f, tol), residual)
        min_slack = min(min_slack, float(residual.min(axis=-1).min()))
        for m, g, s in np.argwhere(~ok):
            jessen_cases.append(jessen_report(phi_zf[m, g, s], z_phi_f[m, g, s], tol,
                                              cfg.t_grid[g], cfg.families[m], gen).to_json())
    report["suites"]["jessen"] = {
        "aggregate": {
            "min_slack": min_slack if min_slack != float("inf") else None,
            "failures": len(jessen_cases),
        },
        "failed_cases": jessen_cases,
        "passed": not jessen_cases,
    }

    adj_worst_tr = 0.0
    adj_worst_gap = float("inf")
    adj_failures = 0
    for gen, mats in zip(asserted_gens, stacks):
        # per family and time, an element and then a dual: (M, G, 1, K) arrays
        fs, duals = np.array([[(rng.uniform(*_DOMAIN_BOX[_family_domain_kind(fam)], size=gen.dim),
                                _random_dual(rng, gen.dim)) for _ in cfg.t_grid]
                              for fam in cfg.families]).transpose(2, 0, 1, 3)[..., None, :]
        for rep in _by_groups(_adjoint_rows, mats, cfg.families, duals, fs):
            adj_worst_tr = max(adj_worst_tr, rep.transpose_defect)
            adj_worst_gap = min(adj_worst_gap, rep.weak_gap)
            if not rep.passed:
                adj_failures += 1
    report["suites"]["adjoint"] = {
        "aggregate": {
            "max_transpose_defect": adj_worst_tr,
            "min_weak_gap": adj_worst_gap if adj_worst_gap != float("inf") else None,
            "failures": adj_failures,
        },
        "passed": adj_failures == 0,
    }

    grams = list(_gram_suite(cfg, asserted_gens, stacks, psets, rng, n_xi=200))
    report["suites"]["gram_psd"] = {
        "records": [{"p": list(gram.pset.p), "t": gram.t, "generator": gen.name} | rep.to_json()
                    for gen, _, gram, rep in grams],
        "passed": all(rep.passed for *_, rep in grams),
    }
    # taken before the observed controls, which never flip the verdict
    report["passed"] = all(suite["passed"] for suite in report["suites"].values())

    if controls:
        observed = [
            verify_jessen(gen, PowerFamily(2.0), random_domain_element(rng, gen.dim, "F"), t,
                          allow_unnormalized=True).to_json()
            for gen in controls for t in cfg.t_grid if t != 0.0
        ]
        report["suites"]["observed_controls"] = {
            "note": "non-conservative generators under override; diagnostics only",
            "cases": observed,
        }
    return report
