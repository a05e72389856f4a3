"""The four benchmark workloads and their output checks.

Every workload builds its inputs from ``(seed, pass index)``, outside
the timed region, with the public samplers of ``sgineq.suites`` where
they fit. It draws fresh inputs for every pass, so no pass repeats a
(generator, t) pair of an earlier one. A case is one call of the
workload's unit function; ``check`` returns a failure message or None
for one result. ``reference`` names the calibration chunk that matches
what bounds the workload's time.

Only public names of the package are used, so a refactor of its
internals does not break the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from sgineq import cli, suites
from sgineq.expconv import ExponentSet, IllConditionedMidpointError, build_gram, check_order_psd
from sgineq.families import EntropyFamily, NegLogFamily, PowerFamily
from sgineq.jessen import DualVector, verify_adjoint_pairing, verify_jessen
from sgineq.lattice import Ordering
from sgineq.semigroup import evolve, validate_generator

import tracing

# sha256 of report.json written by `sgineq verify` on the bundled config
# at the bundled seed.
BUNDLED_REPORT_SHA256 = "f8d41ab1d2fa8b47af6be3b24a2bf0c4eaa1ba8300e68de6306eecdfb780058d"

JESSEN_TIMES = (0.1, 1.0, 10.0)
SLACK_TOL = 1e-9
LAW_TOL = 1e-10
CONSISTENCY_TOL = 1e-10
GOOD_VERDICTS = (Ordering.LEQ, Ordering.EQUAL)


def pass_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _jessen_failure(report) -> str | None:
    floor = -SLACK_TOL * (1.0 + float(np.max(np.abs(report.residual.values))))
    if report.verdict not in GOOD_VERDICTS:
        return f"verdict {report.verdict.name}"
    if report.min_slack < floor:
        return f"slack {report.min_slack:.3e} below floor {floor:.3e}"
    return None


def _positive_domain(fam) -> bool:
    """True for the power-scale families, whose domain is the positive cone."""
    return isinstance(fam, (PowerFamily, NegLogFamily, EntropyFamily))


class Workload:
    """One named input mix. Subclasses define the pass and the case."""

    name = ""
    reference = "interp"

    def setup(self, workdir: Path) -> None:
        """Import-time and config work that a user pays once per process."""

    def make_pass(self, seed: int, index: int) -> list:
        raise NotImplementedError

    def run_case(self, case):
        raise NotImplementedError

    def check(self, case, result) -> str | None:
        raise NotImplementedError

    def pairs(self, cases) -> list:
        """The (generator, t) pairs whose evolution the cases use."""
        raise NotImplementedError

    def reference_checks(self) -> tuple[int, list, list]:
        """Untimed checks beyond the cases: (attempted, failures, pairs)."""
        return 0, [], []


class VerifyBundled(Workload):
    """`sgineq verify` on the bundled 2-state config, run in process.

    Pass ``i`` runs the bundled config with its seed replaced by one
    drawn from ``(seed, i)``. The reference checks run the bundled
    config unchanged, once untraced and once traced, and require both
    reports to have the recorded sha256.
    """

    name = "verify_bundled"

    def setup(self, workdir):
        self.workdir = workdir
        self.config_path = workdir / "config.json"
        self.outdir = workdir / "verify"

    def make_pass(self, seed, index):
        cfg = dict(cli.DEFAULT_CONFIG, seed=int(pass_rng(seed, index).integers(0, 2 ** 31)))
        self.config_path.write_text(json.dumps(cfg))
        return [["verify", "--config", str(self.config_path), "--out", str(self.outdir)]]

    def run_case(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, argv, code):
        if code != 0:
            return f"exit code {code}"
        report = json.loads((self.outdir / "report.json").read_text())
        return None if report["passed"] is True else "report not passed"

    def _bundled_sha(self, outdir: Path) -> tuple[int | None, str]:
        try:
            code = self.run_case(["verify", "--out", str(outdir)])
            return code, hashlib.sha256((outdir / "report.json").read_bytes()).hexdigest()
        except Exception as err:  # reported as a failed reference check
            return None, f"{type(err).__name__}: {err}"

    def reference_checks(self):
        failures = []
        plain = self._bundled_sha(self.workdir / "bundled")
        with tracing.Tracer(keep_pairs=True) as tracer:
            traced = self._bundled_sha(self.workdir / "bundled_traced")
        for label, (code, sha) in (("untraced", plain), ("traced", traced)):
            if code != 0 or sha != BUNDLED_REPORT_SHA256:
                failures.append(f"bundled verify {label}: exit {code}, sha256 {sha}")
        return 2, failures, list(tracer.pairs.values())

    def pairs(self, cases):
        return []


class RandomCases(Workload):
    """Acceptance criteria 1, 3 and 10 in equal shares, K = 2..8.

    Each pass holds ``per_kind`` cases of each kind, interleaved:
    a Jessen check, an adjoint-pairing check and an s/t/s+t evolution
    triple, each on a freshly drawn conservative generator.
    """

    name = "random_cases"
    per_kind = 300

    def make_pass(self, seed, index):
        rng = pass_rng(seed, index)
        families = suites.benchmark_families()
        cases = []
        for _ in range(self.per_kind):
            for kind in ("jessen", "adjoint", "triple"):
                gen = suites.random_conservative_generator(rng, max_dim=8, max_norm=5.0)
                if kind == "triple":
                    s, t = (float(v) for v in rng.uniform(0.05, 3.0, size=2))
                    cases.append((kind, gen, s, t))
                    continue
                fam = families[int(rng.integers(0, len(families)))]
                t = float(JESSEN_TIMES[int(rng.integers(0, len(JESSEN_TIMES)))])
                f = suites.random_domain_element(rng, gen.dim, "F" if _positive_domain(fam) else "H")
                if kind == "jessen":
                    cases.append((kind, gen, fam, f, t))
                else:
                    raw = rng.uniform(0.0, 1.0, size=gen.dim)
                    cases.append((kind, gen, fam, f, t, DualVector(raw / raw.sum())))
        return cases

    def run_case(self, case):
        kind, gen = case[0], case[1]
        if kind == "jessen":
            return verify_jessen(gen, case[2], case[3], case[4])
        if kind == "adjoint":
            return verify_adjoint_pairing(gen, case[2], case[5], case[3], case[4])
        s, t = case[2], case[3]
        return evolve(gen, s), evolve(gen, t), evolve(gen, s + t)

    def check(self, case, result):
        kind = case[0]
        if kind == "jessen":
            return _jessen_failure(result)
        if kind == "adjoint":
            if not (result.transpose_ok and result.gap_ok
                    and result.consistency_defect <= CONSISTENCY_TOL):
                return f"adjoint pairing failed: {result.to_json()}"
            return None
        zs, zt, zst = (op.matrix for op in result)
        law = float(np.max(np.abs(zs @ zt - zst)))
        drift = float(np.max(np.abs(zst.sum(axis=1) - 1.0)))
        if law > LAW_TOL or drift > LAW_TOL or min(zs.min(), zt.min(), zst.min()) < 0.0:
            return f"semigroup law {law:.2e}, row-sum drift {drift:.2e}"
        return None

    def pairs(self, cases):
        out = []
        for case in cases:
            if case[0] == "triple":
                s, t = case[2], case[3]
                out.extend((case[1], v) for v in (s, t, s + t))
            else:
                out.append((case[1], case[4]))
        return out


class GramPsd(Workload):
    """Acceptance criterion 4: F- and H-kind Gram instances, alternating.

    A case is one ``build_gram`` and one ``check_order_psd`` with 1000
    sampled quadratic forms, on a fresh generator with K = 2..6.
    ``redrawn`` counts the exponent sets redrawn for ``H_GUARD``.
    """

    name = "gram_psd"
    per_pass = 200

    def __init__(self):
        self.redrawn = 0

    def make_pass(self, seed, index):
        rng = pass_rng(seed, index)
        cases = []
        for i in range(self.per_pass):
            kind = "FH"[i % 2]
            gen = suites.random_conservative_generator(rng, max_dim=6, max_norm=4.0)
            f = suites.random_domain_element(rng, gen.dim, kind)
            t = float((0.5, 2.0)[int(rng.integers(0, 2))])
            pset = self._exponent_set(rng, kind)
            cases.append((gen, f, t, pset, int(rng.integers(0, 2 ** 31))))
        return cases

    def run_case(self, case):
        gen, f, t, pset, xi_seed = case
        return check_order_psd(build_gram(gen, f, t, pset), n_xi=1000, seed=xi_seed, tol=1e-8)

    def check(self, case, result):
        return None if result.passed else f"Gram not order-PSD: {result.to_json()}"

    def pairs(self, cases):
        return [(case[0], case[2]) for case in cases]


    def _exponent_set(self, rng, kind: str) -> ExponentSet:
        """Two to six exponents; F-kind in [1.5, 5], H-kind in [-2, 2].

        The distribution of criterion 4's sampler, which ``sgineq.suites``
        keeps private, except that an H-kind set with a nonzero midpoint
        inside ``H_GUARD`` of 0 is redrawn.
        """
        size = int(rng.integers(2, 7))
        while True:
            if kind == "F":
                points = rng.uniform(1.5, 5.0, size=size)
            else:
                points = rng.uniform(-2.0, 2.0, size=size)
                if rng.uniform() < 0.3:
                    points[0] = 0.0
            try:
                pset = ExponentSet(points, family_kind=kind)
            except IllConditionedMidpointError:
                continue
            mids = np.abs(pset.midpoints())
            if kind == "H" and np.any((mids > 0.0) & (mids < H_GUARD)):
                self.redrawn += 1
                continue
            return pset


# The package accepts H-kind midpoints from MIDPOINT_GUARD = 1e-6 of 0 on,
# but its 1/p^2 normalization there loses about 3e-16 / mid^2 to rounding:
# sets with a midpoint up to 1.3e-4 from 0 fail check_order_psd at
# tol = 1e-8 (about 1 in 1300 H-kind sets). At 1e-3 the loss is about
# 3e-10, well inside the tolerance. The benchmark measures speed, so it
# keeps out of that band and reports how often it redrew; the defect
# itself shows in suites.run_gram_random_suite(500, "H", 13).
H_GUARD = 1e-3


class LargeK(Workload):
    """Birth-death chains with K = 300 and seeded rates in [0.5, 1.5].

    A case is one ``verify_jessen`` on a fresh chain. The times follow
    ``TIMES`` so that t = 1 cases outnumber t = 10 cases and the median
    case falls inside one cluster of case times, not between two.
    """

    name = "large_k"
    reference = "blas"
    dim = 300
    TIMES = (1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0, 1.0)

    def make_pass(self, seed, index):
        rng = pass_rng(seed, index)
        families = suites.benchmark_families()
        cases = []
        for t in self.TIMES:
            gen = birth_death(rng, self.dim)
            fam = families[int(rng.integers(0, len(families)))]
            f = suites.random_domain_element(rng, self.dim, "F" if _positive_domain(fam) else "H")
            cases.append((gen, fam, f, t))
        return cases

    def run_case(self, case):
        gen, fam, f, t = case
        return verify_jessen(gen, fam, f, t)

    def check(self, case, result):
        return _jessen_failure(result)

    def pairs(self, cases):
        return [(case[0], case[3]) for case in cases]


def birth_death(rng, dim: int):
    """Conservative tridiagonal generator with rates drawn in [0.5, 1.5]."""
    q = np.zeros((dim, dim))
    idx = np.arange(dim - 1)
    q[idx, idx + 1] = rng.uniform(0.5, 1.5, size=dim - 1)
    q[idx + 1, idx] = rng.uniform(0.5, 1.5, size=dim - 1)
    q[np.diag_indices(dim)] = -q.sum(axis=1)
    return validate_generator(q, name=f"birth_death{dim}")


WORKLOADS = {wl.name: wl for wl in (VerifyBundled, RandomCases, GramPsd, LargeK)}
