"""Command-line front door.

Three subcommands: ``verify`` runs the randomized suites against a JSON
config (or the bundled 2-state benchmark config), ``figure`` renders a
counterexample scene to CSV + SVG, ``expconv`` assembles Gram matrices
and reports their order-PSD verdicts.

Exit codes: 0 all asserted invariants pass; 1 an asserted invariant
fails; 2 a stated hypothesis is violated (non-conservative generator
without override, guard-band midpoint); 64 malformed config or usage.

``report.json`` bytes depend only on config and seed. Anything
time-dependent (timestamps, durations, argv) goes to
``report_meta.json`` next to it. The env var ``SGINEQ_OUTPUT_DIR``
overrides every output-directory setting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from .errors import HypothesisViolationError, SgineqError
from .expconv import ExponentSet, build_gram, check_order_psd
from .families import family_to_json
from .lattice import LatticeElement
from .semigroup import generator_from_json
from .suites import (_SUITE_TIMES, ConfigError, SuiteConfig, _evolved_stacks, _gram_suite,
                     _split_controls, _within_budget, benchmark_families, config_from_json,
                     run_config_verification)

__all__ = ["main", "DEFAULT_CONFIG"]

_DEFAULTS = SuiteConfig._field_defaults

# The bundled benchmark: the symmetric 2-state exchange generator, the nine
# benchmark families, the times of the random suites and the {2,4} exponent pair.
DEFAULT_CONFIG: dict = {
    "generators": [{"q": [[-1.0, 1.0], [1.0, -1.0]], "name": "benchmark2"}],
    "families": [family_to_json(fam) for fam in benchmark_families()],
    "t_grid": list(_SUITE_TIMES),
    "p_sets": [[2.0, 4.0]],
    "samples": 40,
    "seed": _DEFAULTS["seed"],
}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2 by default, which collides
    with the hypothesis-violation code; remap them to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_meta(outdir: Path, argv, started: float, report: str) -> None:
    from . import __version__

    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "duration_s": time.monotonic() - started,
        "argv": list(argv),
        "version": __version__,
        "report": report,
    }
    _dump_json(outdir / "report_meta.json", meta)


@contextmanager
def _resolve_outdir(*candidates):
    """Create and yield SGINEQ_OUTPUT_DIR if set, else the first nonempty
    candidate, else ``out``; each command enters it only after its work and
    writes its files inside. A directory that cannot be made or written, say
    an existing file, is a usage error naming it."""
    chosen = os.environ.get("SGINEQ_OUTPUT_DIR", next(filter(None, candidates), None))
    outdir = Path(chosen or "out")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        yield outdir
    except OSError as err:
        raise ConfigError(f"cannot write the output directory {str(outdir)!r}: {err}") from err


def _load_config(path: str | None) -> SuiteConfig:
    if path is None:
        return config_from_json(DEFAULT_CONFIG)
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from err
    return config_from_json(data, base_dir=p.parent)


def cmd_verify(args, argv) -> int:
    started = time.monotonic()
    cfg = _load_config(args.config)
    report = run_config_verification(cfg)
    with _resolve_outdir(args.out, cfg.output_dir) as outdir:
        _dump_json(outdir / "report.json", report)
        _write_meta(outdir, argv, started, "report.json")
    for name, suite in report["suites"].items():
        if "passed" in suite:
            status = "pass" if suite["passed"] else "FAIL"
            print(f"{name}: {status}")
    overall = "pass" if report["passed"] else "FAIL"
    print(f"overall: {overall} ({outdir / 'report.json'})")
    return 0 if report["passed"] else 1


def _figure(stem: str, title: str, line: str, scene, run) -> tuple:
    """Run the scene that ``scene()`` builds and return it with the file stem,
    plot title and verdict line it is written under; a scene that cannot be
    built is a usage error."""
    try:
        built = scene()
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return stem, title, line, run(built)


def cmd_figure(args, argv) -> int:
    # scenes and figio load only here, so verify and expconv never import them
    from .figio import write_curves_csv, write_curves_svg
    from .scenes import RotationScene, ShiftScene, run_rotation_example, run_shift_example

    started = time.monotonic()
    which = {"shift": "1a", "rotation": "1b"}.get(args.which, args.which)
    # a flag of the other scene would be ignored, so it is a usage error
    for flag in ("k", "n") if which == "1a" else ("t",):
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag} does not apply to figure {args.which}")
    # a repeated value runs once, so the file stem follows the distinct values
    if which == "1a":
        ts = list(dict.fromkeys(args.t)) if args.t else [1.0]
        single = len(ts) == 1
        figures = [_figure("figure1a" if single else f"figure1a_t{t:g}", f"shift scene, t={t:g}",
                           f"1a t={t:g}", partial(ShiftScene, t=t), run_shift_example)
                   for t in ts]
    else:
        n = 360 if args.n is None else args.n
        _within_budget("--n", n)
        ks = list(dict.fromkeys(args.k)) if args.k else [90]
        single = len(ks) == 1
        figures = [_figure("figure1b" if single else f"figure1b_k{k}",
                           f"rotation scene, k={k}, n={n}", f"1b k={k} n={n}",
                           partial(RotationScene, k=k, n_points=n), run_rotation_example)
                   for k in ks]
    with _resolve_outdir(args.out) as outdir:
        for stem, title, line, rep in figures:
            write_curves_csv(outdir / f"{stem}.csv", rep.coords, rep.lhs, rep.rhs)
            write_curves_svg(outdir / f"{stem}.svg", rep.coords, rep.lhs, rep.rhs, title=title)
            print(f"{line} verdict={rep.verdict.name}")
        cases = [rep.to_json() for *_, rep in figures]
        _dump_json(outdir / "figure_report.json", {"which": which, "cases": cases})
        _write_meta(outdir, argv, started, "figure_report.json")
    return 0


# Flags of the benchmark run that a config sets itself: the config field
# that applies instead, and the flag's default on the flag route.
_CONFIG_FIELDS = (("t", "t_grid", 1.0), ("tol", "tolerances.psd", _DEFAULTS["psd_tol"]),
                  ("seed", "seed", _DEFAULTS["seed"]))


def _check_expconv_flags(args) -> None:
    """Reject --t, --tol and --seed given with --config, which would be
    ignored, and the flag values that ``config_from_json`` rejects in a
    config. Flags left out take their flag-route defaults."""
    for flag, field, default in _CONFIG_FIELDS:
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.config is not None:
            raise ConfigError(f"--{flag} does not apply with --config; set {field} in the config")
    if args.p is not None and not all(math.isfinite(p) for p in args.p):
        raise ConfigError("--p values must be finite exponents")
    if not (math.isfinite(args.t) and args.t >= 0):
        raise ConfigError(f"--t must be a finite nonnegative time, got {args.t:g}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ConfigError(f"--tol must be finite and nonnegative, got {args.tol:g}")
    if args.n_xi < 1:
        raise ConfigError(f"--n-xi must be at least 1, got {args.n_xi}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")


def _check_n_xi(n_xi: int, psets, gens) -> None:
    """Bound the values that the screen of ``check_order_psd`` holds at the largest sizes."""
    _within_budget("--n-xi x p-set size x generator dim",
                   n_xi * max(ps.size for ps in psets) * max((g.dim for g in gens), default=0))


def cmd_expconv(args, argv) -> int:
    import csv

    started = time.monotonic()
    _check_expconv_flags(args)
    if args.config is not None:
        cfg = _load_config(args.config)
        if not cfg.p_sets:
            raise ConfigError("expconv needs at least one p_set in the config")
        gens, _ = _split_controls(cfg)
        # built before any instance, so a guard-band midpoint is a hypothesis
        # violation whatever the times, as in verify
        psets = [ExponentSet(ps, family_kind=args.family) for ps in cfg.p_sets]
        _check_n_xi(args.n_xi, psets, gens)
        outdirs = (args.out, cfg.output_dir)
        stacks = _evolved_stacks(gens, cfg.t_grid)
        instances = _gram_suite(cfg, gens, stacks, psets, np.random.default_rng(cfg.seed),
                                args.n_xi, xi_seed=cfg.seed)
    else:
        if not args.p:
            raise ConfigError("expconv needs --p values or --config")
        gen = generator_from_json(DEFAULT_CONFIG["generators"][0])
        # the Gram entries, bounded before the set's O(n^2) midpoints are formed
        _within_budget("--p size^2 x generator dim", len(args.p) ** 2 * gen.dim)
        pset = ExponentSet(args.p, family_kind=args.family)
        outdirs = (args.out,)
        _check_n_xi(args.n_xi, [pset], [gen])
        f = LatticeElement([4.0, 1.0])
        gram = build_gram(gen, f, args.t, pset)
        rep = check_order_psd(gram, n_xi=args.n_xi, seed=args.seed, tol=args.tol)
        instances = [(gen, f.values, gram, rep)]

    results, csv_rows, eig_rows = [], [], []
    all_pass = True
    for gen, f, gram, rep in instances:
        all_pass = all_pass and rep.passed
        label = gen.name or f"dim{gen.dim}"
        results.append({
            "generator": label,
            "f": f.tolist(),
            "gram": gram.to_json(),
            "psd": rep.to_json(),
        })
        csv_rows.extend((label, gram.t) + row for row in gram.to_csv_rows())
        p_text = " ".join(f"{p:g}" for p in gram.pset.p)
        eig_rows.extend([label, gram.t, p_text, k, repr(float(v))]
                        for k, v in enumerate(gram.min_eigenvalues))
        status = "pass" if rep.passed else "FAIL"
        print(f"{label} t={gram.t:g} p={list(gram.pset.p)} "
              f"min_eig={rep.min_eigenvalue:.3e} {status}")

    with _resolve_outdir(*outdirs) as outdir:
        _dump_json(outdir / "gram.json", {"family_kind": args.family, "instances": results})
        with open(outdir / "gram.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["generator", "t", "p_i", "p_j", "coordinate", "value"])
            writer.writerows(csv_rows)
        with open(outdir / "min_eigenvalues.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["generator", "t", "p", "coordinate", "min_eigenvalue"])
            writer.writerows(eig_rows)
        _write_meta(outdir, argv, started, "gram.json")
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sgineq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--config", help="suite config JSON; bundled benchmark when omitted")
    p_verify.add_argument("--out", help="output directory (default: config output_dir)")
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figure", help="render a counterexample scene")
    p_fig.add_argument("which", choices=["1a", "1b", "shift", "rotation"],
                       help="1a/shift: translation on the line; 1b/rotation: circle rotation")
    p_fig.add_argument("--t", type=float, action="append",
                       help="shift distance for 1a (repeatable; default 1.0)")
    p_fig.add_argument("--k", type=int, action="append",
                       help="rotation steps for 1b (repeatable; default 90)")
    p_fig.add_argument("--n", type=int, help="grid points on the circle for 1b (default 360)")
    p_fig.add_argument("--out", help="output directory (default: out)")
    p_fig.set_defaults(func=cmd_figure)

    p_exp = sub.add_parser("expconv", help="Gram assembly and order-PSD verdicts")
    p_exp.add_argument("--config", help="suite config JSON with p_sets")
    p_exp.add_argument("--p", type=float, nargs="+", help="exponent set for the benchmark run")
    p_exp.add_argument("--t", type=float, help="semigroup time for the benchmark run (default 1.0)")
    p_exp.add_argument("--family", choices=["F", "H"], default="F", help="family kind")
    p_exp.add_argument("--tol", type=float,
                       help=f"PSD tolerance scale (default {_DEFAULTS['psd_tol']:g})")
    p_exp.add_argument("--n-xi", type=int, default=1000, help="sampled quadratic-form vectors")
    p_exp.add_argument("--seed", type=int,
                       help=f"seed for sampled vectors (default {_DEFAULTS['seed']})")
    p_exp.add_argument("--out", help="output directory (default: out)")
    p_exp.set_defaults(func=cmd_expconv)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except HypothesisViolationError as err:
        print(f"sgineq: hypothesis violated: {err}", file=sys.stderr)
        return 2
    except SgineqError as err:
        print(f"sgineq: error: {err}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
