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
import csv
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import HypothesisViolationError, SgineqError
from .expconv import ExponentSet, build_gram, check_order_psd
from .figio import write_curves_csv, write_curves_svg
from .lattice import LatticeElement
from .scenes import (
    RotationScene,
    ShiftScene,
    run_rotation_example,
    run_shift_example,
)
from .semigroup import validate_generator
from .suites import ConfigError, SuiteConfig, config_from_json, run_config_verification

__all__ = ["main", "DEFAULT_CONFIG"]

# The bundled benchmark: symmetric 2-state exchange generator, every
# family member, the standard time grid, the {2,4} exponent pair.
DEFAULT_CONFIG: dict = {
    "generators": [{"q": [[-1.0, 1.0], [1.0, -1.0]], "name": "benchmark2"}],
    "families": [
        {"family": "PowerF", "t": -1.0},
        {"family": "PowerF", "t": 0.5},
        {"family": "PowerF", "t": 2.0},
        {"family": "PowerF", "t": 3.0},
        {"family": "NegLog"},
        {"family": "Entropy"},
        {"family": "ExpH", "t": 1.0},
        {"family": "ExpH", "t": -1.0},
        {"family": "HalfSquare"},
    ],
    "t_grid": [0.1, 1.0, 10.0],
    "p_sets": [[2.0, 4.0]],
    "samples": 40,
    "seed": 20240821,
}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2 by default, which collides
    with the hypothesis-violation code; remap them to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n")


def _write_meta(outdir: Path, argv, started: float, extra: dict | None = None) -> None:
    from . import __version__

    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "duration_s": time.monotonic() - started,
        "argv": list(argv),
        "version": __version__,
    }
    if extra:
        meta.update(extra)
    _dump_json(outdir / "report_meta.json", meta)


def _resolve_outdir(*candidates) -> Path:
    env = os.environ.get("SGINEQ_OUTPUT_DIR")
    chosen = env
    if chosen is None:
        for c in candidates:
            if c:
                chosen = c
                break
    outdir = Path(chosen or "out")
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


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
    outdir = _resolve_outdir(args.out, cfg.output_dir)
    _dump_json(outdir / "report.json", report)
    _write_meta(outdir, argv, started, {"report": "report.json"})
    for name, suite in report["suites"].items():
        if "passed" in suite:
            status = "pass" if suite["passed"] else "FAIL"
            print(f"{name}: {status}")
    overall = "pass" if report["passed"] else "FAIL"
    print(f"overall: {overall} ({outdir / 'report.json'})")
    return 0 if report["passed"] else 1


def _figure_shift(t: float, outdir: Path, stem: str) -> dict:
    try:
        scene = ShiftScene(t=t)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    rep = run_shift_example(scene)
    write_curves_csv(outdir / f"{stem}.csv", rep.coords, rep.lhs, rep.rhs)
    write_curves_svg(outdir / f"{stem}.svg", rep.coords, rep.lhs, rep.rhs,
                     title=f"shift scene, t={t:g}")
    print(f"1a t={t:g} verdict={rep.verdict.name}")
    return rep.to_json()


def _figure_rotation(k: int, n: int, outdir: Path, stem: str) -> dict:
    try:
        scene = RotationScene(k=k, n_points=n)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    rep = run_rotation_example(scene)
    write_curves_csv(outdir / f"{stem}.csv", rep.coords, rep.lhs, rep.rhs)
    write_curves_svg(outdir / f"{stem}.svg", rep.coords, rep.lhs, rep.rhs,
                     title=f"rotation scene, k={k}, n={n}")
    print(f"1b k={k} n={n} verdict={rep.verdict.name}")
    return rep.to_json()


def cmd_figure(args, argv) -> int:
    started = time.monotonic()
    outdir = _resolve_outdir(args.out)
    which = {"shift": "1a", "rotation": "1b"}.get(args.which, args.which)
    records = []
    if which == "1a":
        ts = args.t if args.t else [1.0]
        single = len(ts) == 1
        for t in ts:
            stem = "figure1a" if single else f"figure1a_t{t:g}"
            records.append(_figure_shift(t, outdir, stem))
    else:
        ks = args.k if args.k else [90]
        single = len(ks) == 1
        for k in ks:
            stem = "figure1b" if single else f"figure1b_k{k}"
            records.append(_figure_rotation(k, args.n, outdir, stem))
    _dump_json(outdir / "figure_report.json", {"which": which, "cases": records})
    _write_meta(outdir, argv, started, {"report": "figure_report.json"})
    return 0


# Flags of the benchmark run that a config sets itself: the config field
# that applies instead, and the flag's default on the flag route.
_CONFIG_FIELDS = (("t", "t_grid", 1.0), ("tol", "tolerances.psd", 1e-8), ("seed", "seed", 20240821))


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


def cmd_expconv(args, argv) -> int:
    started = time.monotonic()
    _check_expconv_flags(args)
    instances = []
    if args.config is not None:
        cfg = _load_config(args.config)
        if not cfg.p_sets:
            raise ConfigError("expconv needs at least one p_set in the config")
        outdir = _resolve_outdir(args.out, cfg.output_dir)
        rng = np.random.default_rng(cfg.seed)
        for gen in cfg.generators:
            for ps in cfg.p_sets:
                for t in cfg.t_grid:
                    if t == 0.0:
                        continue
                    f = LatticeElement(rng.uniform(0.2, 3.0, size=gen.dim))
                    instances.append((gen, f, t, ps, cfg.psd_tol, cfg.seed))
    else:
        if not args.p:
            raise ConfigError("expconv needs --p values or --config")
        outdir = _resolve_outdir(args.out)
        gen = validate_generator([[-1.0, 1.0], [1.0, -1.0]], name="benchmark2")
        f = LatticeElement([4.0, 1.0])
        instances.append((gen, f, args.t, list(args.p), args.tol, args.seed))

    results = []
    csv_rows = []
    all_pass = True
    for gen, f, t, ps, tol, seed in instances:
        pset = ExponentSet(ps, family_kind=args.family)
        gram = build_gram(gen, f, t, pset)
        rep = check_order_psd(gram, n_xi=args.n_xi, seed=seed, tol=tol)
        all_pass = all_pass and rep.passed
        label = gen.name or f"dim{gen.dim}"
        results.append({
            "generator": label,
            "f": [float(v) for v in f.values],
            "gram": gram.to_json(),
            "psd": rep.to_json(),
        })
        csv_rows.extend((label, t) + row for row in gram.to_csv_rows())
        status = "pass" if rep.passed else "FAIL"
        print(f"{label} t={t:g} p={list(pset.p)} min_eig={rep.min_eigenvalue:.3e} {status}")

    _dump_json(outdir / "gram.json", {"family_kind": args.family, "instances": results})
    with open(outdir / "gram.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generator", "t", "p_i", "p_j", "coordinate", "value"])
        writer.writerows(csv_rows)
    with open(outdir / "min_eigenvalues.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generator", "t", "p", "coordinate", "min_eigenvalue"])
        for rec in results:
            g = rec["gram"]
            for coord in g["coordinates"]:
                writer.writerow([
                    rec["generator"], g["t"], " ".join(f"{p:g}" for p in g["p"]),
                    coord["index"], repr(coord["min_eigenvalue"]),
                ])
    _write_meta(outdir, argv, started, {"report": "gram.json"})
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
    p_fig.add_argument("--n", type=int, default=360, help="grid points on the circle for 1b")
    p_fig.add_argument("--out", help="output directory (default: out)")
    p_fig.set_defaults(func=cmd_figure)

    p_exp = sub.add_parser("expconv", help="Gram assembly and order-PSD verdicts")
    p_exp.add_argument("--config", help="suite config JSON with p_sets")
    p_exp.add_argument("--p", type=float, nargs="+", help="exponent set for the benchmark run")
    p_exp.add_argument("--t", type=float, help="semigroup time for the benchmark run (default 1.0)")
    p_exp.add_argument("--family", choices=["F", "H"], default="F", help="family kind")
    p_exp.add_argument("--tol", type=float, help="PSD tolerance scale (default 1e-8)")
    p_exp.add_argument("--n-xi", type=int, default=1000, help="sampled quadratic-form vectors")
    p_exp.add_argument("--seed", type=int, help="seed for sampled vectors (default 20240821)")
    p_exp.add_argument("--out", help="output directory (default: out)")
    p_exp.set_defaults(func=cmd_expconv)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except ConfigError as err:
        print(f"sgineq: error: {err}", file=sys.stderr)
        return 64
    except HypothesisViolationError as err:
        print(f"sgineq: hypothesis violated: {err}", file=sys.stderr)
        return 2
    except SgineqError as err:
        print(f"sgineq: error: {err}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
