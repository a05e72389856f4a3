import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sgineq
from sgineq import cli
from sgineq.expconv import ExponentSet, build_gram
from sgineq.lattice import LatticeElement
from sgineq.scenes import RotationScene, ShiftScene, run_rotation_example, run_shift_example
from sgineq.semigroup import validate_generator

# The directory holding the sgineq package this test process imported
# (src/ in a checkout). The child CLI process gets it first on its
# PYTHONPATH, so it runs the same tree whatever its cwd, and a relative
# PYTHONPATH entry or another installed copy cannot change that.
SOURCE_ROOT = Path(sgineq.__file__).resolve().parents[1]

_IMPORT_FAILURE = re.compile(r"No module named '?sgineq\b")


def run_cli(*args, cwd, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("SGINEQ_OUTPUT_DIR", None)
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE_ROOT), env.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, "-m", "sgineq", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=timeout,
    )
    if _IMPORT_FAILURE.search(res.stderr):
        pytest.fail(
            f"the CLI child process could not import sgineq "
            f"(PYTHONPATH={env['PYTHONPATH']!r}, cwd={cwd}):\n{res.stderr}",
            pytrace=False,
        )
    return res


def small_config(**overrides):
    cfg = {
        "generators": [{"q": [[-1.0, 1.0], [1.0, -1.0]], "name": "benchmark2"}],
        "families": [{"family": "PowerF", "t": 2.0}, {"family": "ExpH", "t": 1.0}],
        "t_grid": [0.5, 1.0],
        "p_sets": [[2.0, 4.0]],
        "samples": 5,
        "seed": 99,
    }
    cfg.update(overrides)
    return cfg


class TestVerify:
    def test_default_run_passes(self, tmp_path):
        res = run_cli("verify", "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        out = tmp_path / "o"
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert "suites" in report
        meta = json.loads((out / "report_meta.json").read_text())
        assert "created_utc" in meta and "duration_s" in meta
        assert "report.json" not in res.stderr

    def test_report_bytes_are_reproducible(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(small_config()))
        a = run_cli("verify", "--config", "cfg.json", "--out", "a", cwd=tmp_path)
        b = run_cli("verify", "--config", "cfg.json", "--out", "b", cwd=tmp_path)
        assert a.returncode == 0 and b.returncode == 0
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        assert ra == rb

    def test_suite_lines_printed(self, tmp_path):
        res = run_cli("verify", "--out", "o", cwd=tmp_path)
        for token in ("lattice", "semigroup", "jessen", "adjoint", "gram"):
            assert token in res.stdout

    def test_missing_config_is_usage_error(self, tmp_path):
        res = run_cli("verify", "--config", "nope.json", cwd=tmp_path)
        assert res.returncode == 64

    def test_malformed_json_is_usage_error(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        res = run_cli("verify", "--config", "bad.json", cwd=tmp_path)
        assert res.returncode == 64

    def test_empty_generator_list_is_usage_error(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(small_config(generators=[])))
        res = run_cli("verify", "--config", "cfg.json", cwd=tmp_path)
        assert res.returncode == 64

    def test_non_conservative_is_hypothesis_violation(self, tmp_path):
        cfg = small_config(
            generators=[{"q": [[0.0, 1.0], [0.0, 0.0]], "name": "drifty"}])
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("verify", "--config", "cfg.json", cwd=tmp_path)
        assert res.returncode == 2
        assert "drifty" in res.stderr

    def test_override_moves_controls_to_observed(self, tmp_path):
        cfg = small_config(
            generators=[
                {"q": [[-1.0, 1.0], [1.0, -1.0]], "name": "benchmark2"},
                {"q": [[0.0, 1.0], [0.0, 0.0]], "name": "drifty"},
            ],
            allow_unnormalized=True,
        )
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("verify", "--config", "cfg.json", "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        observed = report["suites"]["observed_controls"]
        assert observed["cases"]
        assert min(c["min_slack"] for c in observed["cases"]) < -1e-6

    def test_negative_tolerance_is_usage_error(self, tmp_path):
        cfg = small_config(tolerances={"atol": -100.0})
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("verify", "--config", "cfg.json", cwd=tmp_path)
        assert res.returncode == 64
        assert "tolerance" in res.stderr

    def test_zero_psd_tolerance_fails_assertions(self, tmp_path):
        # A duplicated exponent makes the Gram rank-deficient; its zero
        # eigenvalue lands at roundoff scale, so the spectral assertion
        # genuinely fails once the tolerance band is collapsed to zero.
        cfg = small_config(p_sets=[[2.0, 2.0, 4.0]], tolerances={"psd": 0.0})
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("verify", "--config", "cfg.json", "--out", "o", cwd=tmp_path)
        assert res.returncode == 1
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["passed"] is False
        assert "FAIL" in res.stdout

    @pytest.mark.parametrize("overrides", [
        {"tolerances": [1]},
        {"families": ["PowerF"]},
        {"p_sets": [[]]},
        {"seed": -3},
        {"t_grid": [float("nan")]},
    ], ids=["tolerances_not_object", "family_not_object", "empty_p_set", "negative_seed",
            "nan_time"])
    def test_malformed_config_is_usage_error(self, tmp_path, overrides):
        (tmp_path / "cfg.json").write_text(json.dumps(small_config(**overrides)))
        res = run_cli("verify", "--config", "cfg.json", "--out", "o", cwd=tmp_path)
        assert res.returncode == 64, res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o" / "report.json").exists()

    def test_over_budget_samples_is_usage_error(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(small_config(samples=1e9)))
        # the timeout only bounds a broken guard; a guarded run exits at once
        res = run_cli("verify", "--config", "cfg.json", "--out", "o", cwd=tmp_path, timeout=60)
        assert res.returncode == 64, res.stderr
        assert "work budget" in res.stderr
        started = time.perf_counter()
        code = cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 64
        assert time.perf_counter() - started < 1.0
        assert not (tmp_path / "o" / "report.json").exists()

    def test_family_overflow_is_usage_error(self, tmp_path):
        # 3^1000 overflows: the check cannot run, which is no failed check (exit 1)
        cfg = small_config(families=[{"family": "PowerF", "t": 1000}])
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("verify", "--config", "cfg.json", "--out", "o", cwd=tmp_path)
        assert res.returncode == 64, res.stderr
        assert "Traceback" not in res.stderr
        assert "PowerF(1000)" in res.stderr and "finite" in res.stderr
        assert not (tmp_path / "o" / "report.json").exists()

    def test_env_output_dir_wins(self, tmp_path):
        res = run_cli("verify", "--out", "flagdir", cwd=tmp_path,
                      env_extra={"SGINEQ_OUTPUT_DIR": str(tmp_path / "envdir")})
        assert res.returncode == 0
        assert (tmp_path / "envdir" / "report.json").exists()
        assert not (tmp_path / "flagdir").exists()


class TestFigure:
    def test_shift_figure_files_and_verdict(self, tmp_path):
        res = run_cli("figure", "1a", "--t", "1.0", "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "1a t=1 verdict=INCOMPARABLE" in res.stdout
        out = tmp_path / "o"
        assert (out / "figure1a.svg").exists()
        assert (out / "figure_report.json").exists()

        with (out / "figure1a.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["coord", "phi_Zt_f", "Zt_phi_f"]
        rep = run_shift_example(ShiftScene(t=1.0))
        assert len(rows) == 1 + rep.coords.size
        got = np.array([[float(c) for c in row] for row in rows[1:]])
        assert np.array_equal(got[:, 0], rep.coords)
        assert np.array_equal(got[:, 1], rep.lhs)
        assert np.array_equal(got[:, 2], rep.rhs)

    def test_rotation_figure_equality_case(self, tmp_path):
        res = run_cli("figure", "1b", "--k", "360", "--out", "o", cwd=tmp_path)
        assert res.returncode == 0
        assert "1b k=360 n=360 verdict=EQUAL" in res.stdout
        rows = list(csv.reader((tmp_path / "o" / "figure1b.csv").open()))
        assert rows[0] == ["coord", "phi_Zt_f", "Zt_phi_f"]
        rep = run_rotation_example(RotationScene(k=360))
        got = np.array([[float(c) for c in row] for row in rows[1:]])
        assert np.array_equal(got[:, 1], rep.lhs)

    def test_multiple_times_get_stem_suffixes(self, tmp_path):
        res = run_cli("figure", "1a", "--t", "0.5", "--t", "2.0", "--out", "o",
                      cwd=tmp_path)
        assert res.returncode == 0
        assert (tmp_path / "o" / "figure1a_t0.5.csv").exists()
        assert (tmp_path / "o" / "figure1a_t2.csv").exists()

    def test_alias_names(self, tmp_path):
        res = run_cli("figure", "shift", "--t", "1.0", "--out", "o", cwd=tmp_path)
        assert res.returncode == 0
        res = run_cli("figure", "rotation", "--k", "90", "--out", "o", cwd=tmp_path)
        assert res.returncode == 0
        assert "INCOMPARABLE" in res.stdout

    def test_misaligned_t_is_usage_error(self, tmp_path):
        res = run_cli("figure", "1a", "--t", "0.503", "--out", "o", cwd=tmp_path)
        assert res.returncode == 64

    def test_unknown_figure_is_usage_error(self, tmp_path):
        res = run_cli("figure", "2c", cwd=tmp_path)
        assert res.returncode == 64

    @pytest.mark.parametrize("t", ["1e308", "inf"])
    def test_huge_shift_is_usage_error(self, tmp_path, t):
        res = run_cli("figure", "shift", "--t", t, "--out", "o", cwd=tmp_path)
        assert res.returncode == 64, res.stderr
        assert res.stderr.splitlines() == [f"sgineq: error: t = {float(t):g} is not a finite "
                                           "multiple of the step 0.05"]
        assert not (tmp_path / "o" / "figure_report.json").exists()


class TestExpconv:
    def test_flag_route_psd_pass(self, tmp_path):
        res = run_cli("expconv", "--p", "2", "4", "--t", "1.0", "--out", "o",
                      cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        out = tmp_path / "o"
        doc = json.loads((out / "gram.json").read_text())
        assert doc["instances"][0]["gram"]["p"] == [2.0, 4.0]
        rows = list(csv.reader((out / "gram.csv").open()))
        assert rows[0] == ["generator", "t", "p_i", "p_j", "coordinate", "value"]
        assert len(rows) == 1 + 2 * 2 * 2
        eig_rows = list(csv.reader((out / "min_eigenvalues.csv").open()))
        assert len(eig_rows) >= 2

    def test_singleton_matches_library(self, tmp_path):
        res = run_cli("expconv", "--p", "3", "--t", "1.0", "--out", "o",
                      cwd=tmp_path)
        assert res.returncode == 0
        doc = json.loads((tmp_path / "o" / "gram.json").read_text())
        gen = validate_generator([[-1.0, 1.0], [1.0, -1.0]], name="benchmark2")
        gram = build_gram(gen, LatticeElement([4.0, 1.0]), 1.0, ExponentSet((3.0,)))
        got = doc["instances"][0]["gram"]["coordinates"]
        for k in range(2):
            assert got[k]["matrix"] == gram.coordinate_matrices[k].tolist()

    def test_near_special_exponent_is_hypothesis_violation(self, tmp_path):
        res = run_cli("expconv", "--p", "0.9999999", "--out", "o", cwd=tmp_path)
        assert res.returncode == 2
        assert "0.9999999" in res.stderr

    def test_config_route(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(small_config()))
        res = run_cli("expconv", "--config", "cfg.json", "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "o" / "gram.json").read_text())
        # one gram per generator x p_set x nonzero t
        assert len(doc["instances"]) == 2

    @pytest.mark.parametrize("flags,message", [
        (["--t", "-1"], "--t must be a finite nonnegative time, got -1"),
        (["--t", "nan"], "--t must be a finite nonnegative time, got nan"),
        (["--t", "inf"], "--t must be a finite nonnegative time, got inf"),
        (["--n-xi", "0"], "--n-xi must be at least 1, got 0"),
        (["--n-xi", "-5"], "--n-xi must be at least 1, got -5"),
        (["--tol", "nan"], "--tol must be finite and nonnegative, got nan"),
        (["--tol=-1e-8"], "--tol must be finite and nonnegative, got -1e-08"),
        (["--tol", "inf"], "--tol must be finite and nonnegative, got inf"),
        (["--seed", "-1"], "--seed must be nonnegative, got -1"),
        (["--p", "2", "nan"], "--p values must be finite exponents"),
    ], ids=["t_negative", "t_nan", "t_inf", "n_xi_zero", "n_xi_negative", "tol_nan",
            "tol_negative", "tol_inf", "seed_negative", "p_nan"])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        code = cli.main(["expconv", "--p", "2", "4", *flags, "--out", str(tmp_path / "o")])
        assert code == 64
        assert capsys.readouterr().err.splitlines() == [f"sgineq: error: {message}"]
        assert not (tmp_path / "o" / "gram.json").exists()

    def test_bad_flag_exit_code_from_the_command_line(self, tmp_path):
        res = run_cli("expconv", "--p", "2", "4", "--t", "-1", "--out", "o", cwd=tmp_path)
        assert res.returncode == 64, res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("flag,value,field", [
        ("--t", "5", "t_grid"),
        ("--tol", "1e-3", "tolerances.psd"),
        ("--seed", "9", "seed"),
    ], ids=["t", "tol", "seed"])
    def test_config_route_rejects_flag_it_would_ignore(self, tmp_path, capsys, flag, value, field):
        (tmp_path / "cfg.json").write_text(json.dumps(small_config()))
        code = cli.main(["expconv", "--config", str(tmp_path / "cfg.json"), flag, value,
                         "--out", str(tmp_path / "o")])
        assert code == 64
        assert capsys.readouterr().err.splitlines() == [
            f"sgineq: error: {flag} does not apply with --config; set {field} in the config"
        ]
        assert not (tmp_path / "o" / "gram.json").exists()

    def test_config_route_applies_n_xi_and_family(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(small_config()))
        code = cli.main(["expconv", "--config", str(tmp_path / "cfg.json"), "--n-xi", "7",
                         "--family", "H", "--out", str(tmp_path / "o")])
        assert code == 0
        doc = json.loads((tmp_path / "o" / "gram.json").read_text())
        assert doc["family_kind"] == "H"
        assert len(doc["instances"]) == 2
        for inst in doc["instances"]:
            assert inst["psd"]["n_xi"] == 7
            assert inst["psd"]["seed"] == 99
            assert inst["gram"]["family_kind"] == "H"

    def test_flag_route_defaults(self, tmp_path):
        code = cli.main(["expconv", "--p", "2", "4", "--out", str(tmp_path / "o")])
        assert code == 0
        inst = json.loads((tmp_path / "o" / "gram.json").read_text())["instances"][0]
        assert (inst["gram"]["t"], inst["psd"]["tol"], inst["psd"]["seed"]) == (1.0, 1e-8, 20240821)

    def test_zero_time_and_tolerance_are_accepted(self, tmp_path):
        code = cli.main(["expconv", "--p", "2", "4", "--t", "0", "--tol", "0",
                         "--out", str(tmp_path / "o")])
        assert code == 0
        doc = json.loads((tmp_path / "o" / "gram.json").read_text())
        assert doc["instances"][0]["psd"]["min_quadform"] == 0.0


class TestUsage:
    def test_unknown_subcommand(self, tmp_path):
        assert run_cli("frobnicate", cwd=tmp_path).returncode == 64

    def test_unknown_flag(self, tmp_path):
        assert run_cli("verify", "--bogus", cwd=tmp_path).returncode == 64

    def test_no_subcommand(self, tmp_path):
        assert run_cli(cwd=tmp_path).returncode == 64

    def test_help_exits_zero(self, tmp_path):
        res = run_cli("--help", cwd=tmp_path)
        assert res.returncode == 0
        for sub in ("verify", "figure", "expconv"):
            assert sub in res.stdout
