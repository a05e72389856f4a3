import csv
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from sgineq import cli, expconv, suites
from sgineq.expconv import ExponentSet, build_gram, check_order_psd
from sgineq.lattice import LatticeElement
from sgineq.scenes import RotationScene, ShiftScene, run_rotation_example, run_shift_example
from sgineq.semigroup import validate_generator
from sgineq.suites import config_from_json, random_domain_element

from children import SOURCE_ROOT, run_python

_IMPORT_FAILURE = re.compile(r"No module named '?sgineq\b")


def run_cli(*args, cwd, env_extra=None, timeout=None):
    res = run_python("-m", "sgineq", *args, cwd=cwd, env_extra=env_extra, timeout=timeout)
    if _IMPORT_FAILURE.search(res.stderr):
        pytest.fail(
            f"the CLI child process could not import sgineq "
            f"(from {SOURCE_ROOT}, cwd={cwd}):\n{res.stderr}",
            pytrace=False,
        )
    return res


CONFIG_DIR = SOURCE_ROOT.parent / "configs"


@pytest.fixture
def exponent_sets(monkeypatch):
    """The arguments of every ExponentSet built while the test runs."""
    real_init, built = ExponentSet.__init__, []

    def spy(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ExponentSet, "__init__", spy)
    return built


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

    @pytest.mark.parametrize("value", [-1e-9, float("inf"), float("nan")],
                             ids=["negative", "inf", "nan"])
    @pytest.mark.parametrize("key", ["atol", "rtol", "psd"])
    def test_tolerance_outside_the_one_rule_is_usage_error(self, tmp_path, capsys, key, value):
        # json writes inf and nan as Infinity and NaN, which json.loads reads back
        (tmp_path / "cfg.json").write_text(json.dumps(small_config(tolerances={key: value})))
        code = cli.main(["verify", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(tmp_path / "o")])
        assert code == 64
        assert capsys.readouterr().err.splitlines() == [
            "sgineq: error: tolerances atol, rtol and psd must be finite and nonnegative"]
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("config,message", [
        (small_config(tolerances=[1]), "tolerances must be a JSON object"),
        (small_config(families=["PowerF"]),
         "bad family selector: family selector must be a JSON object, got 'PowerF'"),
        (small_config(p_sets=[[]]), "every p_set must be a nonempty list of finite exponents"),
        (small_config(seed=-3), "seed must be nonnegative"),
        (small_config(t_grid=[float("nan")]),
         "t_grid must be nonempty with finite nonnegative entries"),
        ([], "config must be a JSON object"),
    ], ids=["tolerances_not_object", "family_not_object", "empty_p_set", "negative_seed",
            "nan_time", "config_not_object"])
    def test_malformed_config_is_usage_error(self, tmp_path, config, message):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        res = run_cli("verify", "--config", "cfg.json", "--out", "o", cwd=tmp_path)
        assert res.returncode == 64, res.stderr
        assert res.stderr.splitlines() == [f"sgineq: error: {message}"]
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("selector", [{"family": []}, {"family": 3}, {}],
                             ids=["list", "number", "missing"])
    def test_selector_that_names_no_family_is_usage_error(self, tmp_path, capsys, selector):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(small_config(families=[selector])))
        assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 64
        assert capsys.readouterr().err.splitlines() == [
            f"sgineq: error: bad family selector: unknown family selector {selector!r}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field,value", [
        ("allow_unnormalized", "false"), ("allow_unnormalized", "no"),
        ("allow_unnormalized", 0.5), ("allow_unnormalized", 1),
        ("samples", 2.9), ("samples", True), ("samples", "5"),
        ("seed", 7.5), ("seed", False), ("seed", "99"),
        ("output_dir", 5), ("output_dir", None),
    ])
    def test_field_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, field, value):
        # the non-conservative generator passes as an observed control under
        # the override, so a value taken for true or cut to an int would pass
        cfg = small_config(generators=[*small_config()["generators"],
                                       {"q": [[0.0, 1.0], [0.0, 0.0]], "name": "drifty"}],
                           allow_unnormalized=True)
        cfg[field] = value
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(cfg))
        assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("overrides,named", [
        ({"t_grid": [True, 2.0]}, "t_grid"), ({"t_grid": [0.5, "2"]}, "t_grid"),
        ({"p_sets": [[True, 4.0]]}, "p_sets"), ({"p_sets": [[2.0, "4"]]}, "p_sets"),
        ({"p_sets": ["24"]}, "p_sets"),
        ({"tolerances": {"atol": True}}, "tolerances.atol"),
        ({"tolerances": {"rtol": "1e-12"}}, "tolerances.rtol"),
        ({"tolerances": {"psd": False}}, "tolerances.psd"),
        ({"families": [{"family": "PowerF", "t": "2"}]}, "t must be a number"),
        ({"families": [{"family": "ExpH", "t": True}]}, "t must be a number"),
        ({"generators": [{"q": [["-1", "1"], ["1", "-1"]]}]}, "generator q must be"),
        ({"generators": [{"q": [[-1, True], [1, -1]]}]}, "generator q must be"),
        ({"generators": [{"q": [[-1, 10 ** 400], [1, -1]]}]}, "bad generator entry"),
        ({"t_grid": [10 ** 400]},
         "t_grid entries must be numbers: int too large to convert to float"),
        ({"p_sets": [[2.0, 10 ** 400]]}, "bad config value: int too large to convert to float"),
        ({"tolerances": {"atol": 10 ** 400}},
         "bad config value: int too large to convert to float"),
        ({"generators": [{"q": [[-1.0, float("nan")], [1.0, -1.0]]}]},
         "bad generator entry: generator entries must be finite"),
        ({"families": [{"family": "PowerF", "t": float("nan")}]},
         "bad family selector: family parameter must be finite, got nan"),
        ({"families": [{"family": "ExpH", "t": float("inf")}]},
         "bad family selector: family parameter must be finite, got inf"),
    ], ids=["t_grid_bool", "t_grid_str", "p_set_bool", "p_set_str", "p_set_not_list", "atol_bool",
            "rtol_str", "psd_bool", "power_t_str", "exp_t_bool", "q_str", "q_bool", "q_huge_int",
            "t_grid_huge_int", "p_set_huge_int", "atol_huge_int", "q_nan", "power_t_nan",
            "exp_t_inf"])
    def test_number_field_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, overrides, named):
        # each of these values would be coerced by float() into a config that
        # runs, or, an integer beyond double range or a NaN or infinite entry
        # (JSON's NaN and Infinity), stop it with a traceback; no warning escapes
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(small_config(**overrides)))
        assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("overrides,named", [
        ({"sampels": 5}, "unknown config key 'sampels'"),
        ({"tolerances": {"atol": 1e-9, "ratol": 1.0}}, "unknown tolerances key 'ratol'"),
        ({"generators": [{"q": [[-1.0, 1.0], [1.0, -1.0]], "name": 5}]}, "name must be a string"),
        ({"generators": [{"q": [[-1.0, 1.0], [1.0, -1.0]], "name": None}]}, "name must be a string"),
        ({"generators": [{"q": [[-1.0, 1.0], [1.0, -1.0]], "name": "b"},
                         {"q": [[-2.0, 2.0], [1.0, -1.0]], "name": "b"}]},
         "name 'b' is given more than once"),
        ({"generators": [{"q": [[-1.0, 1.0], [1.0, -1.0]], "nmae": "x"}]},
         "unknown generator key 'nmae'"),
        ({"families": [{"family": "NegLog", "t": 2.0}]}, "unknown family selector key 't'"),
        ({"families": [{"family": "PowerF", "t": 2.0, "p": 3}]}, "unknown family selector key 'p'"),
        ({"generators": [[[-1.0, 1.0], [1.0, -1.0]]]}, "a generator must be a JSON object"),
    ], ids=["top_level_key", "tolerances_key", "name_number", "name_null", "name_twice",
            "generator_key", "parameter_of_no_parameter_family", "family_key", "generator_list"])
    def test_unknown_key_or_bad_generator_name_is_usage_error(self, tmp_path, capsys, overrides,
                                                              named):
        # an unknown key would be ignored, and a witness names its generator
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(small_config(**overrides)))
        assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("content,named", [
        ({"q": [[-1.0, 1.0], [1.0, -1.0]], "nmae": "x"}, "unknown generator key 'nmae'"),
        ([[-1.0, 1.0], [1.0, -1.0]], "a generator must be a JSON object"),
    ], ids=["key", "list"])
    def test_generator_ref_is_held_to_the_inline_rules(self, tmp_path, capsys, content, named):
        (tmp_path / "gen.json").write_text(json.dumps(content))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(small_config(generators=["gen.json"])))
        assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_unnamed_generators_stay_allowed(self, tmp_path):
        gens = [{"q": [[-1.0, 1.0], [1.0, -1.0]]}, {"q": [[-2.0, 2.0], [1.0, -1.0]]}]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(small_config(generators=gens)))
        assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0

    def test_integral_float_fields_are_taken_as_ints(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(small_config(samples=3.0, seed=99.0, allow_unnormalized=False)))
        assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
        config = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
        assert (config["samples"], config["seed"]) == (3, 99)
        assert type(config["samples"]) is int and type(config["seed"]) is int

    @pytest.mark.parametrize("generators", [["benchmark2"], ["benchmark2", "drifty"], ["drifty"]])
    def test_guard_band_p_set_is_a_hypothesis_violation_for_any_generators(
            self, tmp_path, capsys, generators):
        # the midpoint 1 + 1e-7 lies within MIDPOINT_GUARD of the special point 1
        q = {"benchmark2": [[-1.0, 1.0], [1.0, -1.0]], "drifty": [[0.0, 1.0], [0.0, 0.0]]}
        cfg = small_config(generators=[{"q": q[name], "name": name} for name in generators],
                           p_sets=[[1.0, 1.0 + 2e-7]], allow_unnormalized=True)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(cfg))
        assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert "midpoint" in capsys.readouterr().err
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
        with (tmp_path / "o" / "figure1b.csv").open() as fh:
            rows = list(csv.reader(fh))
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


    @pytest.mark.parametrize("which,flag,values,distinct,stem", [
        ("1b", "--k", ["90", "90"], ["90"], "figure1b"),
        ("1a", "--t", ["1.0", "1"], ["1.0"], "figure1a"),
        ("1b", "--k", ["90", "360", "90"], ["90", "360"], None),
    ], ids=["k_twice", "t_twice", "k_repeat_among_two"])
    def test_repeated_value_runs_once(self, tmp_path, capsys, which, flag, values, distinct,
                                      stem):
        runs = {}
        for name, given in (("repeated", values), ("distinct", distinct)):
            argv = [arg for v in given for arg in (flag, v)]
            assert cli.main(["figure", which, *argv, "--out", str(tmp_path / name)]) == 0
            out = tmp_path / name
            runs[name] = (capsys.readouterr().out,
                          {p.name: p.read_bytes() for p in out.iterdir()
                           if p.name != "report_meta.json"})
        assert runs["repeated"] == runs["distinct"]
        stdout, files = runs["repeated"]
        assert len(stdout.splitlines()) == len(distinct)
        assert len(json.loads(files["figure_report.json"])["cases"]) == len(distinct)
        if stem is not None:
            assert sorted(files) == [f"{stem}.csv", f"{stem}.svg", "figure_report.json"]

    def test_circle_size_over_the_work_budget_is_usage_error(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(suites, "MAX_SAMPLE_WORK", 100)
        assert cli.main(["figure", "1b", "--n", "101", "--out", str(tmp_path / "o")]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["sgineq: error: --n = 101 exceeds the work budget 100"]
        assert not (tmp_path / "o").exists()
        assert cli.main(["figure", "1b", "--n", "100", "--out", str(tmp_path / "o")]) == 0


    @pytest.mark.parametrize("which,flags,named", [
        ("1a", ["--k", "5"], "--k"), ("1a", ["--n", "7"], "--n"),
        ("1a", ["--k", "5", "--n", "7"], "--k"), ("1b", ["--t", "3.0"], "--t"),
        ("shift", ["--k", "5"], "--k"), ("shift", ["--n", "7"], "--n"),
        ("shift", ["--k", "5", "--n", "7"], "--k"), ("rotation", ["--t", "3.0"], "--t"),
    ])
    def test_flag_of_the_other_scene_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                    which, flags, named):
        from sgineq import scenes

        def never(**kwargs):
            raise AssertionError("a scene was built")

        for name in ("ShiftScene", "RotationScene"):
            monkeypatch.setattr(scenes, name, never)
        assert cli.main(["figure", which, *flags, "--out", str(tmp_path / "o")]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"sgineq: error: {named} does not apply to figure {which}"]
        assert not (tmp_path / "o").exists()

    def test_circle_size_360_is_the_default(self, tmp_path, capsys):
        runs = []
        for name, flags in (("default", []), ("given", ["--n", "360"])):
            assert cli.main(["figure", "1b", *flags, "--out", str(tmp_path / name)]) == 0
            runs.append((capsys.readouterr().out,
                         {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                          if p.name != "report_meta.json"}))
        assert runs[0] == runs[1]
        assert runs[0][0] == "1b k=90 n=360 verdict=INCOMPARABLE\n"
        with pytest.raises(SystemExit) as stop:
            cli.main(["figure", "--help"])
        assert stop.value.code == 0 and "default 360" in capsys.readouterr().out


class TestExpconv:
    def test_flag_route_psd_pass(self, tmp_path):
        res = run_cli("expconv", "--p", "2", "4", "--t", "1.0", "--out", "o",
                      cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        out = tmp_path / "o"
        doc = json.loads((out / "gram.json").read_text())
        assert doc["instances"][0]["gram"]["p"] == [2.0, 4.0]
        with (out / "gram.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["generator", "t", "p_i", "p_j", "coordinate", "value"]
        assert len(rows) == 1 + 2 * 2 * 2
        with (out / "min_eigenvalues.csv").open() as fh:
            eig_rows = list(csv.reader(fh))
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

    def test_config_route_checks_p_sets_with_no_instance(self, tmp_path, capsys):
        # t = 0 gives no Gram instance, but a guard-band midpoint is still a
        # hypothesis violation, as in verify
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(small_config(t_grid=[0.0], p_sets=[[1.0, 1.0000002]])))
        for command in ("verify", "expconv"):
            assert cli.main([command, "--config", str(cfgfile), "--out", str(tmp_path / command)]) == 2
            assert "midpoint" in capsys.readouterr().err
        assert not (tmp_path / "expconv" / "gram.json").exists()

    def test_config_route_skips_controls_under_the_override(self, tmp_path):
        # configs/control_psets.json: benchmark2 and a control with positive row
        # sums, under allow_unnormalized; the Gram suite checks benchmark2 alone
        cfgfile = CONFIG_DIR / "control_psets.json"
        assert cli.main(["expconv", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "gram.json").read_text())
        assert [(inst["generator"], inst["gram"]["t"]) for inst in doc["instances"]] == [
            ("benchmark2", 0.5), ("benchmark2", 2.0)]

    def test_config_route_control_without_override_stops_before_any_instance(
            self, tmp_path, capsys):
        data = json.loads((CONFIG_DIR / "control_psets.json").read_text())
        (tmp_path / "cfg.json").write_text(json.dumps(dict(data, allow_unnormalized=False)))
        errors = []
        for command in ("verify", "expconv"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == (
            "sgineq: hypothesis violated: growth_control is not conservative; "
            "set allow_unnormalized to run it as a control\n")
        assert not (tmp_path / "expconv" / "gram.json").exists()

    @pytest.mark.parametrize("kind", ["F", "H"])
    def test_config_route_matches_a_plain_gram_loop(self, tmp_path, kind):
        # the loop of the config route written out: f drawn in (generator,
        # p_set, t) order from the config seed, build_gram on each, and every
        # check_order_psd seeded by the config seed
        cfgfile = CONFIG_DIR / "expconv_psets.json"
        assert cli.main(["expconv", "--config", str(cfgfile), "--family", kind,
                         "--out", str(tmp_path / "o")]) == 0
        cfg = config_from_json(json.loads(cfgfile.read_text()))
        rng = np.random.default_rng(cfg.seed)
        instances = []
        for gen in cfg.generators:
            for ps in cfg.p_sets:
                for t in cfg.t_grid:
                    if t == 0.0:
                        continue
                    f = random_domain_element(rng, gen.dim, "F")
                    gram = build_gram(gen, f, t, ExponentSet(ps, family_kind=kind))
                    rep = check_order_psd(gram, n_xi=1000, seed=cfg.seed, tol=cfg.psd_tol)
                    instances.append({"generator": gen.name, "f": f.values.tolist(),
                                      "gram": gram.to_json(), "psd": rep.to_json()})
        want = json.dumps({"family_kind": kind, "instances": instances}, sort_keys=True, indent=2)
        assert (tmp_path / "o" / "gram.json").read_text() == want + "\n"

    def test_config_route_evolves_once_per_generator_and_time(self, tmp_path, monkeypatch):
        calls = []
        real_evolve = suites.evolve

        def spy(gen, t):
            calls.append((gen.name, t))
            return real_evolve(gen, t)

        monkeypatch.setattr(suites, "evolve", spy)
        monkeypatch.setattr(expconv, "evolve", spy)
        # two generators, two p_sets and the times 0, 0.5 and 2: Z(0) = I needs no evolve
        cfgfile = CONFIG_DIR / "expconv_psets.json"
        assert cli.main(["expconv", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
        assert sorted(calls) == [("benchmark2", 0.5), ("benchmark2", 2.0),
                                 ("three", 0.5), ("three", 2.0)]

    def test_config_route_evolve_error_stops_before_any_instance(self, tmp_path, capsys):
        # t * ||Q|| = 2e9 is past the time cap, which evolve reports as a usage error
        (tmp_path / "cfg.json").write_text(json.dumps(small_config(t_grid=[0.5, 1e9])))
        code = cli.main(["expconv", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(tmp_path / "o")])
        assert code == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the cap" in captured.err
        assert not (tmp_path / "o" / "gram.json").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--p", "2", "4", "--t", "-1"], "--t must be a finite nonnegative time, got -1"),
        (["--p", "2", "4", "--t", "nan"], "--t must be a finite nonnegative time, got nan"),
        (["--p", "2", "4", "--t", "inf"], "--t must be a finite nonnegative time, got inf"),
        (["--p", "2", "4", "--n-xi", "0"], "--n-xi must be at least 1, got 0"),
        (["--p", "2", "4", "--n-xi", "-5"], "--n-xi must be at least 1, got -5"),
        (["--p", "2", "4", "--tol", "nan"], "--tol must be finite and nonnegative, got nan"),
        (["--p", "2", "4", "--tol=-1e-8"], "--tol must be finite and nonnegative, got -1e-08"),
        (["--p", "2", "4", "--tol", "inf"], "--tol must be finite and nonnegative, got inf"),
        (["--p", "2", "4", "--seed", "-1"], "--seed must be nonnegative, got -1"),
        (["--p", "2", "4", "--p", "2", "nan"], "--p values must be finite exponents"),
        ([], "expconv needs --p values or --config"),
        # a config with no p_sets, here the one at the sample cap
        (["--config", str(CONFIG_DIR / "at_sample_cap.json")],
         "expconv needs at least one p_set in the config"),
    ], ids=["t_negative", "t_nan", "t_inf", "n_xi_zero", "n_xi_negative", "tol_nan",
            "tol_negative", "tol_inf", "seed_negative", "p_nan", "no_p_or_config",
            "config_without_p_sets"])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        code = cli.main(["expconv", *flags, "--out", str(tmp_path / "o")])
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

    @pytest.mark.parametrize("n_xi,code", [("3", 64), ("2", 0)], ids=["over", "at"])
    def test_flag_route_n_xi_over_the_work_budget_is_usage_error(self, tmp_path, capsys,
                                                                  monkeypatch, n_xi, code):
        # the screen holds n_xi x 2 exponents x 2 states values
        monkeypatch.setattr(suites, "MAX_SAMPLE_WORK", 8)
        out = tmp_path / "o"
        assert cli.main(["expconv", "--p", "2", "4", "--n-xi", n_xi, "--out", str(out)]) == code
        if code == 64:
            assert capsys.readouterr().err.splitlines() == [
                "sgineq: error: --n-xi x p-set size x generator dim = 12 exceeds the work "
                "budget 8"]
            assert not out.exists()

    @pytest.mark.parametrize("n_xi,code", [("8", 64), ("7", 0)], ids=["over", "at"])
    def test_config_route_n_xi_over_the_work_budget_is_usage_error(self, tmp_path, capsys,
                                                                    monkeypatch, n_xi, code):
        # the largest p_set has 3 exponents and the largest generator 3 states; the
        # Gram entries, (2^2 + 3^2) x (2 + 3) states x 1 time = 65, sit at the budget
        cfg = small_config(
            generators=[{"q": [[-1.0, 1.0], [1.0, -1.0]]},
                        {"q": [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]}],
            families=[{"family": "PowerF", "t": 2.0}], t_grid=[1.0], samples=1,
            p_sets=[[2.0, 4.0], [2.0, 3.0, 5.0]])
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        monkeypatch.setattr(suites, "MAX_SAMPLE_WORK", 65)
        out = tmp_path / "o"
        assert cli.main(["expconv", "--config", str(tmp_path / "cfg.json"), "--n-xi", n_xi,
                         "--out", str(out)]) == code
        if code == 64:
            assert capsys.readouterr().err.splitlines() == [
                "sgineq: error: --n-xi x p-set size x generator dim = 72 exceeds the work "
                "budget 65"]
            assert not out.exists()

    @pytest.mark.parametrize("command", [["verify"], ["expconv", "--n-xi", "1"]],
                             ids=["verify", "expconv"])
    def test_config_p_set_over_the_gram_budget_is_usage_error(self, tmp_path, capsys,
                                                              monkeypatch, exponent_sets, command):
        # 5 samples x 2 states x 2 families x 2 times = 40 sampled coordinates; the
        # Gram entries are 4^2 x 2 states x 2 times = 64, and 36 for 3 exponents
        monkeypatch.setattr(suites, "MAX_SAMPLE_WORK", 40)
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg.write_text(json.dumps(small_config(p_sets=[[2.0, 4.0, 6.0, 8.0]])))
        assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 64
        assert capsys.readouterr().err.splitlines() == [
            "sgineq: error: p_set sizes^2 x generator dims x times = 64 exceeds the work budget 40"]
        assert not exponent_sets and not out.exists()
        cfg.write_text(json.dumps(small_config(p_sets=[[2.0, 4.0, 6.0]])))
        assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize("p,code", [(["2", "4", "6"], 64), (["2", "4"], 0)],
                             ids=["over", "at"])
    def test_flag_route_p_over_the_gram_budget_is_usage_error(self, tmp_path, capsys,
                                                              monkeypatch, exponent_sets, p, code):
        # n^2 x 2 states Gram entries: 18 and 8; with --n-xi 1 the screen holds 6 and 4
        monkeypatch.setattr(suites, "MAX_SAMPLE_WORK", 8)
        out = tmp_path / "o"
        assert cli.main(["expconv", "--p", *p, "--n-xi", "1", "--out", str(out)]) == code
        if code == 64:
            assert capsys.readouterr().err.splitlines() == [
                "sgineq: error: --p size^2 x generator dim = 18 exceeds the work budget 8"]
            assert not exponent_sets and not out.exists()

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


GRAM_FILES = ["gram.csv", "gram.json", "min_eigenvalues.csv", "report_meta.json"]


class TestOutputDirectory:
    """Every command creates its output directory only after its work succeeds."""

    @pytest.mark.parametrize("command,config", [
        (["expconv", "--p", "2", "4", "--t", "1e12"], None),
        (["expconv"], small_config(t_grid=[0.5, 1e9])),
        (["figure", "1a", "--t", "0.5", "--t", "0.33"], None),
        (["verify"], small_config(t_grid=[0.5, 1e9])),
    ], ids=["expconv_flags_past_time_cap", "expconv_config_past_time_cap",
            "figure_second_time_misaligned", "verify_past_time_cap"])
    def test_failed_run_leaves_no_directory(self, tmp_path, capsys, command, config):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            command = [*command, "--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "o" / "nested"
        assert cli.main([*command, "--out", str(out)]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("sgineq: error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,config,files,lines", [
        (["expconv", "--p", "2", "4", "--t", "0.5"], None, GRAM_FILES, 1),
        (["expconv"], small_config(), GRAM_FILES, 2),
        (["figure", "1a", "--t", "0.5", "--t", "2"], None,
         ["figure1a_t0.5.csv", "figure1a_t0.5.svg", "figure1a_t2.csv", "figure1a_t2.svg",
          "figure_report.json", "report_meta.json"], 2),
    ], ids=["expconv_flags", "expconv_config", "figure_two_times"])
    def test_passing_run_writes_its_files(self, tmp_path, capsys, command, config, files, lines):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            command = [*command, "--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "o" / "nested"
        assert cli.main([*command, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == files
        assert len(capsys.readouterr().out.splitlines()) == lines


@pytest.mark.parametrize("command,route", [
    (["verify"], "out"), (["verify"], "output_dir"), (["verify"], "env"),
    (["verify"], "report_is_a_directory"),
    (["expconv", "--p", "2", "4"], "out"), (["expconv"], "output_dir"),
    (["expconv", "--p", "2", "4"], "env"),
    (["figure", "1a"], "out"), (["figure", "1b"], "env"),
], ids=["verify_out", "verify_output_dir", "verify_env", "verify_report_is_a_directory",
        "expconv_out", "expconv_output_dir", "expconv_env", "figure_out", "figure_env"])
def test_output_path_that_cannot_be_written_is_usage_error(tmp_path, command, route):
    # an existing file where the directory would go, or below it; or a directory
    # where verify writes report.json
    blocker = tmp_path / "taken"
    blocker.write_text("")
    target = blocker if command[0] == "verify" else blocker / "sub"
    args, env = list(command), None
    if route == "report_is_a_directory":
        target = tmp_path / "o"
        (target / "report.json").mkdir(parents=True)
    if command in (["verify"], ["expconv"]):
        config = small_config(samples=1)
        if route == "output_dir":
            config["output_dir"] = str(target)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args += ["--config", str(tmp_path / "cfg.json")]
    if route == "env":
        env = {"SGINEQ_OUTPUT_DIR": str(target)}
    elif route != "output_dir":
        args += ["--out", str(target)]
    res = run_cli(*args, cwd=tmp_path, env_extra=env, timeout=120)
    assert res.returncode == 64, res.stderr
    assert res.stderr.startswith("sgineq: error: cannot write the output directory ")
    assert str(target) in res.stderr and "Traceback" not in res.stderr


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


def committed(name):
    return ["--config", str(CONFIG_DIR / f"{name}.json")]


BENCH2 = {"q": [[-1.0, 1.0], [1.0, -1.0]], "name": "benchmark2"}

# In each of these three configs a later time's block holds the largest
# exponent argument, so a check that saw the blocks of all times at once
# would name another value than the first block's. Their lines were recorded
# when verify checked every (generator, family, t) block on its own.
# PowerF(2) passes; ExpH(-400) fails before ExpH(400), which fails too
LATER_FAMILY = {
    "generators": [BENCH2],
    "families": [{"family": "PowerF", "t": 2.0}, {"family": "ExpH", "t": -400},
                 {"family": "ExpH", "t": 400}],
    "t_grid": [0.1, 1.0, 10.0],
    "p_sets": [],
    "samples": 40,
    "seed": 1,
}
# ExpH(-400) fails for the first generator at both times, the first time's
# argument below the second's, and ExpH(355) passes it; ExpH(355) fails for
# the second generator. The first generator's error is raised
LATER_GENERATOR = {
    "generators": [{"q": [[-1.0, 1.0], [1.0, -1.0]], "name": "first"},
                   {"q": [[-1.5, 1.0, 0.5], [0.2, -0.7, 0.5], [2.0, 1.0, -3.0]],
                    "name": "second"}],
    "families": [{"family": "ExpH", "t": 355}, {"family": "ExpH", "t": -400}],
    "t_grid": [0.1, 1.0],
    "p_sets": [],
    "samples": 6,
    "seed": 29,
}
# every Jessen block is in the domain; the adjoint elements of the first and
# the third time are not
ADJOINT_OVERFLOW = {
    "generators": [BENCH2],
    "families": [{"family": "ExpH", "t": 380}],
    "t_grid": [0.1, 1.0, 10.0],
    "p_sets": [],
    "samples": 2,
    "seed": 9,
}
# Q/lam overflows at t = 1e-7: under the override the evolution cannot run,
# and without it the non-conservative generator violates the hypothesis
STEEP_CHAIN = dict(cli.DEFAULT_CONFIG, t_grid=[1e-7],
                   generators=[{"q": [[-1e-300, 1e10], [0, 0]], "name": "steep"}])
# lam = 2048 at t = 1e-4: t*||Q|| = 0.41, while the semigroup-axiom suite's
# times, were they absolute, would reach 16438.7, past the time cap
FAST_GENERATOR = dict(cli.DEFAULT_CONFIG, t_grid=[1e-4],
                      generators=[{"q": [[-2048.0, 2048.0], [2048.0, -2048.0]], "name": "fast"}])

DOUBLE_RANGE = ("sgineq: error: exp(tQ) or its uniformization exceeds double range for this "
                "generator")
NORM_CAP = "sgineq: error: t*||Q|| = inf exceeds the cap 10000"
GRAM_OVER = ("sgineq: error: p_set sizes^2 x generator dims x times = 2004002 exceeds the work "
             "budget 2000000")

# The exit-code contract of the CLI (0 pass, 1 asserted failure, 2 hypothesis
# violated, 64 usage), one run per row: the argv after "sgineq", where a dict
# stands for a config file written from it; the exit code; and for codes 2
# and 64 the one line on stderr, "{out}" standing for the --out path. Every
# committed config is in a row.
CONTRACT = {
    "bundled": (["verify"], 0, None),
    # lam*t underflows to 0, so Z(t) = I and the run passes
    "rate_underflow": (["verify", *committed("rate_underflow")], 0, None),
    # a non-conservative control under allow_unnormalized
    "control_psets": (["verify", *committed("control_psets")], 0, None),
    # P = I + Q/lam beyond double range, reached only inside the errstate of
    # the Jessen kernel; the conservative one reaches the chain through the
    # semigroup-axiom suite, outside any other errstate, so a warning from the
    # chain itself fails its row
    "chain_overflow": (["verify", *committed("chain_overflow")], 64, DOUBLE_RANGE),
    "chain_overflow_conservative": (["verify", *committed("chain_overflow_conservative")], 64,
                                    DOUBLE_RANGE),
    # one 2-state generator, one family, one time and 10^6 samples, at
    # MAX_SAMPLE_WORK: the semigroup-axiom suite runs the in-place series
    # products on stacks for 3 * 10^5 times
    "at_sample_cap": (["verify", *committed("at_sample_cap")], 0, None),
    # the Jessen block of all times fails the domain check, which then runs
    # again time by time to name the first time's worst argument
    "family_overflow": (["verify", *committed("family_overflow")], 64,
                        "sgineq: error: ExpH(400): exponent argument 769.18 exceeds 700"),
    # ||Q|| beyond double range, from finite row sums or from a row sum that
    # overflows itself, and an ExpH rate whose square underflows to 0, each
    # kept inside numpy's error state
    "norm_overflow": (["verify", *committed("norm_overflow")], 64, NORM_CAP),
    "row_sum_overflow": (["verify", *committed("row_sum_overflow")], 64, NORM_CAP),
    "exp_rate_underflow": (
        ["verify", *committed("exp_rate_underflow")], 64,
        "sgineq: error: ExpH(1e-300): phi(f), phi(Z f) and Z phi(f) must have finite entries"),
    # one p_set of 1001 exponents: 1001^2 x 2 states x 1 time Gram entries,
    # stopped before any Gram or exponent set is built
    "gram_over_budget": (["verify", *committed("gram_over_budget")], 64, GRAM_OVER),
    # one p_set of 1000 seeded exponents in [2, 6], at MAX_SAMPLE_WORK, whose
    # 500500 midpoints are all distinct
    "at_gram_cap": (["verify", *committed("at_gram_cap")], 0, None),
    # the same with its last exponent 4000: the midpoint (3.32... + 4000)/2 is
    # the first whose phi(f) leaves double range (tests/test_expconv.py checks
    # that it builds that one member of the 500500 and no other)
    "gram_cap_overflow": (
        ["verify", *committed("gram_cap_overflow")], 64,
        "sgineq: error: at midpoint 2001.66: PowerF(2001.66): phi(f), phi(Z f) and Z phi(f) "
        "must have finite entries"),
    # two zero generators beside benchmark2, at t = 0 and a subnormal t: the
    # all-NaN chain P = 0/0, which no term reads
    "zero_generator": (["verify", *committed("zero_generator")], 0, None),
    "expconv_f": (["expconv", "--p", "2", "4"], 0, None),
    "expconv_h": (["expconv", "--family", "H", "--p", "-2", "0", "2"], 0, None),
    "expconv_config_f": (["expconv", *committed("expconv_psets"), "--family", "F"], 0, None),
    "expconv_config_h": (["expconv", *committed("expconv_psets"), "--family", "H"], 0, None),
    # the Gram suite skips the control
    "expconv_config_control": (["expconv", *committed("control_psets")], 0, None),
    # the zero generators build their Grams from the NaN chain's empty schedule
    "expconv_config_zero": (["expconv", *committed("zero_generator")], 0, None),
    "figure_1a": (["figure", "1a"], 0, None),
    "figure_1b": (["figure", "1b"], 0, None),
    "figure_1b_repeat": (["figure", "1b", "--k", "90", "--k", "90"], 0, None),
    # over the work budget before any array is allocated
    "expconv_n_xi_over": (
        ["expconv", "--p", "2", "4", "--n-xi", "1000000000000"], 64,
        "sgineq: error: --n-xi x p-set size x generator dim = 4000000000000 exceeds the work "
        "budget 2000000"),
    "figure_n_over": (["figure", "1b", "--n", "1000000000000"], 64,
                      "sgineq: error: --n = 1000000000000 exceeds the work budget 2000000"),
    # a flag of the other scene would be ignored
    "figure_1a_k": (["figure", "1a", "--k", "5"], 64,
                    "sgineq: error: --k does not apply to figure 1a"),
    "figure_1a_n": (["figure", "1a", "--n", "7"], 64,
                    "sgineq: error: --n does not apply to figure 1a"),
    "figure_1b_t": (["figure", "1b", "--t", "3.0"], 64,
                    "sgineq: error: --t does not apply to figure 1b"),
    # a p_set over the work budget, from a config or from --p, before any
    # exponent set is built
    "expconv_config_gram_over": (["expconv", *committed("gram_over_budget")], 64, GRAM_OVER),
    "expconv_p_gram_over": (
        ["expconv", "--p", *map(str, range(2, 1003))], 64,
        "sgineq: error: --p size^2 x generator dim = 2004002 exceeds the work budget 2000000"),
    # --out names an existing file
    "verify_out_file": (
        ["verify"], 64,
        "sgineq: error: cannot write the output directory '{out}': [Errno 17] File exists: "
        "'{out}'"),
    "later_family": (["verify", "--config", LATER_FAMILY], 64,
                     "sgineq: error: ExpH(-400): exponent argument 768.265 exceeds 700"),
    "later_generator": (["verify", "--config", LATER_GENERATOR], 64,
                        "sgineq: error: ExpH(-400): exponent argument 724.618 exceeds 700"),
    "adjoint_overflow": (["verify", "--config", ADJOINT_OVERFLOW], 64,
                         "sgineq: error: ExpH(380): exponent argument 734.619 exceeds 700"),
    # the tail ratio of the series rounds to 0 at the smallest subnormal time
    "subnormal_time": (["verify", "--config", dict(cli.DEFAULT_CONFIG, t_grid=[5e-324])], 0, None),
    "chain_overflow_control": (
        ["verify", "--config", dict(STEEP_CHAIN, allow_unnormalized=True)], 64, DOUBLE_RANGE),
    "chain_overflow_without_override": (
        ["verify", "--config", STEEP_CHAIN], 2,
        "sgineq: hypothesis violated: steep is not conservative; set allow_unnormalized to run "
        "it as a control"),
    # the semigroup-axiom suite takes its times in units of 1/lam
    "fast_generator": (["verify", "--config", FAST_GENERATOR], 0, None),
    "generator_of_no_columns": (
        ["verify", "--config", dict(cli.DEFAULT_CONFIG, generators=[{"q": [[]]}])], 64,
        "sgineq: error: bad generator entry: generator must be square, got shape (1, 0)"),
}


@pytest.mark.parametrize("name", CONTRACT)
def test_exit_code_contract(tmp_path, capsys, monkeypatch, name):
    # in process, under the warnings-as-errors policy of pyproject.toml, so a
    # warning that escapes numpy's error state fails the row
    args, code, line = CONTRACT[name]
    monkeypatch.delenv("SGINEQ_OUTPUT_DIR", raising=False)
    argv = []
    for arg in args:
        if isinstance(arg, dict):
            (tmp_path / "cfg.json").write_text(json.dumps(arg))
            arg = str(tmp_path / "cfg.json")
        argv.append(arg)
    out = tmp_path / "o"
    if name == "verify_out_file":
        out.write_text("")
    before = sorted(tmp_path.iterdir())
    started = time.perf_counter()
    assert cli.main([*argv, "--out", str(out)]) == code
    assert time.perf_counter() - started < 60
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        if args[0] == "verify":
            assert json.loads((out / "report.json").read_text())["passed"] is True
    else:
        assert err == line.format(out=out) + "\n"
        # a run that stops writes nothing
        assert sorted(tmp_path.iterdir()) == before


def test_every_committed_config_has_a_contract_row():
    named = {Path(arg).name for args, *_ in CONTRACT.values() for arg in args
             if isinstance(arg, str)}
    assert [p.name for p in sorted(CONFIG_DIR.glob("*.json")) if p.name not in named] == []
