"""Tests of the benchmark itself: tracer, inputs, output contract.

Run from the repository root with ``python3 -m pytest bench``.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import run
import tracing

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
import workloads  # noqa: E402
from sgineq import expconv, jessen, semigroup, suites  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _verify_bytes(outdir: Path) -> bytes:
    assert workloads.VerifyBundled().run_case(["verify", "--out", str(outdir)]) == 0
    return (outdir / "report.json").read_bytes()


def test_traced_bundled_verify_counts_and_bytes(tmp_path):
    plain = _verify_bytes(tmp_path / "plain")
    with tracing.Tracer(keep_pairs=True) as tracer:
        traced = _verify_bytes(tmp_path / "traced")
    calls, _ = tracer.layer_totals()
    assert calls["semigroup.evolve"] == 1133
    assert len(tracer.pairs) == 25
    assert traced == plain
    assert hashlib.sha256(plain).hexdigest() == workloads.BUNDLED_REPORT_SHA256


def test_tracer_wraps_every_binding_site_and_restores_them():
    evolve, verify_jessen = semigroup.evolve, jessen.verify_jessen
    apply, init = semigroup.SemigroupOperator.apply, semigroup.LatticeElement.__init__
    with tracing.Tracer(extra_modules=(workloads,)):
        for module in (semigroup, jessen, expconv, suites, sys.modules["sgineq"]):
            assert module.evolve is not evolve
        for module in (jessen, suites, workloads):
            assert module.verify_jessen is not verify_jessen
        assert semigroup.SemigroupOperator.apply is not apply
        assert semigroup.LatticeElement.__init__ is not init
    assert semigroup.evolve is evolve and suites.evolve is evolve
    assert suites.verify_jessen is verify_jessen and workloads.verify_jessen is verify_jessen
    assert semigroup.SemigroupOperator.apply is apply
    assert semigroup.LatticeElement.__init__ is init


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans.extend([("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1)])
    calls, self_s = tracer.layer_totals()
    assert dict(calls) == {"a": 1, "b": 1, "c": 1}
    assert self_s == pytest.approx({"a": 7.0, "b": 2.0, "c": 1.0})


def test_calibration_sample_fills_its_window():
    assert len(calibration.sample("interp")) == 1
    took = calibration.sample("interp", 0.02)
    assert sum(took) >= 0.02
    assert calibration.speed("interp", [2 * calibration.NOMINAL_S["interp"]]) == 0.5


@pytest.mark.parametrize("name", ["random_cases", "gram_psd", "large_k"])
def test_same_seed_gives_same_inputs(name):
    wl = workloads.WORKLOADS[name]()
    first, again, other = (wl.pairs(wl.make_pass(seed, 1)) for seed in (3, 3, 4))
    assert [(g.q.tobytes(), t) for g, t in first] == [(g.q.tobytes(), t) for g, t in again]
    assert [g.q.tobytes() for g, _ in first] != [g.q.tobytes() for g, _ in other]


def test_expm_oracle_flags_a_wrong_evolution(monkeypatch):
    gen = semigroup.validate_generator([[-1.0, 1.0], [2.0, -2.0]])
    err, failures = oracle.expm_check([(gen, 0.5)])
    assert 0.0 < err < oracle.EXPM_TOL and failures == []
    evolve = oracle.evolve
    monkeypatch.setattr(oracle, "evolve", lambda g, t: evolve(g, 2.0 * t))
    _, failures = oracle.expm_check([(gen, 0.5)])
    assert len(failures) == 1


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
    predictions = json.loads((BENCH / "predictions.json").read_text())
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    summary_only = {f"{layer}.self_s" for layer in tracing.LAYERS} - layer_names
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert isinstance(predictions["held_out_seed"], int)
    for row in predictions["table"]:
        assert set(row["layer_metrics"]) <= layer_names | summary_only, row
        assert set(row["moves"]) <= end_to_end, row
        assert set(row["on"]) | set(row.get("not_on", [])) <= set(run.WORKLOAD_NAMES), row


def _run(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_run_prints_every_declared_metric(trace, key):
    proc = _run("--workload", "random_cases", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verify_bundled", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

