"""Pinned report bytes of ``sgineq verify``.

Each sha256 below was recorded when verify checked every
(generator, family, t) block on its own, before the blocks of all times
were checked as one, so these tests hold the batched route to the same
bytes. The hashes were taken with numpy 2.4.6, the version CI installs.
The exit codes and error lines are pinned in the contract table of
tests/test_cli.py.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sgineq import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# K = 3 and K = 5 generators, a repeated t and t = 0, two p_sets and a
# non-conservative control run under allow_unnormalized
MIXED = {
    "generators": [
        {"q": [[-1.5, 1.0, 0.5], [0.2, -0.7, 0.5], [2.0, 1.0, -3.0]], "name": "three"},
        {"q": [[-2.0, 0.5, 0.5, 0.5, 0.5],
               [0.1, -0.4, 0.1, 0.1, 0.1],
               [1.0, 0.0, -3.0, 1.0, 1.0],
               [0.0, 0.0, 0.0, -0.5, 0.5],
               [0.3, 0.3, 0.3, 0.3, -1.2]], "name": "five"},
        {"q": [[-1.0, 1.5], [0.5, -0.5]], "name": "leaky"},
    ],
    "families": [
        {"family": "PowerF", "t": 2.0},
        {"family": "PowerF", "t": -1.0},
        {"family": "NegLog"},
        {"family": "Entropy"},
        {"family": "ExpH", "t": -1.0},
        {"family": "HalfSquare"},
    ],
    "t_grid": [0.0, 0.5, 2.0, 0.5],
    "p_sets": [[2.0, 4.0], [1.5, 3.0, 5.0]],
    "samples": 7,
    "seed": 11,
    "allow_unnormalized": True,
}

CASES = {
    **{f"bundled_seed{seed}": dict(cli.DEFAULT_CONFIG, seed=seed) for seed in (0, 1, 987654321)},
    "mixed": MIXED,
    # Q = 0 at K = 2 and K = 1, whose P is 0/0 = NaN and read by no term, as
    # every kernel's identity is the empty schedule; benchmark2 beside them,
    # at the subnormal time 1e-320 too
    "zero_generator": json.loads((CONFIG_DIR / "zero_generator.json").read_text()),
}

REPORT_SHA256 = {
    "bundled": "f8d41ab1d2fa8b47af6be3b24a2bf0c4eaa1ba8300e68de6306eecdfb780058d",
    "bundled_seed0": "056ec5ef9d000ed18a1f4972ad09064ae65d13dd4185f0e939fef5ae04051322",
    "bundled_seed1": "cf2de75bf4cded2dc0c1f4d034b49e477acd398d5c97f14fcce03224ea56a428",
    "bundled_seed987654321": "dae0b550da4da18a319cdd62f02a2d69ab1dd5001a83bda6445ba8453341f957",
    # re-pinned when the semigroup-axiom suite took its times in units of
    # 1/max(lam, 1): lam = 3 for "three" and "five", and only that section moved
    "mixed": "a481333997bf5648c8a30ccdb1bf179156e1e5625fa3b7b6b9a93a9510c23fdb",
    "zero_generator": "00294dd1ca91054855d39dced9f5de33bde7059b4aaaa4e3b76decf53d7e6686",
}

def run_verify(tmp_path, capsys, monkeypatch, data=None):
    monkeypatch.delenv("SGINEQ_OUTPUT_DIR", raising=False)
    argv = ["verify", "--out", str(tmp_path / "o")]
    if data is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        argv += ["--config", str(path)]
    return cli.main(argv), capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(tmp_path, capsys, monkeypatch, name):
    code, err = run_verify(tmp_path, capsys, monkeypatch, CASES.get(name))
    assert code == 0, err
    report = (tmp_path / "o" / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == REPORT_SHA256[name]


def test_mixed_config_runs_every_suite_and_the_control(tmp_path, capsys, monkeypatch):
    run_verify(tmp_path, capsys, monkeypatch, MIXED)
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["passed"] is True
    # the three nonzero entries of t_grid (0.5 twice), for each p_set and
    # conservative generator
    assert len(report["suites"]["gram_psd"]["records"]) == 2 * 2 * 3
    assert len(report["suites"]["observed_controls"]["cases"]) == 3

