"""Pinned outputs of ``sgineq verify``: report bytes and error lines.

Each sha256 and each stderr line below was recorded with the driver that
checked every (generator, family, t) block on its own, before the blocks
of all times were checked as one, so these tests hold the batched driver
to the same bytes, exit codes and messages. The hashes were taken with
numpy 2.4.6, the version CI installs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sgineq import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

BENCH2 = {"q": [[-1.0, 1.0], [1.0, -1.0]], "name": "benchmark2"}

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
    "mixed": "46a48757e2a94de7bfca59b089d335fbd52913fedea8108ca0398ce8ea062184",
    "zero_generator": "00294dd1ca91054855d39dced9f5de33bde7059b4aaaa4e3b76decf53d7e6686",
}

# Configs whose verify stops with exit 64. In each, a later time's block
# holds the largest exponent argument, so a check that saw the blocks of
# all times at once would name another value than the first block's.
ERROR_CASES = {
    "family_overflow": json.loads((CONFIG_DIR / "family_overflow.json").read_text()),
    # PowerF(2) passes; ExpH(-400) fails before ExpH(400), which fails too
    "later_family": {
        "generators": [BENCH2],
        "families": [{"family": "PowerF", "t": 2.0}, {"family": "ExpH", "t": -400},
                     {"family": "ExpH", "t": 400}],
        "t_grid": [0.1, 1.0, 10.0],
        "p_sets": [],
        "samples": 40,
        "seed": 1,
    },
    # ExpH(-400) fails for the first generator at both times, the first
    # time's argument below the second's, and ExpH(355) passes it; ExpH(355)
    # fails for the second generator. The first generator's error is raised
    "later_generator": {
        "generators": [{"q": [[-1.0, 1.0], [1.0, -1.0]], "name": "first"},
                       {"q": [[-1.5, 1.0, 0.5], [0.2, -0.7, 0.5], [2.0, 1.0, -3.0]],
                        "name": "second"}],
        "families": [{"family": "ExpH", "t": 355}, {"family": "ExpH", "t": -400}],
        "t_grid": [0.1, 1.0],
        "p_sets": [],
        "samples": 6,
        "seed": 29,
    },
    # every Jessen block is in the domain; the adjoint elements of the
    # first and the third time are not
    "adjoint_overflow": {
        "generators": [BENCH2],
        "families": [{"family": "ExpH", "t": 380}],
        "t_grid": [0.1, 1.0, 10.0],
        "p_sets": [],
        "samples": 2,
        "seed": 9,
    },
}

ERROR_STDERR = {
    "family_overflow": "sgineq: error: ExpH(400): exponent argument 769.18 exceeds 700\n",
    "later_family": "sgineq: error: ExpH(-400): exponent argument 768.265 exceeds 700\n",
    "adjoint_overflow": "sgineq: error: ExpH(380): exponent argument 734.619 exceeds 700\n",
    "later_generator": "sgineq: error: ExpH(-400): exponent argument 724.618 exceeds 700\n",
}


def run_verify(tmp_path, capsys, monkeypatch, data=None):
    monkeypatch.delenv("SGINEQ_OUTPUT_DIR", raising=False)
    argv = ["verify", "--out", str(tmp_path / "o")]
    if data is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        argv += ["--config", str(path)]
    code = cli.main(argv)
    report = tmp_path / "o" / "report.json"
    sha = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
    return code, sha, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(tmp_path, capsys, monkeypatch, name):
    code, sha, err = run_verify(tmp_path, capsys, monkeypatch, CASES.get(name))
    assert code == 0, err
    assert sha == REPORT_SHA256[name]


def test_mixed_config_runs_every_suite_and_the_control(tmp_path, capsys, monkeypatch):
    run_verify(tmp_path, capsys, monkeypatch, MIXED)
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["passed"] is True
    # the three nonzero entries of t_grid (0.5 twice), for each p_set and
    # conservative generator
    assert len(report["suites"]["gram_psd"]["records"]) == 2 * 2 * 3
    assert len(report["suites"]["observed_controls"]["cases"]) == 3


@pytest.mark.parametrize("name", sorted(ERROR_STDERR))
def test_error_exit_code_and_message_are_pinned(tmp_path, capsys, monkeypatch, name):
    code, sha, err = run_verify(tmp_path, capsys, monkeypatch, ERROR_CASES[name])
    assert (code, err) == (64, ERROR_STDERR[name])
    assert sha is None
