import numpy as np
import pytest
from hypothesis import settings

from sgineq.lattice import LatticeElement
from sgineq.semigroup import validate_generator

# The plain test command loads "tier1": every @given test draws the same examples
# on every run (and keeps no example database), so one tree gets one verdict.
# "explore" draws fresh examples; load it with --hypothesis-profile explore and
# give --hypothesis-seed to replay a run.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")

# Filled by test_acceptance.py; printed as one line per criterion at the
# end of the run so the verdicts survive output capture.
ACCEPTANCE: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for n, desc, ok, detail in sorted(ACCEPTANCE):
        line = f"criterion {n:2d} {'PASS' if ok else 'FAIL'}: {desc}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture
def bench_gen():
    return validate_generator([[-1.0, 1.0], [1.0, -1.0]], name="benchmark2")


@pytest.fixture
def bench_f():
    return LatticeElement([4.0, 1.0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240821)
