"""The one way the tests start a Python child process: on the source tree this
test process imported, and with warnings as errors, as pyproject.toml runs the
tests themselves."""

import os
import subprocess
import sys
from pathlib import Path

import sgineq

# The directory holding the sgineq package this test process imported
# (src/ in a checkout). The child gets it first on its PYTHONPATH, so it runs
# the same tree whatever its cwd, and a relative PYTHONPATH entry or another
# installed copy cannot change that.
SOURCE_ROOT = Path(sgineq.__file__).resolve().parents[1]


def run_python(*args, cwd, env_extra=None, timeout=None):
    """``python *args`` in ``cwd`` with no SGINEQ_OUTPUT_DIR but from ``env_extra``,
    and PYTHONWARNINGS=error, which ``env_extra`` cannot override."""
    env = dict(os.environ)
    env.pop("SGINEQ_OUTPUT_DIR", None)
    env.update(env_extra or {})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SOURCE_ROOT), env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = "error"
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=timeout)
