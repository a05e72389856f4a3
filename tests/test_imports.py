"""What the package loads: the lazy root names and the modules of the verify route."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgineq

SOURCE_ROOT = Path(sgineq.__file__).resolve().parents[1]

# Every name the package root re-exports, by the submodule that defines it.
ROOT_NAMES = {
    "errors": ["HypothesisViolationError", "SgineqError"],
    "expconv": ["ExponentSet", "IllConditionedMidpointError", "LambdaGram",
                "MidpointEquivalenceReport", "PsdReport", "QuadFormMode", "build_gram",
                "check_order_psd", "exp_convexity_probe", "lambda_residual",
                "midpoint_equivalence_check", "quad_form_vector"],
    "families": ["CustomFamily", "EntropyFamily", "ExpFamily", "ExpOverflowError",
                 "HalfSquareFamily", "MaxTermsExceededError", "NegLogFamily",
                 "NonPositiveInputError", "OperatorFamily", "PowerFamily", "RadiusViolationError",
                 "convexity_probe", "exp_member", "log_series", "power_member",
                 "second_derivative_check"],
    "jessen": ["AdjointPairingReport", "DualVector", "JessenReport", "NonFiniteSideError",
               "NotNormalizedError", "dual_convexity_report", "support_line_check",
               "verify_adjoint_pairing", "verify_jessen"],
    "lattice": ["DEFAULT_TOLERANCE", "DimensionMismatchError", "LatticeElement", "Ordering",
                "OrderTolerance", "abs_val", "join", "lattice_norm", "meet", "multiply",
                "neg_part", "partial_leq", "pos_part"],
    "semigroup": ["EvolveOverflowError", "Generator", "NegativeOffDiagonalError",
                  "SemigroupOperator", "TimeCapError", "act",
                  "check_positivity_and_normalization", "check_semigroup_axioms",
                  "estimate_generator", "evolve", "validate_generator"],
    "scenes": ["RotationScene", "ShiftScene", "run_rotation_example", "run_shift_example"],
}

# Imports sgineq.cli with dataclasses._process_class spied on and prints the
# sgineq modules loaded and the classes processed as dataclasses.
IMPORT_CLI = """
import dataclasses, json, sys
processed = []
real = dataclasses._process_class
def spy(cls, *args, **kwargs):
    processed.append(cls.__qualname__)
    return real(cls, *args, **kwargs)
dataclasses._process_class = spy
import sgineq.cli
print(json.dumps({"modules": sorted(m for m in sys.modules if m.startswith("sgineq")),
                  "dataclasses": processed}))
"""

FIGURE_MODULES = ("sgineq.scenes", "sgineq.figio")


def _child(*args, cwd):
    env = dict(os.environ)
    env.pop("SGINEQ_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SOURCE_ROOT), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=120)


class TestRootNames:
    def test_the_root_exports_67_names(self):
        assert sum(map(len, ROOT_NAMES.values())) == 67

    @pytest.mark.parametrize("module,name", [
        (module, name) for module, names in ROOT_NAMES.items() for name in names])
    def test_name_resolves_to_its_submodule_object(self, module, name):
        home = importlib.import_module(f"sgineq.{module}")
        assert getattr(sgineq, name) is getattr(home, name)
        assert name in dir(sgineq)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sgineq.no_such_name
        assert not hasattr(sgineq, "no_such_name")
        assert "no_such_name" not in dir(sgineq)


class TestVerifyRoute:
    def test_import_cli_loads_no_figure_module_and_no_dataclass(self, tmp_path):
        res = _child("-c", IMPORT_CLI, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        loaded = json.loads(res.stdout)
        assert "sgineq.cli" in loaded["modules"]
        assert not set(FIGURE_MODULES) & set(loaded["modules"])
        assert loaded["dataclasses"] == []

    def test_verify_imports_no_figure_module(self, tmp_path):
        res = _child("-X", "importtime", "-m", "sgineq", "verify", "--out", "o", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()}
        assert "sgineq.cli" in imported and "sgineq.suites" in imported
        assert not set(FIGURE_MODULES) & imported
