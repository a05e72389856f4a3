"""What the package loads: the lazy root names and the modules of the verify route;
what it defines: no function, class or method that only tests use; and the
warnings policy every test and every child process of a test runs under."""

import ast
import importlib
import json

import numpy as np
import pytest

import sgineq

from children import SOURCE_ROOT, run_python

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
                  "TimeCapError", "act", "check_positivity_and_normalization",
                  "check_semigroup_axioms", "estimate_generator", "evolve",
                  "validate_generator"],
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

REPO_ROOT = SOURCE_ROOT.parent

# Definitions that only tests reference, each kept on purpose, with the reason.
TEST_ONLY_DEFINITIONS = {
    # tests/test_scenes.py checks the scene curves against these matrices
    "ShiftScene.shift_matrix": "the scene's matrix, the oracle of its curves",
    "ShiftScene.mirror_matrix": "the scene's matrix, the oracle of its curves",
    "RotationScene.rotation_matrix": "the scene's matrix, the oracle of its curves",
}


def _child(*args, cwd):
    return run_python(*args, cwd=cwd, timeout=120)


def test_warnings_are_errors_in_the_tests_and_in_their_children(tmp_path):
    # the canary of the one warnings policy: pyproject.toml's filterwarnings
    # makes a numpy warning raise here, and tests/children.py's PYTHONWARNINGS
    # makes it end every child that run_cli or _child starts
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        np.log(np.zeros(1))
    res = _child("-c", "import numpy; numpy.log(numpy.zeros(1))", cwd=tmp_path)
    assert res.returncode == 1 and "RuntimeWarning: divide by zero" in res.stderr


class TestRootNames:
    def test_the_root_exports_66_names(self):
        assert sum(map(len, ROOT_NAMES.values())) == 66
        assert sgineq._HOME == {name: module for module, names in ROOT_NAMES.items()
                                for name in names}

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


def _docstrings(tree):
    """The string nodes that are docstrings of a module, class or function."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _references(tree, strings):
    """(name, is_attribute, enclosing definitions) of every identifier the tree
    reads: a name, an imported name, an attribute and, with ``strings``, each part
    of a dotted identifier in a string that is not a docstring (as the bench
    tracer names the functions it wraps, "SemigroupOperator.apply" say), which
    counts both ways."""
    docs = _docstrings(tree)
    found = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = (*enclosing, node)
        if isinstance(node, ast.Name):
            found.append((node.id, False, enclosing))
        elif isinstance(node, ast.alias):
            found.append((node.name.rsplit(".", 1)[-1], False, enclosing))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, True, enclosing))
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            for word in node.value.split():
                if all(part.isidentifier() for part in word.split(".")):
                    for part in word.split("."):
                        found.extend([(part, False, enclosing), (part, True, enclosing)])
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, ())
    return found


def _definitions(tree):
    """(qualified name, node, is_method) of every function, class and method,
    nested ones too."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, child, isinstance(node, ast.ClassDef)))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_every_definition_in_src_is_used_outside_the_tests():
    """Each function, class and method of the package is referenced, outside its own
    body, from the package, the bench harness or the acceptance criteria; a top-level
    name may instead be a root export. A method counts only as an attribute, so a
    function of the same name does not stand in for it. Dunders are exempt, and so
    are the listed definitions that only tests read."""
    package = sorted((SOURCE_ROOT / "sgineq").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in package}
    references = [ref for tree in trees.values() for ref in _references(tree, strings=False)]
    for path in [*sorted((REPO_ROOT / "bench").glob("*.py")),
                 REPO_ROOT / "tests" / "test_acceptance.py"]:
        references += _references(ast.parse(path.read_text(), str(path)), strings=True)
    exported = {name for names in sgineq._EXPORTS.values() for name in names.split()}
    unused = []
    for path, tree in trees.items():
        for qualname, node, method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if "." not in qualname and name in exported:
                continue
            if not any(ref == name and attribute >= method and node not in enclosing
                       for ref, attribute, enclosing in references):
                unused.append(f"{path.stem}.{qualname}")
    assert sorted(unused) == sorted(f"scenes.{name}" for name in TEST_ONLY_DEFINITIONS)
