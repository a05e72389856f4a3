"""Order-inequality verification for positive matrix semigroups.

The library works on the componentwise lattice algebra R^K: ``lattice``
holds the order calculus, ``semigroup`` builds positive evolution
matrices from Metzler generators by uniformization, ``families`` defines
the convex operator families, ``jessen`` checks the composition
inequality and its pairing-level adjoint form, ``expconv`` certifies
exponential convexity of the residual through Gram matrices, ``scenes``
reproduces the two counterexample constructions, and ``cli`` wraps it
all behind the ``sgineq`` command.

The names below are re-exported from their submodules on first use
(PEP 562), so ``import sgineq`` loads no submodule and a command loads
only the modules its route needs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "HypothesisViolationError SgineqError",
    "expconv": "ExponentSet IllConditionedMidpointError LambdaGram MidpointEquivalenceReport "
               "PsdReport QuadFormMode build_gram check_order_psd exp_convexity_probe "
               "lambda_residual midpoint_equivalence_check quad_form_vector",
    "families": "CustomFamily EntropyFamily ExpFamily ExpOverflowError HalfSquareFamily "
                "MaxTermsExceededError NegLogFamily NonPositiveInputError OperatorFamily "
                "PowerFamily RadiusViolationError convexity_probe exp_member log_series "
                "power_member second_derivative_check",
    "jessen": "AdjointPairingReport DualVector JessenReport NonFiniteSideError NotNormalizedError "
              "dual_convexity_report support_line_check verify_adjoint_pairing verify_jessen",
    "lattice": "DEFAULT_TOLERANCE DimensionMismatchError LatticeElement Ordering OrderTolerance "
               "abs_val join lattice_norm meet multiply neg_part partial_leq pos_part",
    "semigroup": "EvolveOverflowError Generator NegativeOffDiagonalError TimeCapError act "
                 "check_positivity_and_normalization check_semigroup_axioms estimate_generator "
                 "evolve validate_generator",
    "scenes": "RotationScene ShiftScene run_rotation_example run_shift_example",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
