"""Order-inequality verification for positive matrix semigroups.

The library works on the componentwise lattice algebra R^K: ``lattice``
holds the order calculus, ``semigroup`` builds positive evolution
matrices from Metzler generators by uniformization, ``families`` defines
the convex operator families, ``jessen`` checks the composition
inequality and its pairing-level adjoint form, ``expconv`` certifies
exponential convexity of the residual through Gram matrices, ``scenes``
reproduces the two counterexample constructions, and ``cli`` wraps it
all behind the ``sgineq`` command.
"""

from .errors import HypothesisViolationError, SgineqError
from .expconv import (
    ExponentSet,
    IllConditionedMidpointError,
    LambdaGram,
    MidpointEquivalenceReport,
    PsdReport,
    QuadFormMode,
    build_gram,
    check_order_psd,
    exp_convexity_probe,
    lambda_residual,
    midpoint_equivalence_check,
    quad_form_vector,
)
from .families import (
    CustomFamily,
    EntropyFamily,
    ExpFamily,
    ExpOverflowError,
    HalfSquareFamily,
    MaxTermsExceededError,
    NegLogFamily,
    NonPositiveInputError,
    OperatorFamily,
    PowerFamily,
    RadiusViolationError,
    convexity_probe,
    exp_member,
    log_series,
    power_member,
    second_derivative_check,
)
from .jessen import (
    AdjointPairingReport,
    DualVector,
    JessenReport,
    NonFiniteSideError,
    NotNormalizedError,
    dual_convexity_report,
    support_line_check,
    verify_adjoint_pairing,
    verify_jessen,
)
from .lattice import (
    DEFAULT_TOLERANCE,
    DimensionMismatchError,
    LatticeElement,
    Ordering,
    OrderTolerance,
    abs_val,
    join,
    lattice_norm,
    meet,
    multiply,
    neg_part,
    partial_leq,
    pos_part,
)
from .semigroup import (
    EvolveOverflowError,
    Generator,
    NegativeOffDiagonalError,
    SemigroupOperator,
    TimeCapError,
    act,
    check_positivity_and_normalization,
    check_semigroup_axioms,
    estimate_generator,
    evolve,
    validate_generator,
)
from .scenes import (
    RotationScene,
    ShiftScene,
    run_rotation_example,
    run_shift_example,
)

__version__ = "0.1.0"
