"""weilaff: exact nilpotent-infinitesimal arithmetic and i-affine action checks."""

from .weil import (
    Block,
    ContextMismatchError,
    Monomial,
    NonInvertibleError,
    NotASquareError,
    PointVec,
    SingularMatrixError,
    WeilContext,
    WeilElement,
    WeilError,
    invert,
    make_quotient_context,
    make_truncated_context,
    mat_inverse,
    mat_mul,
    monomials_of_degree,
    sqrt,
)
from .polymap import (
    Add,
    AnyMap,
    Const,
    DimensionMismatchError,
    Div,
    Expr,
    ExprMap,
    Mul,
    Neg,
    Poly,
    PolyMap,
    Power,
    Sqrt,
    Sub,
    Var,
    compose,
    eval_expr,
    eval_map,
    expr_to_poly,
    jet,
)
from .neighborhoods import (
    MultilinearForm,
    Witness,
    coordinate_form,
    coordinate_product_basis,
    determinant_form,
    eval_form,
    find_A_k_violation,
    find_D_k_violation,
    find_DN_k_violation,
    find_nilsquare_violation,
    generic_Ak_tuple,
    generic_Dk_vector,
    generic_nilsquare_tuple,
    generic_symmetric_Ak_tuple,
    in_A_k,
    in_D_k,
    in_DN_k,
    in_nilsquare,
    symmetric_coordinate_form,
)
from .iaffine import (
    ActionHandle,
    AffineWeights,
    BilinearMap,
    CanonicalAction,
    Connection,
    ConnectionAction,
    MembershipError,
    RetractAction,
    RetractPair,
    basis_weights,
    canonical_combine,
    check_axioms,
    check_idempotent_identities,
    check_pullback_lemma,
    connection_apply,
    connection_combine,
    pullback_connection,
    retract_combine,
    weighted_point_sum,
)
from .report import CheckEntry, CheckReport, REPORT_VERSION
from .dsl import (
    ParseError,
    Scenario,
    parse_expression,
    parse_scenario,
    render_expr,
    render_scenario,
)
from .runner import build_env, evaluate_expression, format_value, run_scenario

__version__ = "0.1.0"


def __getattr__(name):
    # the self-test suite loads on first use, not with the package (PEP 562)
    if name == "run_selftest":
        from .selftest import run_selftest

        return run_selftest
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
