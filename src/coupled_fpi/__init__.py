"""Coupled fixed points of graph-monotone maps on metric spaces.

Iterate x_{n+1} = F(x_n, y_n), y_{n+1} = F(y_n, x_n) for single- and
multivalued coupled maps under a reflexive digraph, with geometric
error bounds, and certify the convergence hypotheses by seeded
sampling.  See the solver, checks and certifier modules for the core
machinery and the cli module for the batch front end.
"""

from .certifier import (
    HypothesisReport,
    ProblemInstance,
    check_property_star,
    instance_id_for,
    preflight,
    solve_instance,
)
from .checks import (
    Certificate,
    check_bl,
    check_mbl,
    check_mixed_monotone,
    check_mixed_monotone_multi,
    estimate_k,
    validate_k,
)
from .errors import (
    CoupledFpiError,
    ExpressionError,
    HypothesisViolationError,
    InapplicableCheckError,
    InsufficientSamplesError,
    InvalidInputError,
    InvalidParameterError,
    InvalidSeedError,
    NonFiniteValueError,
    NotAVertexError,
    SeedEdgeError,
    SelectionFailureError,
    SpecError,
    UnsupportedModeError,
)
from .expressions import (
    CompiledExpression,
    ExpressionCoupledMap,
    ExpressionMultiMap,
    compile_expression,
)
from .finite_sets import FiniteSet, as_finite_set, dist_to_set, hausdorff, select_near
from .graphs import (
    Digraph,
    FiniteGraph,
    FullGraph,
    OrderGraph,
    PredicateGraph,
    is_path,
    is_weakly_connected,
    product_edge,
    reverse_graph,
    symmetrize_graph,
)
from .maps import LinearCoupledMap, SingletonMultiMap
from .problem_spec import ProblemSpec, build_instance, parse_spec, serialize_spec
from .sampling import Sampler, SampleSpec
from .solver import (
    CoupledFixedPoint,
    IterationTrace,
    SolveConfig,
    TraceStep,
    UniquenessReport,
    diagonal_decay_check,
    safe_k,
    solve_coupled,
    solve_coupled_multi,
    step_bound,
    tail_bound,
    uniqueness_probe,
)
from .spaces import (
    CallbackSpace,
    ChebyshevSpace,
    EuclideanSpace,
    MetricSpace,
    as_point,
    real_line,
)

__version__ = "0.1.0"

__all__ = [
    "CallbackSpace",
    "Certificate",
    "ChebyshevSpace",
    "CompiledExpression",
    "CoupledFixedPoint",
    "CoupledFpiError",
    "Digraph",
    "EuclideanSpace",
    "ExpressionCoupledMap",
    "ExpressionError",
    "ExpressionMultiMap",
    "FiniteGraph",
    "FiniteSet",
    "FullGraph",
    "HypothesisReport",
    "HypothesisViolationError",
    "InapplicableCheckError",
    "InsufficientSamplesError",
    "InvalidInputError",
    "InvalidParameterError",
    "InvalidSeedError",
    "IterationTrace",
    "LinearCoupledMap",
    "MetricSpace",
    "NonFiniteValueError",
    "NotAVertexError",
    "OrderGraph",
    "PredicateGraph",
    "ProblemInstance",
    "ProblemSpec",
    "Sampler",
    "SampleSpec",
    "SeedEdgeError",
    "SelectionFailureError",
    "SingletonMultiMap",
    "SolveConfig",
    "SpecError",
    "TraceStep",
    "UniquenessReport",
    "UnsupportedModeError",
    "as_finite_set",
    "as_point",
    "build_instance",
    "check_bl",
    "check_mbl",
    "check_mixed_monotone",
    "check_mixed_monotone_multi",
    "check_property_star",
    "compile_expression",
    "diagonal_decay_check",
    "dist_to_set",
    "estimate_k",
    "hausdorff",
    "instance_id_for",
    "is_path",
    "is_weakly_connected",
    "parse_spec",
    "preflight",
    "product_edge",
    "real_line",
    "reverse_graph",
    "safe_k",
    "select_near",
    "serialize_spec",
    "solve_instance",
    "solve_coupled",
    "solve_coupled_multi",
    "step_bound",
    "symmetrize_graph",
    "tail_bound",
    "uniqueness_probe",
    "validate_k",
]
