"""Piecewise-linear minimization of feed-forward ReLU networks."""

from .network import ReluNetwork, evaluate, load_model, save_model
from .solver import (
    LOCAL_MINIMUM,
    NON_REGULAR,
    STEP_LIMIT,
    UNBOUNDED,
    QuadraticObjective,
    SolveOutcome,
    SolverOptions,
    TraceRecord,
    certify_point,
    drlsimplex,
    solve_quadratic,
)
from .problems import (
    LpInstance,
    RegressionData,
    build_clad,
    build_from_lp,
    build_l1_first_layer,
    build_lasso,
    build_quantile_lasso,
    build_random,
    clad_loss,
    flatten_first_layer,
    l1_first_layer_loss,
    lasso_loss,
    load_csv,
    quantile_loss,
    set_first_layer,
)
from .bounds import count_regions_empirical, improved_bound, montufar_bound

__version__ = "0.1.0"
