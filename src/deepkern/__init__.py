"""deepkern: two-layer (concatenated) kernel interpolation and regression."""

from .deep_model import (
    TwoLayerModel,
    TwoLayerProblem,
    fit_two_layer,
    load_model,
    mlmkl_equivalence_check,
    objective_pair,
    objective_reg,
    predict_two_layer,
    save_model,
)
from .experiments import (
    CvPlan,
    Dataset,
    EvalGrid,
    SamplingPlan,
    cross_validate,
    inner_transform_dump,
    pointwise_error_grid,
    run_comparison,
    sample_dataset,
)
from .gram import (
    SingularMatrixError,
    spd_solve,
)
from .kernels import (
    DiagMixtureKernel,
    DiagScaledKernel,
    GaussKernel,
    PolyKernel,
    TensorMaternKernel,
    bessel_k_half,
)
from .optimize import (
    BfgsConfig,
    InfeasibleStartError,
    OptimizationError,
    OptimizationResult,
    bfgs_minimize,
    finite_diff_grad,
    grad_check,
    multistart,
)
from .single_layer import SingleLayerModel, fit_single, predict_single, rkhs_norm_sq_single
