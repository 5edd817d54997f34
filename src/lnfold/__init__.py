"""lnfold: fold LayerNorm centering into upstream linear layers and swap in
RMSNorm, with machine-checked forward/backward equivalence."""

from .centering import (
    CenteringSpec,
    Family,
    center_bias,
    center_columns,
    center_conv_kernel,
    center_grouped_columns,
    center_recurrent,
    center_value_rows,
    centering_gradient,
    constraint_residual,
    is_centered,
    spec_for_node,
)
from .fold_apply import FoldError, apply_fold, check_report, dry_run
from .fold_detect import (
    FoldReport,
    SafetyVerdict,
    ZeroMeanGraph,
    build_zero_mean_graph,
    compute_affected_layers,
    detect_foldable,
    fold_plan,
    plan_auxiliary_centering,
)
from .graph_ir import (
    Graph,
    GraphValidationError,
    ModelFormatError,
    Node,
    ValidationReport,
    WeightStore,
    graphs_equal,
    load_model,
    make_node,
    model_hash,
    save_model,
    stores_equal,
    validate_graph,
)
from .ops import NumericalError, auxiliary_centering, group_norm, layer_norm, rms_norm
from .tensor_math import Gradients, Tape, backward, finite_difference_grad, forward
from .verify import (
    EquivalenceReport,
    FlopCount,
    TrainingDivergenceError,
    check_zero_mean,
    flops_estimate,
    model_speedup_estimate,
    training_equivalence,
    verify_forward,
    verify_gradients,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
