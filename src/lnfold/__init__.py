"""lnfold: fold LayerNorm centering into upstream linear layers and swap in
RMSNorm, with machine-checked forward/backward equivalence."""

from .centering import (
    CenteringSpec,
    Family,
    center,
    center_bias,
    constraint_residual,
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
    load_model,
    make_node,
    model_hash,
    save_model,
    validate_graph,
)
from .ops import NumericalError
from .tensor_math import Tape, backward, forward
from .verify import (
    EquivalenceReport,
    FlopCount,
    check_zero_mean,
    flops_estimate,
    model_speedup_estimate,
    verify_forward,
    verify_gradients,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
