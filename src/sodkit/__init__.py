"""Numerical kernels for small-object detection: adaptive-overlap tiling,
two-step gated feature fusion with exact gradients, and a size-reweighted
classification loss with its weight-table analytics."""

from .boost import (
    BoostConfig,
    BoxSample,
    boost_loss,
    boost_loss_grad,
    cs_label,
    cs_pred,
    focal_loss,
    focal_loss_grad,
    positive_weight,
    size_factor,
    weight_table,
)
from .errors import (
    DimensionError,
    DomainError,
    EvaluationError,
    ParseError,
    SodkitError,
    TilingError,
    TrainingError,
)
from .fusion import (
    CCTMActivations,
    CCTMGrads,
    CCTMParams,
    cctm_backward,
    cctm_forward,
    cross_first,
    cross_gate,
    cross_second,
    gate_first,
    grn,
)
from .harness import (
    Detections,
    FixedSizeMlpWeights,
    RunConfig,
    SynthData,
    fixed_size_mlp,
    ingest_coco_results,
    score_stats,
    synth_dataset,
    train_toy,
)
from .numeric import (
    gelu,
    make_rng,
    sigmoid,
    tensor,
)
from .tiling import PatchGrid, clap_apply, plan_grid, reassemble, split

__version__ = "0.1.0"
