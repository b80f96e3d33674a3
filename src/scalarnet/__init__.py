"""Group-wise adaptive kernel attention regression with self-calibration,
variational latent encoding, and a hierarchical PLS-style prediction head."""

from .attention import (
    AttentionTrace,
    FeatureGroupSpec,
    KernelAttentionParams,
    grouped_attention_forward,
    kernel_attention_forward,
)
from .calibration import (
    CalibrationParams,
    VariationalParams,
    self_calibrate,
    variational_encode_decode,
)
from .data import Dataset, load_csv, split, standardize, synth_nonlinear
from .head import HeadParams, feature_importance, head_forward
from .losses import (
    LossConfig,
    binwise_rmse,
    composite_loss,
    concordance_index,
    kl_weight,
    metrics,
)
from .model import ModelConfig, ScalarModel
from .tensor import Rng, Tensor
from .train import (
    Checkpoint,
    ablation_data_fraction,
    evaluate,
    gradcheck,
    importance_scores,
    predict,
    train,
)

__all__ = [
    "AttentionTrace",
    "FeatureGroupSpec",
    "KernelAttentionParams",
    "grouped_attention_forward",
    "kernel_attention_forward",
    "CalibrationParams",
    "VariationalParams",
    "self_calibrate",
    "variational_encode_decode",
    "Dataset",
    "load_csv",
    "split",
    "standardize",
    "synth_nonlinear",
    "HeadParams",
    "feature_importance",
    "head_forward",
    "LossConfig",
    "binwise_rmse",
    "composite_loss",
    "concordance_index",
    "kl_weight",
    "metrics",
    "ModelConfig",
    "ScalarModel",
    "Rng",
    "Tensor",
    "Checkpoint",
    "ablation_data_fraction",
    "evaluate",
    "gradcheck",
    "importance_scores",
    "predict",
    "train",
]
