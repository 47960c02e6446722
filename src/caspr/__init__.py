"""caspr: self-supervised entity embeddings from timestamped activity logs.

Pipeline: declare a schema, fit it over a CSV activity log, pretrain the
sequence model with masked-recovery, export one embedding vector per
entity, and evaluate against the order-invariant RFM baseline.
"""

from .autodiff import Tensor, backward
from .errors import CasprError
from .ingest import ColumnSpec, FittedSchema, Schema, SequenceDataset, build_dataset, fit_schema
from .metrics import auroc, f1_positive, ranking_metrics, rmse, train_linear_probe
from .pretrain import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint, train
from .rfm import rfm_table
from .synthgen import SynthConfig
from .transformer import ModelConfig, build_weights, embed, prepare_batch

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "backward",
    "CasprError",
    "ColumnSpec",
    "Schema",
    "FittedSchema",
    "fit_schema",
    "SequenceDataset",
    "build_dataset",
    "auroc",
    "f1_positive",
    "rmse",
    "ranking_metrics",
    "train_linear_probe",
    "Checkpoint",
    "TrainConfig",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "rfm_table",
    "SynthConfig",
    "ModelConfig",
    "build_weights",
    "embed",
    "prepare_batch",
    "__version__",
]
