"""Contrastive graph collaborative filtering: training and evaluation engine."""

import os
import sys
import warnings

# BLAS reads its thread count once, when NumPy first loads, and a float64
# product's bytes depend on it; one thread makes every run independent of the
# machine's cores. A caller that loaded NumPy before concf keeps its setting,
# and is warned unless that is one thread: OpenBLAS reads
# OPENBLAS_NUM_THREADS, or OMP_NUM_THREADS when the first is not set.
_var = next((var for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if os.environ.get(var)),
            "OPENBLAS_NUM_THREADS")
if "numpy" in sys.modules and os.environ.get(_var) != "1":
    warnings.warn(
        f"NumPy was imported before concf with {_var}={os.environ.get(_var) or '(unset)'}: "
        "BLAS may run on several threads, and results then depend on the thread count. "
        f"Set {_var}=1 before NumPy is imported, or import concf first",
        RuntimeWarning,
        stacklevel=2,
    )
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

from .config import TrainConfig
from .dataset import (
    DatasetSplit,
    RawInteractions,
    TripleBatch,
    build_split,
    k_core_filter,
    load_interactions,
    sample_negatives,
)
from .evaluator import EvalReport, full_rank_eval, sparsity_group_report
from .graph import NormalizedAdjacency, build_normalized_adjacency, propagate
from .model import (
    EmbeddingTable,
    ForwardPass,
    forward,
    init_embeddings,
    load_checkpoint,
    save_checkpoint,
)
from .objectives import (
    LossBreakdown,
    bpr_loss,
    prototype_contrastive_loss,
    reg_loss,
    structure_contrastive_loss,
    total_loss_and_gradient,
)
from .prototypes import Clustering, PrototypeState, e_step, run_kmeans
from .trainer import AdamState, EpochRecord, TrainResult, adam_step, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Clustering",
    "DatasetSplit",
    "EmbeddingTable",
    "EpochRecord",
    "EvalReport",
    "ForwardPass",
    "LossBreakdown",
    "NormalizedAdjacency",
    "PrototypeState",
    "RawInteractions",
    "TrainConfig",
    "TrainResult",
    "TripleBatch",
    "adam_step",
    "bpr_loss",
    "build_normalized_adjacency",
    "build_split",
    "e_step",
    "forward",
    "full_rank_eval",
    "init_embeddings",
    "k_core_filter",
    "load_checkpoint",
    "load_interactions",
    "propagate",
    "prototype_contrastive_loss",
    "reg_loss",
    "run_kmeans",
    "sample_negatives",
    "save_checkpoint",
    "sparsity_group_report",
    "structure_contrastive_loss",
    "total_loss_and_gradient",
    "train",
    "__version__",
]
