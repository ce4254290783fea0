"""Contrastive graph collaborative filtering: training and evaluation engine."""

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
from .evaluator import (
    EvalReport,
    full_rank_eval,
    ndcg_at_n,
    recall_at_n,
    sparsity_group_report,
)
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
    "ndcg_at_n",
    "propagate",
    "prototype_contrastive_loss",
    "recall_at_n",
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
