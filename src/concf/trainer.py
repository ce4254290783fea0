"""EM-style training loop: per-epoch clustering, mini-batch Adam, early stopping."""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .config import TrainConfig
from .dataset import DatasetSplit, TripleBatch, sample_negatives
from .evaluator import full_rank_eval
from .graph import build_normalized_adjacency
from .model import EmbeddingTable, forward, init_embeddings, save_checkpoint
from .objectives import LossBreakdown, total_loss_and_gradient
from .prototypes import PrototypeState, e_step
from .seeding import derive_seed, rng_stream

# independent random streams hanging off the root seed
STREAM_INIT = 1
STREAM_NEGATIVES = 2
STREAM_SHUFFLE = 3
STREAM_KMEANS = 4

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # torch.optim.Adam's defaults


@dataclass
class AdamState:
    """First/second moment tables plus the shared step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, table: EmbeddingTable) -> "AdamState":
        return cls(m=np.zeros_like(table.matrix), v=np.zeros_like(table.matrix))


@dataclass
class EpochRecord:
    epoch: int
    loss: LossBreakdown
    valid_ndcg10: float
    valid_recall10: float
    seconds: float
    kmeans_inertia: tuple[float, float] | None  # users, items
    n_batches: int


@dataclass
class TrainResult:
    table: EmbeddingTable
    history: list[EpochRecord]
    best_epoch: int
    best_metric: float
    stopped_early: bool = False


def adam_step(
    table: EmbeddingTable, grads: np.ndarray, state: AdamState, config: TrainConfig
) -> None:
    """Bias-corrected Adam on every row, in place on ``table`` and ``state``, as
    ``torch.optim.Adam``: a row with a zero gradient still decays its moments
    and moves by their corrected ratio."""
    if grads.shape != table.matrix.shape:
        raise ValueError(f"gradient shape {grads.shape} != table shape {table.matrix.shape}")
    bad = ~np.isfinite(grads)
    if bad.any():
        row = int(np.flatnonzero(bad.any(axis=1))[0])
        raise FloatingPointError(f"gradient blow-up at row {row}")
    state.step += 1
    state.m *= BETA1
    state.m += (1 - BETA1) * grads
    state.v *= BETA2
    state.v += (1 - BETA2) * (grads * grads)
    m_hat = state.m / (1 - BETA1 ** state.step)
    v_hat = state.v / (1 - BETA2 ** state.step)
    table.matrix -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def iter_batches(triples: TripleBatch, order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        yield TripleBatch(
            users=triples.users[idx],
            pos_items=triples.pos_items[idx],
            neg_items=triples.neg_items[idx],
        )


def _mean_breakdown(parts: list[LossBreakdown]) -> LossBreakdown:
    names = [f.name for f in fields(LossBreakdown)]
    return LossBreakdown(**{k: sum(getattr(p, k) for p in parts) / len(parts) for k in names})


# an overflow that matters surfaces as the non-finite loss or gradient error
@np.errstate(over="ignore", invalid="ignore")
def train(
    config: TrainConfig,
    split: DatasetSplit,
    *,
    out_dir: str | Path | None = None,
    eval_fn: Callable[[EmbeddingTable, int], dict[str, float]] | None = None,
    progress: Callable[[EpochRecord], None] | None = None,
) -> TrainResult:
    """Run the full training loop and return the best-validation table.

    Each epoch: re-cluster embeddings (skipped when the prototype weight is
    zero), resample negatives and shuffle, run mini-batch gradient steps,
    evaluate validation NDCG@10, and stop after ``patience`` epochs without
    improvement, restoring the best epoch's parameters. ``progress`` gets
    each epoch's record as soon as it is made.
    """
    config.validate()
    config.validate_for_split(split.n_users, split.n_items)
    split.require("train")
    if eval_fn is None:
        split.require("valid")  # the default evaluation ranks it
        def eval_fn(tbl: EmbeddingTable, epoch: int) -> dict[str, float]:
            fp = forward(adj, tbl, config.n_layers)
            return full_rank_eval(fp, split, target="valid", ns=(10,)).metrics

    dtype = np.dtype(config.dtype)
    adj = build_normalized_adjacency(split, dtype=dtype)
    table = init_embeddings(
        split.n_users, split.n_items, config.d, derive_seed(config.seed, STREAM_INIT), dtype=dtype
    )
    adam = AdamState.zeros_like(table)

    history: list[EpochRecord] = []
    best_metric = -np.inf
    best_epoch = 0
    best_table = table.copy()

    try:
        for epoch in range(1, config.max_epochs + 1):
            t0 = time.perf_counter()
            protos: PrototypeState | None = None
            inertia: tuple[float, float] | None = None
            if config.lambda2 > 0:
                seed = derive_seed(config.seed, STREAM_KMEANS, epoch)
                protos = e_step(table, config.k_users, config.k_items, seed)
                inertia = protos.users.inertia, protos.items.inertia

            triples = sample_negatives(split, derive_seed(config.seed, STREAM_NEGATIVES, epoch))
            order = rng_stream(config.seed, STREAM_SHUFFLE, epoch).permutation(len(triples))
            parts: list[LossBreakdown] = []
            for batch in iter_batches(triples, order, config.batch_size):
                breakdown, grad = total_loss_and_gradient(adj, table, batch, protos, config)
                if not np.isfinite(breakdown.total):
                    raise FloatingPointError(f"non-finite loss at epoch {epoch}")
                adam_step(table, grad, adam, config)
                parts.append(breakdown)

            metrics = eval_fn(table, epoch)
            ndcg10 = metrics.get("ndcg@10", 0.0)
            record = EpochRecord(
                epoch=epoch,
                loss=_mean_breakdown(parts),
                valid_ndcg10=ndcg10,
                valid_recall10=metrics.get("recall@10", 0.0),
                seconds=time.perf_counter() - t0,
                kmeans_inertia=inertia,
                n_batches=len(parts),
            )
            history.append(record)
            if progress is not None:
                progress(record)

            if ndcg10 > best_metric:
                best_metric = ndcg10
                best_epoch = epoch
                best_table = table.copy()
            elif epoch - best_epoch >= config.patience:
                break
    except (Exception, KeyboardInterrupt):
        if out_dir is not None:
            path = Path(out_dir)
            path.mkdir(parents=True, exist_ok=True)
            save_checkpoint(
                path / "crash.ckpt", table, n_layers=config.n_layers, epoch=len(history)
            )
        raise

    return TrainResult(
        table=best_table,
        history=history,
        best_epoch=best_epoch,
        best_metric=best_metric,
        stopped_early=len(history) - best_epoch >= config.patience,
    )
