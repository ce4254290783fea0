"""EM-style training loop: per-epoch clustering, mini-batch Adam, early stopping."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, IO

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
    kmeans_inertia: tuple[float, ...] | None
    n_batches: int

    def as_dict(self, include_timing: bool = True) -> dict:
        out = {
            "epoch": self.epoch,
            "loss": self.loss.as_dict(),
            "valid_ndcg10": self.valid_ndcg10,
            "valid_recall10": self.valid_recall10,
            "kmeans_inertia": list(self.kmeans_inertia) if self.kmeans_inertia else None,
            "n_batches": self.n_batches,
        }
        if include_timing:
            out["seconds"] = self.seconds
        return out


@dataclass
class TrainResult:
    table: EmbeddingTable
    history: list[EpochRecord]
    best_epoch: int
    best_metric: float
    stopped_early: bool = False


def adam_step(
    table: EmbeddingTable, grads: np.ndarray, state: AdamState, config: TrainConfig
) -> tuple[EmbeddingTable, AdamState]:
    """Bias-corrected Adam applied only to rows with a nonzero gradient.

    Moments of untouched rows are left unchanged; the step counter always
    increments. Mutates ``table`` and ``state`` in place and returns them.
    """
    if grads.shape != table.matrix.shape:
        raise ValueError(f"gradient shape {grads.shape} != table shape {table.matrix.shape}")
    bad = ~np.isfinite(grads)
    if bad.any():
        row = int(np.flatnonzero(bad.any(axis=1))[0])
        raise FloatingPointError(f"gradient blow-up at row {row}")
    state.step += 1
    rows = np.flatnonzero((grads != 0).any(axis=1))
    if rows.size:
        g = grads[rows]
        state.m[rows] = config.beta1 * state.m[rows] + (1 - config.beta1) * g
        state.v[rows] = config.beta2 * state.v[rows] + (1 - config.beta2) * (g * g)
        m_hat = state.m[rows] / (1 - config.beta1 ** state.step)
        v_hat = state.v[rows] / (1 - config.beta2 ** state.step)
        table.matrix[rows] -= config.lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return table, state


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


def train(
    config: TrainConfig,
    split: DatasetSplit,
    *,
    out_dir: str | Path | None = None,
    log_stream: IO[str] | None = None,
    eval_fn: Callable[[EmbeddingTable, int], dict[str, float]] | None = None,
    progress: Callable[[EpochRecord], None] | None = None,
) -> TrainResult:
    """Run the full training loop and return the best-validation table.

    Each epoch: re-cluster embeddings (skipped when the prototype weight is
    zero), resample negatives and shuffle, run mini-batch gradient steps,
    evaluate validation NDCG@10, and stop after ``patience`` epochs without
    improvement, restoring the best epoch's parameters.
    """
    config.validate()
    config.validate_for_split(split.n_users, split.n_items)
    if len(split.train) == 0:
        raise ValueError("empty train split")
    dtype = np.dtype(config.dtype)
    adj = build_normalized_adjacency(split, dtype=dtype)
    table = init_embeddings(
        split.n_users, split.n_items, config.d, derive_seed(config.seed, STREAM_INIT), dtype=dtype
    )
    adam = AdamState.zeros_like(table)

    if eval_fn is None:
        def eval_fn(tbl: EmbeddingTable, epoch: int) -> dict[str, float]:
            fp = forward(adj, tbl, config.n_layers)
            report = full_rank_eval(
                fp, split, target="valid", ns=(10,), user_cap=config.valid_user_cap
            )
            return report.metrics

    history: list[EpochRecord] = []
    best_metric = -np.inf
    best_epoch = 0
    best_table = table.copy()
    bad_streak = 0
    stopped_early = False

    try:
        for epoch in range(1, config.max_epochs + 1):
            t0 = time.perf_counter()
            protos: PrototypeState | None = None
            inertia: tuple[float, ...] | None = None
            if config.lambda2 > 0:
                points = None, None
                if config.cluster_source == "readout":
                    fp = forward(adj, table, config.n_layers)
                    points = fp.user_readout, fp.item_readout
                protos = e_step(
                    table,
                    config.k_users,
                    config.k_items,
                    derive_seed(config.seed, STREAM_KMEANS, epoch),
                    max_iters=config.kmeans_max_iters,
                    tol=config.kmeans_tol,
                    user_points=points[0],
                    item_points=points[1],
                )
                inertia = tuple(c.inertia for c in protos.users + protos.items)

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
            if log_stream is not None:
                log_stream.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
                log_stream.flush()
            if progress is not None:
                progress(record)

            if ndcg10 > best_metric:
                best_metric = ndcg10
                best_epoch = epoch
                best_table = table.copy()
                bad_streak = 0
            else:
                bad_streak += 1
                if bad_streak >= config.patience:
                    stopped_early = True
                    break
    except Exception:
        if out_dir is not None:
            path = Path(out_dir)
            path.mkdir(parents=True, exist_ok=True)
            save_checkpoint(
                path / "crash.ckpt",
                table,
                n_layers=config.n_layers,
                epoch=len(history),
                adam_m=adam.m,
                adam_v=adam.v,
                adam_step=adam.step,
            )
        raise

    return TrainResult(
        table=best_table,
        history=history,
        best_epoch=best_epoch,
        best_metric=best_metric,
        stopped_early=stopped_early,
    )
