"""Loss terms of the joint objective and the exact gradient w.r.t. the table.

Terms:
  * pairwise ranking (BPR) over (user, positive, negative) triples,
  * structure-contrastive InfoNCE between each node's even-layer propagation
    output and its own base embedding, with in-batch negatives,
  * prototype-contrastive InfoNCE between base embeddings and their assigned
    K-means centroid, against all centroids of the clustering,
  * L2 regularization over the rows touched by the batch.

Gradients are computed analytically: the propagation operator is self-adjoint
(edge weights are symmetric), so cotangents of layer outputs are pushed back
by the forward propagation kernel itself; L2 normalizations are differentiated
in closed form. The combined objective keeps the ranking and regularization
terms as per-batch means and the contrastive terms in summed form, so the
contrastive weights stay calibrated against a fixed batch size.

Each term is one public function: it returns the loss, and when given a
cotangent accumulator it also adds its weighted gradient into it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

from .config import TrainConfig
from .dataset import TripleBatch
from .graph import NormalizedAdjacency, propagate
from .model import EmbeddingTable, ForwardPass, forward
from .numerics import (
    l2_normalize_backward,
    l2_normalize_rows,
    row_logsumexp,
    row_softmax,
    softplus,
)
from .prototypes import PrototypeState


@dataclass(frozen=True)
class LossBreakdown:
    """Stored components satisfy total = bpr + l1*structure + l2*prototype + l3*reg."""

    bpr: float
    structure: float
    prototype: float
    reg: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def bpr_loss(
    fp: ForwardPass,
    triples: TripleBatch,
    grad_readout: np.ndarray | None = None,
    weight: float = 1.0,
) -> float:
    """Sum over triples of -log sigmoid(score_pos - score_neg).

    With ``grad_readout``, ``weight`` times the loss's gradient w.r.t. the
    readout is added into it.
    """
    if len(triples) == 0:
        raise ValueError("empty triple batch")
    users = np.asarray(triples.users, dtype=np.int64)
    pos = np.asarray(triples.pos_items, dtype=np.int64) + fp.n_users
    neg = np.asarray(triples.neg_items, dtype=np.int64) + fp.n_users
    zu = fp.readout[users]
    zi = fp.readout[pos]
    zj = fp.readout[neg]
    gaps = np.einsum("ij,ij->i", zu, zi - zj)
    if grad_readout is not None:
        # d/dgap of softplus(-gap) = -sigmoid(-gap)
        coef = (-expit(-gaps) * weight)[:, None]
        np.add.at(grad_readout, users, coef * (zi - zj))
        np.add.at(grad_readout, pos, coef * zu)
        np.add.at(grad_readout, neg, -coef * zu)
    return float(softplus(-gaps).sum())


def _infonce_self_pairs(
    anchors: np.ndarray, bases: np.ndarray, counts: np.ndarray, tau: float, with_grad: bool
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """InfoNCE where row i's positive is bases[i] and every base is a candidate.

    Rows are assumed unit-norm. ``counts`` weights each row's term (batch
    multiplicity). Returns (weighted sum, grad wrt anchors, grad wrt bases);
    the gradients are None unless ``with_grad``.
    """
    logits = (anchors @ bases.T) / tau
    diag = np.arange(len(anchors))
    term = float(counts @ (row_logsumexp(logits) - logits[diag, diag]))
    if not with_grad:
        return term, None, None
    dlogits = row_softmax(logits)
    dlogits[diag, diag] -= 1.0
    dlogits *= counts[:, None]
    return term, dlogits @ bases / tau, dlogits.T @ anchors / tau


def structure_contrastive_loss(
    fp: ForwardPass,
    batch_users: np.ndarray,
    batch_items: np.ndarray,
    k_layer: int,
    tau: float,
    alpha: float = 1.0,
    cot_layers: list[np.ndarray] | None = None,
    weight: float = 1.0,
) -> float:
    """Structure-contrastive loss, summed over batch entries.

    Each entry contrasts the node's layer-``k_layer`` output against its own
    base embedding; the candidate set is the distinct nodes of the batch
    (in-batch negatives, positive included). The item side is weighted by
    ``alpha``. With ``cot_layers``, ``weight`` times the loss's gradient
    w.r.t. layers 0 and ``k_layer`` is added into those layers' cotangents.
    """
    if tau <= 0:
        raise ValueError("tau: must be > 0")
    n_layers = fp.n_layers
    if k_layer % 2 != 0 or not 2 <= k_layer <= n_layers:
        raise ValueError(f"k_layer: must be even and in [2, {n_layers}], got {k_layer}")
    if len(batch_users) == 0 or len(batch_items) == 0:
        raise ValueError("batch lists must be nonempty")

    total = 0.0
    sides = (
        (np.asarray(batch_users, dtype=np.int64), 1.0),
        (np.asarray(batch_items, dtype=np.int64) + fp.n_users, alpha),
    )
    for rows, side_weight in sides:
        distinct, counts = np.unique(rows, return_counts=True)
        anchors, anchor_norms = l2_normalize_rows(fp.layers[k_layer][distinct])
        bases, base_norms = l2_normalize_rows(fp.layers[0][distinct])
        term, g_anchor, g_base = _infonce_self_pairs(
            anchors, bases, counts.astype(anchors.dtype), tau, cot_layers is not None
        )
        total += side_weight * term
        if cot_layers is not None:
            scale = weight * side_weight
            cot_layers[k_layer][distinct] += scale * l2_normalize_backward(
                g_anchor, anchors, anchor_norms
            )
            cot_layers[0][distinct] += scale * l2_normalize_backward(g_base, bases, base_norms)
    return total


def prototype_contrastive_loss(
    table: EmbeddingTable,
    protos: PrototypeState,
    tau: float,
    alpha: float = 1.0,
    cot0: np.ndarray | None = None,
    weight: float = 1.0,
) -> float:
    """Prototype-contrastive loss summed over the full population.

    Every node's normalized base embedding is contrasted with its assigned
    centroid against all centroids of the clustering; terms are averaged
    across granularities and the item side is weighted by ``alpha``.
    Centroids are constants: no gradient flows into them. With ``cot0``,
    ``weight`` times the loss's gradient w.r.t. the table is added into it.
    """
    if tau <= 0:
        raise ValueError("tau: must be > 0")
    total = 0.0
    sides = (
        (protos.users, slice(0, table.n_users), 1.0),
        (protos.items, slice(table.n_users, table.n_nodes), alpha),
    )
    for clusterings, block, side_weight in sides:
        if not clusterings:
            raise ValueError("prototype state is missing a side")
        points, norms = l2_normalize_rows(table.matrix[block])
        n = len(points)
        idx = np.arange(n)
        grad_points = np.zeros_like(points) if cot0 is not None else None
        side_term = 0.0
        for cl in clusterings:
            if len(cl.assignments) != n:
                raise ValueError(
                    f"clustering has {len(cl.assignments)} assignments for {n} nodes"
                )
            logits = points @ cl.centroids.T / tau
            side_term += float((row_logsumexp(logits) - logits[idx, cl.assignments]).sum())
            if grad_points is not None:
                dlogits = row_softmax(logits)
                dlogits[idx, cl.assignments] -= 1.0
                grad_points += dlogits @ cl.centroids / tau
        side_term /= len(clusterings)
        total += side_weight * side_term
        if cot0 is not None:
            scale = weight * side_weight / len(clusterings)
            cot0[block] += scale * l2_normalize_backward(grad_points, points, norms)
    return total


def reg_loss(table: EmbeddingTable, touched: np.ndarray) -> float:
    """Half the squared L2 norm of the touched rows."""
    ids = np.unique(np.asarray(touched, dtype=np.int64))
    if ids.size == 0:
        return 0.0
    rows = table.matrix[ids]
    return float(0.5 * np.einsum("ij,ij->", rows, rows))


def total_loss_and_gradient(
    adj: NormalizedAdjacency,
    table: EmbeddingTable,
    triples: TripleBatch,
    protos: PrototypeState | None,
    config: TrainConfig,
) -> tuple[LossBreakdown, np.ndarray]:
    """Evaluate every loss term once and return the exact gradient w.r.t. the table.

    The ranking and regularization terms are divided by the batch size;
    contrastive terms keep their summed form. Inactive terms (zero weight)
    are skipped entirely and reported as 0.
    """
    if len(triples) == 0:
        raise ValueError("empty triple batch")
    if config.lambda2 > 0 and protos is None:
        raise ValueError("lambda2 > 0 requires a prototype state")
    fp = forward(adj, table, config.n_layers)
    n_batch = len(triples)
    n_layers = config.n_layers
    cot_layers = [np.zeros_like(table.matrix) for _ in range(n_layers + 1)]

    grad_readout = np.zeros_like(table.matrix)
    bpr = bpr_loss(fp, triples, grad_readout, weight=1.0 / n_batch) / n_batch
    # readout is the uniform layer average, so its cotangent spreads evenly
    per_layer = grad_readout / (n_layers + 1)
    for l in range(n_layers + 1):
        cot_layers[l] += per_layer

    structure = 0.0
    if config.lambda1 > 0:
        structure = structure_contrastive_loss(
            fp, triples.users, triples.pos_items, config.k_layer, config.tau, config.alpha,
            cot_layers, weight=config.lambda1,
        )

    prototype = 0.0
    if config.lambda2 > 0:
        prototype = prototype_contrastive_loss(
            table, protos, config.tau, config.alpha, cot_layers[0], weight=config.lambda2
        )

    reg = 0.0
    if config.lambda3 > 0:
        touched = np.unique(np.concatenate([
            np.asarray(triples.users, dtype=np.int64),
            np.asarray(triples.pos_items, dtype=np.int64) + table.n_users,
            np.asarray(triples.neg_items, dtype=np.int64) + table.n_users,
        ]))
        reg = reg_loss(table, touched) / n_batch
        cot_layers[0][touched] += (config.lambda3 / n_batch) * table.matrix[touched]

    grad = cot_layers[n_layers]
    for l in range(n_layers - 1, -1, -1):
        grad = propagate(adj, grad)
        grad += cot_layers[l]

    total = bpr + config.lambda1 * structure + config.lambda2 * prototype + config.lambda3 * reg
    return LossBreakdown(bpr, structure, prototype, reg, total), grad
