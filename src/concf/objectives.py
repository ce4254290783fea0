"""Loss terms of the joint objective and the exact gradient w.r.t. the table.

Terms:
  * pairwise ranking (BPR) over (user, positive, negative) triples,
  * structure-contrastive InfoNCE between each node's even-layer propagation
    output and its own base embedding, with in-batch negatives,
  * prototype-contrastive InfoNCE between base embeddings and their assigned
    K-means centroid, against all centroids of their side's one clustering,
  * L2 regularization over the rows touched by the batch.

Gradients are computed analytically: the propagation operator is self-adjoint
(edge weights are symmetric), so cotangents of layer outputs are pushed back
by the forward propagation kernel itself; L2 normalizations are differentiated
in closed form. The combined objective keeps the ranking and regularization
terms as per-batch means and the contrastive terms in summed form, so the
contrastive weights stay calibrated against a fixed batch size.

Each term is one public function: it returns the loss, and when given a
gradient accumulator and a weight it also adds its weighted gradient into it.

On a large enough graph and with two usable CPUs, ``total_loss_and_gradient``
shares the step with the worker thread that ``overlap`` owns. Each
propagation product the calling thread runs, the forward ones and the last
backward ones, splits its item rows off to the worker (``propagate``
decides). Between them the worker runs two jobs, in order, beside BPR, the
structure term and the regularizer: the prototype term, then the first
backward product, which runs whole there. Each half sums its rows as the
serial product does, each job is the serial step's computation on the same
full-size operands, in arrays allocated on the thread that runs it, and the
calling thread adds each job's result into the cotangents in the serial
order, so the step's losses and gradient do not depend on whether the
worker ran.
"""

from __future__ import annotations

from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import overlap
from .config import TrainConfig
from .dataset import TripleBatch
from .graph import NormalizedAdjacency, propagate
from .model import EmbeddingTable, ForwardPass, forward
from .numerics import (
    l2_normalize_backward,
    l2_normalize_rows,
    scatter_add_rows,
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


def _check_ids(name: str, ids: np.ndarray, bound: int) -> None:
    """Raise ValueError naming ``name`` unless every id of nonempty ``ids`` lies in [0, bound)."""
    if ids.min() < 0 or ids.max() >= bound:
        raise ValueError(f"{name}: ids must lie in [0, {bound})")


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
    pos = np.asarray(triples.pos_items, dtype=np.int64)
    neg = np.asarray(triples.neg_items, dtype=np.int64)
    _check_ids("users", users, fp.n_users)
    _check_ids("pos_items", pos, fp.n_items)
    _check_ids("neg_items", neg, fp.n_items)
    pos = pos + fp.n_users
    neg = neg + fp.n_users
    n = len(users)
    # rows [0, n) hold zi - zj and rows [n, 2n) hold zu, gathered in place; the
    # ids are checked, so take need not buffer its output as mode="raise" does
    source = np.empty((2 * n, fp.readout.shape[1]), dtype=fp.readout.dtype)
    diff, zu = source[:n], source[n:]
    np.take(fp.readout, pos, axis=0, out=diff, mode="wrap")
    np.take(fp.readout, neg, axis=0, out=zu, mode="wrap")
    diff -= zu
    np.take(fp.readout, users, axis=0, out=zu, mode="wrap")
    gaps = np.einsum("ij,ij->i", zu, diff)
    if grad_readout is not None:
        # d/dgap of softplus(-gap) = -sigmoid(-gap)
        coef = -expit(-gaps) * weight
        # user rows get coef * (zi - zj), positive rows coef * zu and negative
        # rows -coef * zu, each row summed users first, then positives, then negatives
        triple_rows = np.arange(n)
        grad_readout += scatter_add_rows(
            np.concatenate([users, pos, neg]),
            source,
            len(grad_readout),
            weights=np.concatenate([coef, coef, -coef]),
            sources=np.concatenate([triple_rows, triple_rows + n, triple_rows + n]),
        )
    return float(softplus(-gaps).sum())


def _cosine_infonce(
    rows: np.ndarray, candidates: np.ndarray, targets: np.ndarray, tau: float,
    counts: np.ndarray | None = None, grads: int = 0,
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """InfoNCE of each L2-normalized row against every (unit) candidate, its
    positive being ``candidates[targets[i]]``, with logits ``cos / tau``.

    Returns the loss summed over rows, each weighted by ``counts[i]`` when
    given, and ``grads`` of its gradients, None for the others: with 1 the
    one w.r.t. the raw ``rows``, with 2 also the one w.r.t. the
    ``candidates`` as given (pull it back through their normalization).
    The logsumexp and the softmax are computed in place on the logits.
    """
    anchors, norms = l2_normalize_rows(rows)
    logits = anchors @ candidates.T
    logits /= tau
    at = np.arange(len(anchors))
    positive = logits[at, targets]
    # shift-stabilized logsumexp and softmax, in place on the logits
    m = logits.max(axis=1)
    logits -= m[:, None]
    np.exp(logits, out=logits)
    total = logits.sum(axis=1)
    losses = m + np.log(total) - positive
    if counts is not None:
        counts = counts.astype(losses.dtype)
    loss = float(losses.sum() if counts is None else counts @ losses)
    if grads == 0:
        return loss, None, None
    # the logits' gradient, softmax minus one-hot, weighted by the counts
    logits /= total[:, None]
    logits[at, targets] -= 1.0
    if counts is not None:
        logits *= counts[:, None]
    d_rows = l2_normalize_backward(logits @ candidates / tau, anchors, norms)
    return loss, d_rows, logits.T @ anchors / tau if grads == 2 else None


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

    users = np.asarray(batch_users, dtype=np.int64)
    items = np.asarray(batch_items, dtype=np.int64)
    _check_ids("batch_users", users, fp.n_users)
    _check_ids("batch_items", items, fp.n_items)

    total = 0.0
    sides = ((users, 1.0), (items + fp.n_users, alpha))
    for rows, side_weight in sides:
        counts = np.bincount(rows)
        distinct = np.flatnonzero(counts)
        counts = counts[distinct]
        bases, base_norms = l2_normalize_rows(fp.layers[0][distinct])
        loss, d_anchors, d_bases = _cosine_infonce(
            fp.layers[k_layer][distinct], bases, np.arange(len(distinct)), tau, counts,
            grads=0 if cot_layers is None else 2,
        )
        total += side_weight * loss
        if cot_layers is not None:
            scale = weight * side_weight
            cot_layers[k_layer][distinct] += scale * d_anchors
            cot_layers[0][distinct] += scale * l2_normalize_backward(d_bases, bases, base_norms)
    return total


def prototype_contrastive_loss(
    table: EmbeddingTable,
    protos: PrototypeState,
    tau: float,
    alpha: float = 1.0,
    cot: np.ndarray | None = None,
    weight: float = 1.0,
) -> float:
    """Prototype-contrastive loss summed over the full population.

    Every node's normalized base embedding is contrasted with its assigned
    centroid against all centroids of its side's clustering; the item side
    is weighted by ``alpha``. Centroids are constants: no gradient flows
    into them. With ``cot``, ``weight`` times the loss's gradient w.r.t. the
    table is added into it. Each side's logits are freed before the next
    side's are made, so one side's are alive at a time.
    """
    if tau <= 0:
        raise ValueError("tau: must be > 0")
    total = 0.0
    sides = (
        (protos.users, slice(0, table.n_users), 1.0),
        (protos.items, slice(table.n_users, table.n_nodes), alpha),
    )
    for cl, block, side_weight in sides:
        points = table.matrix[block]
        n = len(points)
        if len(cl.assignments) != n:
            raise ValueError(f"clustering has {len(cl.assignments)} assignments for {n} nodes")
        loss, d_points, _ = _cosine_infonce(
            points, cl.centroids, cl.assignments, tau, grads=0 if cot is None else 1
        )
        total += side_weight * loss
        if cot is not None:
            cot[block] += weight * side_weight * d_points
    return total


def reg_loss(
    table: EmbeddingTable,
    touched: np.ndarray,
    cot: np.ndarray | None = None,
    weight: float = 1.0,
) -> float:
    """Half the squared L2 norm of the touched rows, each row counted once.

    With ``cot``, ``weight`` times the loss's gradient w.r.t. the table (the
    touched rows themselves) is added into its touched rows.
    """
    ids = np.asarray(touched, dtype=np.int64)
    if ids.size == 0:
        return 0.0
    _check_ids("touched", ids, table.n_nodes)
    distinct = np.flatnonzero(np.bincount(ids))
    rows = table.matrix[distinct]
    if cot is not None:
        cot[distinct] += weight * rows
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
    are skipped entirely and reported as 0. When ``adj.nnz * d`` reaches
    ``overlap.OVERLAP_MIN_WORK`` and two CPUs are usable, the worker computes
    the item rows of the forward and last backward products, the prototype
    term and the first backward product, with the same bytes.
    """
    if len(triples) == 0:
        raise ValueError("empty triple batch")
    if config.lambda2 > 0 and protos is None:
        raise ValueError("lambda2 > 0 requires a prototype state")
    n_batch = len(triples)
    n_layers = config.n_layers
    # a job for the worker, or one that runs at its result()
    start = overlap.start_for(adj.nnz * table.d) or overlap.Deferred
    proto_job = first_product = None
    try:
        fp = forward(adj, table, n_layers)
        if config.lambda2 > 0:
            proto_cot = np.zeros_like(table.matrix)
            proto_job = start(
                prototype_contrastive_loss, table, protos, config.tau, config.alpha,
                proto_cot, config.lambda2,
            )

        grad_readout = np.zeros_like(table.matrix)
        bpr = bpr_loss(fp, triples, grad_readout, weight=1.0 / n_batch) / n_batch
        # readout is the uniform layer average, so its cotangent spreads evenly;
        # only layers 0 and k_layer receive more terms, the others share this one
        grad_readout /= n_layers + 1
        cot_layers = [grad_readout] * (n_layers + 1)
        cot_layers[0] = grad_readout.copy()
        cot_layers[config.k_layer] = grad_readout.copy()
        # the top layer's cotangent is final now unless the structure term adds
        # to it; the job queues behind the prototype term
        if config.k_layer != n_layers:
            first_product = start(propagate, adj, cot_layers[n_layers])

        structure = 0.0
        if config.lambda1 > 0:
            structure = structure_contrastive_loss(
                fp, triples.users, triples.pos_items, config.k_layer, config.tau, config.alpha,
                cot_layers, weight=config.lambda1,
            )

        prototype = 0.0
        if proto_job is not None:
            prototype = proto_job.result()
            cot_layers[0] += proto_cot

        reg = 0.0
        if config.lambda3 > 0:
            touched = np.concatenate([
                np.asarray(triples.users, dtype=np.int64),
                np.asarray(triples.pos_items, dtype=np.int64) + table.n_users,
                np.asarray(triples.neg_items, dtype=np.int64) + table.n_users,
            ])
            reg = reg_loss(table, touched, cot_layers[0], config.lambda3 / n_batch) / n_batch

        # the worker has no job left once the first product is in, so the
        # products after it split, and the first one too when it waited here
        if first_product is None:
            grad = propagate(adj, cot_layers[n_layers])
        else:
            grad = first_product.result()
        grad += cot_layers[n_layers - 1]
        for l in range(n_layers - 2, -1, -1):
            grad = propagate(adj, grad)
            grad += cot_layers[l]
    finally:
        # a failed step leaves nothing queued or running: drop what has not
        # started, newest first, and wait for what has
        wait([job for job in (first_product, proto_job) if job is not None and not job.cancel()])

    total = bpr + config.lambda1 * structure + config.lambda2 * prototype + config.lambda3 * reg
    return LossBreakdown(bpr, structure, prototype, reg, total), grad
