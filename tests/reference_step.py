"""A frozen out-of-place copy of the training step, the reference that
``total_loss_and_gradient`` must match bit for bit.

It keeps the step's earlier form: the readout as ``np.add.reduce`` of the
stacked layers, the InfoNCE softmax through fresh temporaries, the BPR
gradient scattered by three ``np.add.at`` calls and one zeroed cotangent per
layer. Every addition happens in the same order as in the library, so any
change there that reorders arithmetic shows as a byte difference.
"""

import numpy as np
from scipy.special import expit

from concf.graph import propagate
from concf.numerics import l2_normalize_backward, l2_normalize_rows, softplus
from concf.objectives import LossBreakdown, reg_loss


def infonce(anchors, candidates, targets, tau):
    logits = anchors @ candidates.T / tau
    rows = np.arange(len(anchors))
    m = logits.max(axis=1)
    e = np.exp(logits - m[:, None])
    total = e.sum(axis=1)
    e /= total[:, None]
    lse = m + np.log(total)
    losses = lse - logits[rows, targets]
    e[rows, targets] -= 1.0
    return losses, e


def bpr(readout, n_users, triples, grad_readout, weight):
    users = np.asarray(triples.users, dtype=np.int64)
    pos = np.asarray(triples.pos_items, dtype=np.int64) + n_users
    neg = np.asarray(triples.neg_items, dtype=np.int64) + n_users
    zu, zi, zj = readout[users], readout[pos], readout[neg]
    gaps = np.einsum("ij,ij->i", zu, zi - zj)
    coef = (-expit(-gaps) * weight)[:, None]
    np.add.at(grad_readout, users, coef * (zi - zj))
    np.add.at(grad_readout, pos, coef * zu)
    np.add.at(grad_readout, neg, -coef * zu)
    return float(softplus(-gaps).sum())


def structure(layers, n_users, triples, k_layer, tau, alpha, cot_layers, weight):
    total = 0.0
    sides = (
        (np.asarray(triples.users, dtype=np.int64), 1.0),
        (np.asarray(triples.pos_items, dtype=np.int64) + n_users, alpha),
    )
    for rows, side_weight in sides:
        distinct, counts = np.unique(rows, return_counts=True)
        anchors, anchor_norms = l2_normalize_rows(layers[k_layer][distinct])
        bases, base_norms = l2_normalize_rows(layers[0][distinct])
        counts = counts.astype(anchors.dtype)
        losses, dlogits = infonce(anchors, bases, np.arange(len(distinct)), tau)
        total += side_weight * float(counts @ losses)
        scale = weight * side_weight
        dlogits *= counts[:, None]
        cot_layers[k_layer][distinct] += scale * l2_normalize_backward(
            dlogits @ bases / tau, anchors, anchor_norms
        )
        cot_layers[0][distinct] += scale * l2_normalize_backward(
            dlogits.T @ anchors / tau, bases, base_norms
        )
    return total


def prototype(table, protos, tau, alpha, cot0, weight):
    total = 0.0
    sides = (
        (protos.users, slice(0, table.n_users), 1.0),
        (protos.items, slice(table.n_users, table.n_nodes), alpha),
    )
    for clusterings, block, side_weight in sides:
        points, norms = l2_normalize_rows(table.matrix[block])
        grad_points = np.zeros_like(points)
        side_term = 0.0
        for cl in clusterings:
            losses, dlogits = infonce(points, cl.centroids, cl.assignments, tau)
            side_term += float(losses.sum())
            grad_points += dlogits @ cl.centroids / tau
        side_term /= len(clusterings)
        total += side_weight * side_term
        scale = weight * side_weight / len(clusterings)
        cot0[block] += scale * l2_normalize_backward(grad_points, points, norms)
    return total


def loss_and_gradient(adj, table, triples, protos, config):
    """``total_loss_and_gradient`` as it was before the in-place rewrite."""
    n_layers, n_batch = config.n_layers, len(triples)
    layers = [table.matrix]
    for _ in range(n_layers):
        layers.append(propagate(adj, layers[-1]))
    readout = np.add.reduce(layers) / (n_layers + 1)
    cot_layers = [np.zeros_like(table.matrix) for _ in range(n_layers + 1)]
    grad_readout = np.zeros_like(table.matrix)
    bpr_term = bpr(readout, table.n_users, triples, grad_readout, 1.0 / n_batch) / n_batch
    per_layer = grad_readout / (n_layers + 1)
    for l in range(n_layers + 1):
        cot_layers[l] += per_layer
    structure_term = 0.0
    if config.lambda1 > 0:
        structure_term = structure(
            layers, table.n_users, triples, config.k_layer, config.tau, config.alpha,
            cot_layers, config.lambda1,
        )
    prototype_term = 0.0
    if config.lambda2 > 0:
        prototype_term = prototype(
            table, protos, config.tau, config.alpha, cot_layers[0], config.lambda2
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
    total = (
        bpr_term + config.lambda1 * structure_term + config.lambda2 * prototype_term
        + config.lambda3 * reg
    )
    return LossBreakdown(bpr_term, structure_term, prototype_term, reg, total), grad
