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
runs two jobs on one worker thread while the calling thread does the rest of
the step: the prototype term beside the forward propagation, and the first
backward product beside the structure term. Each job is the same
computation on the same full-size operands as the serial step, and the
calling thread adds each job's result into the cotangents in the serial order,
so the step's losses and gradient do not depend on whether the worker ran.
"""

from __future__ import annotations

import contextlib
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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


def _infonce(
    anchors: np.ndarray,
    candidates: np.ndarray,
    targets: np.ndarray,
    tau: float,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """InfoNCE of each anchor row against every candidate, its positive being
    ``candidates[targets[i]]``.

    Returns the per-row losses and their gradient w.r.t. the logits
    ``anchors @ candidates.T / tau`` (softmax minus one-hot). The gradient is
    computed in ``out`` when given, a C-contiguous (anchors, candidates)
    array of the product's dtype, and in a new array otherwise.
    """
    logits = np.matmul(anchors, candidates.T, out=out)
    logits /= tau
    rows = np.arange(len(anchors))
    positive = logits[rows, targets]
    # shift-stabilized logsumexp and softmax, in place on the logits
    m = logits.max(axis=1)
    logits -= m[:, None]
    np.exp(logits, out=logits)
    total = logits.sum(axis=1)
    logits /= total[:, None]
    logits[rows, targets] -= 1.0
    return m + np.log(total) - positive, logits


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
        distinct, counts = np.unique(rows, return_counts=True)
        anchors, anchor_norms = l2_normalize_rows(fp.layers[k_layer][distinct])
        bases, base_norms = l2_normalize_rows(fp.layers[0][distinct])
        counts = counts.astype(anchors.dtype)
        losses, dlogits = _infonce(anchors, bases, np.arange(len(distinct)), tau)
        total += side_weight * float(counts @ losses)
        if cot_layers is not None:
            scale = weight * side_weight
            dlogits *= counts[:, None]
            cot_layers[k_layer][distinct] += scale * l2_normalize_backward(
                dlogits @ bases / tau, anchors, anchor_norms
            )
            cot_layers[0][distinct] += scale * l2_normalize_backward(
                dlogits.T @ anchors / tau, bases, base_norms
            )
    return total


def prototype_contrastive_loss(
    table: EmbeddingTable,
    protos: PrototypeState,
    tau: float,
    alpha: float = 1.0,
    cot: np.ndarray | None = None,
    weight: float = 1.0,
    logits: np.ndarray | None = None,
) -> float:
    """Prototype-contrastive loss summed over the full population.

    Every node's normalized base embedding is contrasted with its assigned
    centroid against all centroids of its side's clustering; the item side
    is weighted by ``alpha``. Centroids are constants: no gradient flows
    into them. With ``cot``, ``weight`` times the loss's gradient w.r.t. the
    table is added into it. ``logits``, a flat buffer of the logits' dtype
    with room for either side's nodes times its centroids, holds the logits
    in place of a new array per side.
    """
    if tau <= 0:
        raise ValueError("tau: must be > 0")
    total = 0.0
    sides = (
        (protos.users, slice(0, table.n_users), 1.0),
        (protos.items, slice(table.n_users, table.n_nodes), alpha),
    )
    for cl, block, side_weight in sides:
        points, norms = l2_normalize_rows(table.matrix[block])
        n = len(points)
        if len(cl.assignments) != n:
            raise ValueError(f"clustering has {len(cl.assignments)} assignments for {n} nodes")
        out = None
        if logits is not None:
            out = logits[: n * len(cl.centroids)].reshape(n, len(cl.centroids))
        losses, dlogits = _infonce(points, cl.centroids, cl.assignments, tau, out)
        total += side_weight * float(losses.sum())
        if cot is not None:
            grad_points = dlogits @ cl.centroids / tau
            cot[block] += weight * side_weight * l2_normalize_backward(grad_points, points, norms)
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
    distinct = np.unique(ids)
    rows = table.matrix[distinct]
    if cot is not None:
        cot[distinct] += weight * rows
    return float(0.5 * np.einsum("ij,ij->", rows, rows))


# A step hands two jobs to its worker only when propagation is at least this
# many multiply-adds (adj.nnz * d). On scaled ML-1M-shaped graphs the worker
# first paid off between 3.1M (no gain) and 8.3M (1.2x) on two free cores,
# and cost 1-9% at every size when the second core was busy; the planted
# criterion-7 job is 0.63M and ML-1M 82M.
OVERLAP_MIN_WORK = 1 << 24

# one single-thread pool per process: a forked child cannot use its parent's
_WORKERS: dict[int, ThreadPoolExecutor] = {}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _step_worker(adj: NormalizedAdjacency, d: int) -> ThreadPoolExecutor | None:
    """The worker a step on ``adj`` with width ``d`` hands its jobs to, or None to run them inline."""
    if adj.nnz * d < OVERLAP_MIN_WORK or _usable_cpus() < 2:
        return None
    pid = os.getpid()
    worker = _WORKERS.get(pid)
    if worker is None:
        # a pool starts its thread at the first submit, so losing this race starts none
        worker = _WORKERS.setdefault(
            pid, ThreadPoolExecutor(max_workers=1, thread_name_prefix="concf-step")
        )
    return worker


class _Deferred:
    """A job that runs on the calling thread when its result is asked for."""

    def __init__(self, fn, *args) -> None:
        self._call = functools.partial(fn, *args)

    def result(self):
        return self._call()

    def cancel(self) -> bool:
        return True


def _this_cpu() -> int | None:
    """The CPU the calling thread is running on, where Linux's procfs says."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            # field 39, counted after the parenthesized command name
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _kept_to(cpus: set[int], err: dict[str, str], fn, *args):
    """``fn(*args)`` under NumPy error handling ``err``, on a thread allowed
    only ``cpus`` when that set is not empty."""
    if cpus:
        with contextlib.suppress(OSError):  # the process's CPUs changed meanwhile
            os.sched_setaffinity(0, cpus)
    with np.errstate(**err):
        return fn(*args)


def _start(worker: ThreadPoolExecutor | None, fn, *args):
    """``fn(*args)`` as a future on ``worker``, or deferred to its ``result()`` without one.

    The worker is kept off the calling thread's CPU: Linux would at times
    wake it there and leave both threads sharing one CPU for a whole job
    while another stood idle. It runs the job under the calling thread's
    NumPy error handling, which is per thread.
    """
    if worker is None:
        return _Deferred(fn, *args)
    cpus = os.sched_getaffinity(0) - {_this_cpu()} if hasattr(os, "sched_setaffinity") else set()
    return worker.submit(_kept_to, cpus, np.geterr(), fn, *args)


def _logits_buffer(table: EmbeddingTable, protos: PrototypeState) -> np.ndarray:
    """The prototype term's logits buffer, allocated on the calling thread: glibc
    gives the worker its own malloc arena, and logits allocated there raised
    the ML-1M peak RSS by 12%."""
    cu, ci = protos.users.centroids, protos.items.centroids
    size = max(table.n_users * len(cu), table.n_items * len(ci))
    return np.empty(size, dtype=np.result_type(table.matrix, cu, ci))


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
    ``OVERLAP_MIN_WORK`` and two CPUs are usable, the prototype term and the
    first backward product run on the worker thread, with the same bytes.
    """
    if len(triples) == 0:
        raise ValueError("empty triple batch")
    if config.lambda2 > 0 and protos is None:
        raise ValueError("lambda2 > 0 requires a prototype state")
    n_batch = len(triples)
    n_layers = config.n_layers
    worker = _step_worker(adj, table.matrix.shape[1])
    proto_job = first_product = None
    try:
        if config.lambda2 > 0:
            proto_cot = np.zeros_like(table.matrix)
            proto_job = _start(
                worker, prototype_contrastive_loss, table, protos, config.tau, config.alpha,
                proto_cot, config.lambda2, _logits_buffer(table, protos),
            )
        fp = forward(adj, table, n_layers)

        grad_readout = np.zeros_like(table.matrix)
        bpr = bpr_loss(fp, triples, grad_readout, weight=1.0 / n_batch) / n_batch
        # readout is the uniform layer average, so its cotangent spreads evenly;
        # only layers 0 and k_layer receive more terms, the others share this one
        grad_readout /= n_layers + 1
        cot_layers = [grad_readout] * (n_layers + 1)
        cot_layers[0] = grad_readout.copy()
        cot_layers[config.k_layer] = grad_readout.copy()
        # the top layer's cotangent is final now unless the structure term adds to it
        first_product = _start(
            worker if config.k_layer != n_layers else None,
            propagate, adj, cot_layers[n_layers],
        )

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
