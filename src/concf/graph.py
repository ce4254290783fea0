"""Symmetrically normalized bipartite adjacency and its linear propagation kernel."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import overlap
from .dataset import DatasetSplit


@dataclass(eq=False)
class NormalizedAdjacency:
    """Row-compressed symmetric adjacency with 1/sqrt(deg_u * deg_i) weights.

    Node ordering is users [0, n_users) followed by items
    [n_users, n_users + n_items). Column indices are ascending within each
    row, which fixes the per-row summation order. ``indptr``, ``indices``
    and ``weights`` are ``matrix``'s own arrays. ``user_rows`` and
    ``item_rows`` are the matrix's user and item rows as CSR matrices whose
    entries are views of ``matrix``'s; the graph is bipartite, so each holds
    one entry per train pair, and only the item half's shifted ``indptr``
    is new.
    """

    n_users: int
    n_items: int
    matrix: sp.csr_matrix
    user_rows: sp.csr_matrix = field(init=False, repr=False)
    item_rows: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m, n = self.matrix, self.n_users
        cut = int(m.indptr[n])
        self.user_rows = sp.csr_matrix(
            (m.data[:cut], m.indices[:cut], m.indptr[: n + 1]), shape=(n, self.n_nodes)
        )
        self.item_rows = sp.csr_matrix(
            (m.data[cut:], m.indices[cut:], m.indptr[n:] - cut), shape=(self.n_items, self.n_nodes)
        )

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def indptr(self) -> np.ndarray:
        return self.matrix.indptr

    @property
    def indices(self) -> np.ndarray:
        return self.matrix.indices

    @property
    def weights(self) -> np.ndarray:
        return self.matrix.data


def build_normalized_adjacency(
    split: DatasetSplit, dtype: np.dtype = np.float64
) -> NormalizedAdjacency:
    """Assemble the normalized adjacency from train interactions only.

    Degrees come exclusively from train edges so that evaluation data cannot
    leak into propagation. Zero-degree nodes get empty rows.

    The user rows are the train matrix's rows with shifted column ids; the
    item rows are its transpose, which a stable counting sort builds with
    user ids ascending. The index dtype is scipy's choice for the whole
    matrix (int32 unless a count or id exceeds it).
    """
    if split.train_matrix.nnz == 0:
        raise ValueError("cannot build adjacency from an empty train set")
    n_users, n_items = split.n_users, split.n_items
    pairs = split.train_matrix
    deg_u = np.diff(pairs.indptr)
    deg_i = np.bincount(pairs.indices, minlength=n_items)
    u = np.repeat(np.arange(n_users), deg_u)
    w = (1.0 / np.sqrt(deg_u[u].astype(np.float64) * deg_i[pairs.indices])).astype(dtype)
    upper = sp.csr_matrix((w, pairs.indices, pairs.indptr), shape=(n_users, n_items))
    lower = upper.T.tocsr()
    n, nnz = n_users + n_items, upper.nnz
    idx = np.int32 if max(n, 2 * nnz) < 2**31 else np.int64  # scipy's choice
    # the user rows, then the item rows: column ids ascend per row; the
    # shifted indptr is int64 so that it cannot wrap
    matrix = sp.csr_matrix(
        (
            np.concatenate([w, lower.data]),
            np.concatenate([np.add(upper.indices, n_users, dtype=idx), lower.indices]),
            np.concatenate([upper.indptr, lower.indptr[1:] + np.int64(nnz)]).astype(idx),
        ),
        shape=(n, n),
    )
    return NormalizedAdjacency(n_users=n_users, n_items=n_items, matrix=matrix)


def _add_product(rows: sp.csr_matrix, z: np.ndarray, out: np.ndarray) -> None:
    """Add ``rows @ z`` into the C-contiguous ``out`` with the CSR kernel
    ``matrix @ z`` runs, which releases the GIL and sums each row on its own."""
    _sparsetools.csr_matvecs(
        rows.shape[0], rows.shape[1], z.shape[1], rows.indptr, rows.indices, rows.data,
        z.ravel(), out.ravel(),
    )


def propagate(adj: NormalizedAdjacency, z_prev: np.ndarray) -> np.ndarray:
    """One propagation step: z_next[v] = sum over neighbors w of weight(v,w) * z_prev[w].

    No self-loop contribution; rows of zero-degree nodes come out zero. The
    input must have the weights' dtype: a mixed product would silently come
    out in the wider one.

    When its ``adj.nnz * d`` multiply-adds open ``overlap``'s gate, the
    product runs in two halves that write into one output: the item rows on
    the worker, the user rows on the calling thread. Each output row is
    summed as the whole product sums it, so the bytes are the same.
    """
    z_prev = np.asarray(z_prev)
    if z_prev.shape[0] != adj.n_nodes:
        raise ValueError(
            f"dimension mismatch: adjacency has {adj.n_nodes} nodes, input has {z_prev.shape[0]} rows"
        )
    if z_prev.dtype != adj.weights.dtype:
        raise ValueError(
            f"dtype mismatch: adjacency weights are {adj.weights.dtype}, input is {z_prev.dtype}"
        )
    start = overlap.start_for(adj.nnz * z_prev.shape[1]) if z_prev.ndim == 2 else None
    if start is None:
        return adj.matrix @ z_prev
    z = np.ascontiguousarray(z_prev)
    out = np.zeros_like(z)
    n = adj.n_users
    job = start(_add_product, adj.item_rows, z, out[n:])
    overlap.in_halves(job, _add_product, (adj.user_rows, z, out[:n]))
    return out
