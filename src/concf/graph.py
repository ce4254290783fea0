"""Symmetrically normalized bipartite adjacency and its linear propagation kernel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dataset import DatasetSplit


@dataclass(eq=False)
class NormalizedAdjacency:
    """Row-compressed symmetric adjacency with 1/sqrt(deg_u * deg_i) weights.

    Node ordering is users [0, n_users) followed by items
    [n_users, n_users + n_items). Column indices are ascending within each
    row, which fixes the per-row summation order. ``matrix`` holds the only
    copy of the arrays; ``indptr``, ``indices`` and ``weights`` are its own.
    """

    n_users: int
    n_items: int
    matrix: sp.csr_matrix

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
    # the user rows, then the item rows of the transpose: column ids ascend per row
    matrix = sp.bmat([[None, upper], [upper.T, None]], format="csr")
    return NormalizedAdjacency(n_users=n_users, n_items=n_items, matrix=matrix)


def propagate(adj: NormalizedAdjacency, z_prev: np.ndarray) -> np.ndarray:
    """One propagation step: z_next[v] = sum over neighbors w of weight(v,w) * z_prev[w].

    No self-loop contribution; rows of zero-degree nodes come out zero. The
    input must have the weights' dtype: a mixed product would silently come
    out in the wider one.
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
    return adj.matrix @ z_prev
