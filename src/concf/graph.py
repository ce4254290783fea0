"""Symmetrically normalized bipartite adjacency and its linear propagation kernel."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .dataset import DatasetSplit


@dataclass(eq=False)
class NormalizedAdjacency:
    """Row-compressed symmetric adjacency with 1/sqrt(deg_u * deg_i) weights.

    Node ordering is users [0, n_users) followed by items
    [n_users, n_users + n_items). Column indices are ascending within each
    row, which fixes the per-row summation order.
    """

    n_users: int
    n_items: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        m = sp.csr_matrix(
            (self.weights, self.indices, self.indptr),
            shape=(self.n_nodes, self.n_nodes),
        )
        m.has_sorted_indices = True
        return m


def build_normalized_adjacency(
    split: DatasetSplit, dtype: np.dtype = np.float64
) -> NormalizedAdjacency:
    """Assemble the normalized adjacency from train interactions only.

    Degrees come exclusively from train edges so that evaluation data cannot
    leak into propagation. Zero-degree nodes get empty rows.
    """
    if len(split.train) == 0:
        raise ValueError("cannot build adjacency from an empty train set")
    n_users, n_items = split.n_users, split.n_items
    u = split.train[:, 0].astype(np.int64)
    i = split.train[:, 1].astype(np.int64)
    deg_u = np.bincount(u, minlength=n_users).astype(np.float64)
    deg_i = np.bincount(i, minlength=n_items).astype(np.float64)
    w = (1.0 / np.sqrt(deg_u[u] * deg_i[i])).astype(dtype)

    rows = np.concatenate([u, i + n_users])
    cols = np.concatenate([i + n_users, u])
    data = np.concatenate([w, w])
    coo = sp.coo_matrix((data, (rows, cols)), shape=(n_users + n_items, n_users + n_items))
    csr = coo.tocsr()
    csr.sort_indices()
    return NormalizedAdjacency(
        n_users=n_users,
        n_items=n_items,
        indptr=csr.indptr.astype(np.int64),
        indices=csr.indices.astype(np.int64),
        weights=csr.data,
    )


def propagate(adj: NormalizedAdjacency, z_prev: np.ndarray) -> np.ndarray:
    """One propagation step: z_next[v] = sum over neighbors w of weight(v,w) * z_prev[w].

    No self-loop contribution; rows of zero-degree nodes come out zero.
    """
    z_prev = np.asarray(z_prev)
    if z_prev.shape[0] != adj.n_nodes:
        raise ValueError(
            f"dimension mismatch: adjacency has {adj.n_nodes} nodes, input has {z_prev.shape[0]} rows"
        )
    return adj.matrix @ z_prev
