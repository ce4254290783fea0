"""Small numerical kernels shared by the loss, clustering and data code."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools


def softplus(x: np.ndarray | float) -> np.ndarray:
    """log(1 + exp(x)), overflow-safe for large |x|."""
    return np.logaddexp(0.0, x)


def l2_normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (x / ||x||, row norms).

    Raises:
        ValueError: if any row has zero norm (degenerate embedding).
    """
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        row = int(np.flatnonzero(norms == 0.0)[0])
        raise ValueError(f"degenerate embedding: zero-norm row {row}")
    return x / norms[:, None], norms


def l2_normalize_backward(grad_y: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Pull a gradient back through y = x / ||x||.

    The result is orthogonal to x row by row: scaling x does not change y.
    """
    inner = np.einsum("ij,ij->i", grad_y, y)
    return (grad_y - inner[:, None] * y) / norms[:, None]


def coo_tocsr(
    rows: np.ndarray, columns: np.ndarray, data: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, indices, indptr)`` of the ``shape`` CSR matrix whose row r
    holds the entries e with ``rows[e] == r`` in input order, each as column
    ``columns[e]`` with value ``data[e]``; duplicates are kept and columns are
    not sorted.

    One stable counting sort, SciPy's ``coo_tocsr``, builds it with no
    comparison of ids. The sort writes where the row ids point, so they are
    checked here; the columns are only copied. The index dtype is scipy's
    choice (int32 unless a count or id exceeds it).
    """
    rows, data = np.asarray(rows), np.asarray(data)
    n_rows, nnz = shape[0], len(rows)
    if nnz and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError(f"row ids must lie in [0, {n_rows})")
    idx = np.int32 if max(*shape, nnz) < 2**31 else np.int64
    indptr, indices, values = np.empty(n_rows + 1, idx), np.empty(nnz, idx), np.empty_like(data)
    columns = np.asarray(columns).astype(idx, copy=False)
    _sparsetools.coo_tocsr(
        n_rows, shape[1], nnz, rows.astype(idx, copy=False), columns, data, indptr, indices, values
    )
    return values, indices, indptr


def grouped_rows(
    rows: np.ndarray, columns: np.ndarray, data: np.ndarray, shape: tuple[int, int]
) -> sp.csr_matrix:
    """``coo_tocsr``'s matrix as a ``csr_matrix``."""
    return sp.csr_matrix(coo_tocsr(rows, columns, data, shape), shape=shape)


def scatter_add_rows(
    index: np.ndarray,
    values: np.ndarray,
    n_rows: int,
    weights: np.ndarray | None = None,
    sources: np.ndarray | None = None,
) -> np.ndarray:
    """``np.add.at(zeros((n_rows, d)), index, weights[:, None] * values[sources])``,
    bit for bit, as one CSR product.

    Entry e adds ``weights[e] * values[sources[e]]`` to row ``index[e]``;
    ``weights`` defaults to ones and ``sources`` to ``arange(len(index))``.
    Row r is the sum, from zero and in the order of ``index``, of its
    entries' products: ``coo_tocsr`` keeps each row's entries in that
    order, and SciPy's CSR kernel, called as ``csr_matrix @ values`` calls
    it (same arguments, same result dtype), forms each product and adds it
    in that order. This holds only while the kernel rounds the product
    before the addition; a SciPy build that fuses ``a*x + y`` into one FMA
    would differ in the last bit wherever a weight is not 1.
    """
    data = np.ones(len(index), dtype=values.dtype) if weights is None else weights
    columns = np.arange(len(index)) if sources is None else sources
    data, indices, indptr = coo_tocsr(index, columns, data, (n_rows, len(values)))
    out = np.zeros((n_rows, values.shape[1]), dtype=np.result_type(data, values))
    _sparsetools.csr_matvecs(n_rows, len(values), values.shape[1], indptr, indices, data,
                             values.ravel(), out.ravel())
    return out
