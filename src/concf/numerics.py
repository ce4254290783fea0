"""Small numerical kernels shared by the loss and clustering code."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


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


def scatter_add_rows(index: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """``np.add.at(zeros((n_rows, d)), index, values)``, bit for bit, as one CSR product.

    Row r is the sum, from zero and in the order of ``index``, of the
    ``values`` rows whose index is r: the stable argsort lists each row's
    entries in that order, and the CSR kernel adds them up in that order.
    """
    index = np.asarray(index, dtype=np.int64)
    order = np.argsort(index, kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=n_rows), out=indptr[1:])
    ones = np.ones(len(index), dtype=values.dtype)
    select = sp.csr_matrix((ones, order, indptr), shape=(n_rows, len(index)))
    return select @ values
