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
    entries' products: the stable argsort lists each row's entries in that
    order, and the CSR kernel forms each product and adds it in that order.
    This holds only while the kernel rounds the product before the addition;
    a SciPy build that fuses ``a*x + y`` into one FMA would differ in the
    last bit wherever a weight is not 1.
    """
    index = np.asarray(index, dtype=np.int64)
    # the same stable order, sorted as the narrowest unsigned type that holds
    # every row id: NumPy radix-sorts 8- and 16-bit keys, about 12x faster
    order = np.argsort(index.astype(np.min_scalar_type(max(n_rows - 1, 0))), kind="stable")
    # SciPy checks int64 indices for a narrower fit on every construction;
    # int32 ones, where they fit, skip that and run the same kernel
    fits = max(len(index), len(values), n_rows) <= np.iinfo(np.int32).max
    id_type = np.int32 if fits else np.int64
    indptr = np.zeros(n_rows + 1, dtype=id_type)
    np.cumsum(np.bincount(index, minlength=n_rows), out=indptr[1:])
    data = np.ones(len(index), dtype=values.dtype) if weights is None else weights[order]
    columns = order if sources is None else np.asarray(sources, dtype=np.int64)[order]
    select = sp.csr_matrix(
        (data, columns.astype(id_type, copy=False), indptr), shape=(n_rows, len(values))
    )
    return select @ values
