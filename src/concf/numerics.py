"""Small numerical kernels shared by the loss and clustering code."""

from __future__ import annotations

import numpy as np


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


def row_logsumexp_softmax(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(logsumexp, softmax) along axis 1 from one shift-stabilized exp pass."""
    m = s.max(axis=1)
    e = np.exp(s - m[:, None])
    total = e.sum(axis=1)
    e /= total[:, None]
    return m + np.log(total), e
