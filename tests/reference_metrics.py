"""List-based Recall@N and NDCG@N of one user's ranking, the references that
``concf.evaluator``'s vectorized full-ranking metrics are checked against."""

from __future__ import annotations

import numpy as np


def recall_at_n(ranked: list[int], relevant: set[int], n: int) -> float:
    """|top-n of ranked that are relevant| / |relevant|."""
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    hits = sum(1 for item in ranked[:n] if item in relevant)
    return hits / len(relevant)


def ndcg_at_n(ranked: list[int], relevant: set[int], n: int) -> float:
    """Binary-relevance NDCG with 1/log2(position + 1) gains, positions 1-based."""
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    dcg = 0.0
    for pos, item in enumerate(ranked[:n], start=1):
        if item in relevant:
            dcg += 1.0 / np.log2(pos + 1)
    ideal_hits = min(n, len(relevant))
    idcg = sum(1.0 / np.log2(p + 1) for p in range(1, ideal_hits + 1))
    return dcg / idcg
