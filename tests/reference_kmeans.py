"""A frozen copy of the K-means E-step before it was tiled, the reference
that ``concf.prototypes`` must match bit for bit.

It keeps the earlier form: every Lloyd assignment builds the full n x k
distance matrix and clips it at zero, and k-means++ draws each center with
``Generator.choice``. Every Clustering field of ``run_kmeans`` and ``e_step``
(centroids, assignments, inertia, n_iters) must equal this copy's, so any
change that reorders arithmetic or draws shows as a byte difference.
"""

from __future__ import annotations

import numpy as np

from concf.model import EmbeddingTable
from concf.numerics import l2_normalize_rows, scatter_add_rows
from concf.prototypes import Clustering, PrototypeState
from concf.seeding import derive_seed, rng_stream


def _pairwise_sqdist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, clipped at zero against rounding."""
    return _sqdist(np.einsum("ij,ij->i", points, points), 2.0 * points, centers)


def _sqdist(sq_norms: np.ndarray, twice_points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``_pairwise_sqdist`` from the points' squared norms and ``2.0 * points``."""
    d2 = np.add(sq_norms[:, None], np.einsum("ij,ij->i", centers, centers)[None, :])
    d2 -= twice_points @ centers.T
    return np.maximum(d2, 0.0, out=d2)


def _plusplus_seeding(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ start: spread initial centers proportionally to squared distance."""
    n = len(points)
    # the point-side parts of every distance update, computed once
    sq_norms = np.einsum("ij,ij->i", points, points)
    twice_points = 2.0 * points
    chosen = [int(rng.integers(n))]
    d2 = _sqdist(sq_norms, twice_points, points[chosen[-1]][None, :])[:, 0]
    for _ in range(k - 1):
        total = d2.sum()
        if total <= 0.0:
            # remaining mass is all duplicates of chosen points; fall back to
            # uniform choice among indices not picked yet
            candidates = np.setdiff1d(np.arange(n), np.array(chosen))
            pick = int(candidates[rng.integers(len(candidates))])
        else:
            pick = int(rng.choice(n, p=d2 / total))
        chosen.append(pick)
        d2 = np.minimum(d2, _sqdist(sq_norms, twice_points, points[pick][None, :])[:, 0])
    return points[np.array(chosen)].copy()


def _repair_empty_clusters(
    points: np.ndarray,
    centroids: np.ndarray,
    assignments: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Give each empty cluster the point currently farthest from its centroid.

    Only points whose cluster keeps >= 2 members may be stolen, so the repair
    never empties another cluster. Mutates all arrays in place.
    """
    dist = _pairwise_sqdist(points, centroids)[np.arange(len(points)), assignments]
    # counts only fall and a stolen point sits alone in its cluster, so a point
    # passed over once never becomes donatable: one walk serves every empty cluster
    candidates = iter(np.argsort(-dist, kind="stable"))
    for empty in np.flatnonzero(counts == 0):
        for cand in candidates:
            if counts[assignments[cand]] >= 2:
                break
        else:
            raise RuntimeError("cannot repair empty cluster: no donatable point")
        counts[assignments[cand]] -= 1
        assignments[cand] = empty
        counts[empty] = 1
        centroids[empty] = points[cand]


def _update_centroids(
    points: np.ndarray, assignments: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    sums = scatter_add_rows(assignments, points, k)
    counts = np.bincount(assignments, minlength=k)
    divisor = np.maximum(counts, 1).astype(points.dtype)[:, None]
    centroids = np.where(counts[:, None] > 0, sums / divisor, 0.0)
    return centroids, counts


def run_kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding on unit-norm points.

    Stops when the max-norm centroid shift falls below tol or after
    max_iters. Converged centroids are re-normalized to unit length and
    assignments recomputed against them, so downstream cosine and Euclidean
    nearest-centroid views agree.
    """
    points = np.asarray(points)
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = rng_stream(seed)
    centroids = _plusplus_seeding(points, k, rng)
    history: list[float] = []
    n_iters = 0
    for n_iters in range(1, max_iters + 1):
        d2 = _pairwise_sqdist(points, centroids)
        assignments = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), assignments].sum()))
        new_centroids, counts = _update_centroids(points, assignments, k)
        if np.any(counts == 0):
            _repair_empty_clusters(points, new_centroids, assignments, counts)
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < tol:
            break

    # zero-norm centroids (mean of an antipodal cluster) cannot be normalized;
    # treat them like empty clusters and steal a far point
    norms = np.linalg.norm(centroids, axis=1)
    if np.any(norms < 1e-12):
        counts = np.bincount(assignments, minlength=k)
        counts[norms < 1e-12] = 0
        _repair_empty_clusters(points, centroids, assignments, counts)
        norms = np.linalg.norm(centroids, axis=1)
    centroids = centroids / norms[:, None]

    d2 = _pairwise_sqdist(points, centroids)
    assignments = np.argmin(d2, axis=1)
    counts = np.bincount(assignments, minlength=k)
    if np.any(counts == 0):
        _repair_empty_clusters(points, centroids, assignments, counts)
        d2 = _pairwise_sqdist(points, centroids)
    inertia = float(d2[np.arange(n), assignments].sum())
    return Clustering(
        centroids=centroids,
        assignments=assignments.astype(np.int64),
        inertia=inertia,
        n_iters=n_iters,
    )


def e_step(
    table: EmbeddingTable,
    k_users: tuple[int, ...],
    k_items: tuple[int, ...],
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    user_points: np.ndarray | None = None,
    item_points: np.ndarray | None = None,
) -> PrototypeState:
    """Cluster the L2-normalized user and item blocks at each granularity.

    ``user_points``/``item_points`` override the clustered representation
    (e.g. readout rows instead of the base table); defaults are the raw
    embedding blocks.
    """
    xu, _ = l2_normalize_rows(user_points if user_points is not None else table.user_block)
    xi, _ = l2_normalize_rows(item_points if item_points is not None else table.item_block)

    def _side(points: np.ndarray, ks: tuple[int, ...], tag: int) -> tuple[Clustering, ...]:
        return tuple(
            run_kmeans(points, k, derive_seed(seed, tag, m), max_iters=max_iters, tol=tol)
            for m, k in enumerate(ks)
        )

    return PrototypeState(users=_side(xu, tuple(k_users), 0), items=_side(xi, tuple(k_items), 1))
