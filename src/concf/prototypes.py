"""K-means prototypes over user and item embeddings (the E-step)."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import EmbeddingTable
from .numerics import l2_normalize_rows, scatter_add_rows
from .seeding import derive_seed, rng_stream


@dataclass(frozen=True)
class Clustering:
    """Unit-norm centroids (one row per cluster, so K is ``len(centroids)``),
    each point's centroid index, the final inertia (summed squared distance
    of the points to their centroids) and the Lloyd iterations run."""

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iters: int = 0

    def __post_init__(self) -> None:
        k = len(self.centroids)
        if self.assignments.min(initial=0) < 0 or self.assignments.max(initial=-1) >= k:
            raise ValueError("assignment index out of range")


@dataclass(frozen=True)
class PrototypeState:
    """One clustering per side: the user block's and the item block's."""

    users: Clustering
    items: Clustering


# Row tiles of an n x k distance matrix. Each tile's product must run on the
# BLAS kernel and row blocks the untiled product runs on: OpenBLAS sends a
# 1-row product to gemv and one of 69,632 multiply-adds to its small-matrix
# kernel, and 0.3.31's SkylakeX dgemm rounds the last k mod 8 columns by the
# width of their 12-row block. So a tile has MIN_TILE_WORK multiply-adds or
# more, starts on a multiple of ROW_BLOCK rows and, but for the last, holds
# one; at one BLAS thread (concf's) the tiles then give the untiled bytes.
# Above that, a tile holds about TILE_ENTRIES distances, so that its sums and
# products buffers stay in a 2 MB L2.
MIN_TILE_WORK = 2**21
TILE_ENTRIES = 2**17
ROW_BLOCK = 12


def _tile_rows(k: int, d: int) -> int:
    """Rows of a full tile of an n x d by d x k product, by the rule above."""
    rows = max(-(-MIN_TILE_WORK // max(k * d, 1)), -(-TILE_ENTRIES // k))
    return -(-rows // ROW_BLOCK) * ROW_BLOCK


class _Distances:
    """Squared Euclidean distances from fixed points to k centers, clipped at
    zero against rounding.

    The points' squared norms and ``2.0 * points`` are computed once. Each
    row tile is ``(|x|^2 + |c|^2) - (2x) @ c.T``, formed in one reused pair
    of tile x k buffers on the calling thread, so no n x k array is ever
    allocated.
    """

    def __init__(self, points: np.ndarray, k: int) -> None:
        n, d = points.shape
        self.points = points
        self.sq_norms = np.einsum("ij,ij->i", points, points)
        self.twice_points = 2.0 * points
        count = max(n // _tile_rows(k, d), 1)
        bounds = [ROW_BLOCK * (i * (n // ROW_BLOCK) // count) for i in range(count)] + [n]
        self.tiles = list(zip(bounds[:-1], bounds[1:]))
        longest = max(stop - start for start, stop in self.tiles)
        self.sums = np.empty((longest, k), dtype=self.sq_norms.dtype)
        self.products = np.empty_like(self.sums)
        self.rows = np.arange(longest)

    def _unclipped(self, centers: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield each tile's ``(start, stop, d2)`` before the clip at zero."""
        center_sq = np.einsum("ij,ij->i", centers, centers)
        for start, stop in self.tiles:
            m = stop - start
            d2 = np.add(self.sq_norms[start:stop, None], center_sq, out=self.sums[:m])
            d2 -= np.matmul(self.twice_points[start:stop], centers.T, out=self.products[:m])
            yield start, stop, d2

    def nearest(self, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each point's nearest center (the first on a tie) and its distance."""
        n = len(self.sq_norms)
        assignments = np.empty(n, dtype=np.intp)
        dist = np.empty(n, dtype=self.sq_norms.dtype)
        for start, stop, d2 in self._unclipped(centers):
            np.maximum(d2, 0.0, out=d2)
            nearest = np.argmin(d2, axis=1, out=assignments[start:stop])
            dist[start:stop] = d2[self.rows[: stop - start], nearest]
        return assignments, dist

    def assigned(self, centers: np.ndarray, assignments: np.ndarray) -> np.ndarray:
        """Each point's distance to the center it is assigned to."""
        dist = np.empty(len(self.sq_norms), dtype=self.sq_norms.dtype)
        for start, stop, d2 in self._unclipped(centers):
            dist[start:stop] = d2[self.rows[: stop - start], assignments[start:stop]]
        return np.maximum(dist, 0.0, out=dist)


def _check_finite(points: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first row of ``points`` with a NaN or inf."""
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise ValueError(f"{name}: row {int(np.argmin(finite))} is not finite")


def _repair_empty_clusters(
    distances: _Distances,
    centroids: np.ndarray,
    assignments: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Give each empty cluster the point currently farthest from its centroid.

    Only points whose cluster keeps >= 2 members may be stolen, so the repair
    never empties another cluster. Mutates all arrays but the points in place.
    """
    points = distances.points
    dist = distances.assigned(centroids, assignments)
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
    """Lloyd's algorithm on unit-norm points, started from k distinct random points.

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
    _check_finite(points, "points")
    distances = _Distances(points, k)
    # centers are points, their means or unit vectors: no distance exceeds 4 max(|x|^2, 1)
    if not distances.sq_norms.max() <= np.finfo(distances.sq_norms.dtype).max / 4:
        raise ValueError("points: squared distances overflow")
    centroids = points[rng_stream(seed).choice(n, k, replace=False)].copy()
    for n_iters in range(1, max_iters + 1):
        assignments, _ = distances.nearest(centroids)
        new_centroids, counts = _update_centroids(points, assignments, k)
        if np.any(counts == 0):
            _repair_empty_clusters(distances, new_centroids, assignments, counts)
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
        _repair_empty_clusters(distances, centroids, assignments, counts)
        norms = np.linalg.norm(centroids, axis=1)
    centroids = centroids / norms[:, None]

    assignments, dist = distances.nearest(centroids)
    counts = np.bincount(assignments, minlength=k)
    if np.any(counts == 0):
        _repair_empty_clusters(distances, centroids, assignments, counts)
        dist = distances.assigned(centroids, assignments)
    inertia = float(dist.sum())
    return Clustering(
        centroids=centroids,
        assignments=assignments.astype(np.int64),
        inertia=inertia,
        n_iters=n_iters,
    )


def _side_points(name: str, points: np.ndarray, ks: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """A side's unit-norm points and its one K; errors name the side."""
    if len(ks) != 1:
        raise ValueError(f"{name}: must be one cluster count, got {tuple(ks)}")
    _check_finite(points, name)
    try:
        unit, _ = l2_normalize_rows(points)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return unit, ks[0]


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
    """Cluster the L2-normalized user and item blocks, each into its one K.

    ``k_users``/``k_items`` are one-entry tuples, as ``TrainConfig`` holds
    them. ``user_points``/``item_points`` replace a side's points (the
    trainer always clusters the embedding blocks, the default). Both sides
    are checked before either is clustered.
    """
    user_points = table.user_block if user_points is None else user_points
    item_points = table.item_block if item_points is None else item_points
    xu, ku = _side_points("users", user_points, k_users)
    xi, ki = _side_points("items", item_points, k_items)
    return PrototypeState(
        users=run_kmeans(xu, ku, derive_seed(seed, 0, 0), max_iters=max_iters, tol=tol),
        items=run_kmeans(xi, ki, derive_seed(seed, 1, 0), max_iters=max_iters, tol=tol),
    )

