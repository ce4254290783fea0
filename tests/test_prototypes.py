"""Lloyd's k-means from k random points, and the per-side clustering step."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_kmeans
from concf import EmbeddingTable, e_step, prototypes, run_kmeans
from concf.model import init_embeddings
from concf.numerics import l2_normalize_rows
from concf.prototypes import (
    ROW_BLOCK,
    _Distances,
    _repair_empty_clusters,
    _tile_rows,
)
from concf.seeding import derive_seed
from concf.trainer import STREAM_INIT, STREAM_KMEANS
from reference_kmeans import _pairwise_sqdist


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def two_blobs(n_per_blob=50, d=6, seed=0):
    """Unit-norm points concentrated around two antipodal directions."""
    rng = np.random.default_rng(seed)
    center = unit_rows(rng.standard_normal((1, d)))[0]
    a = unit_rows(center + 0.05 * rng.standard_normal((n_per_blob, d)))
    b = unit_rows(-center + 0.05 * rng.standard_normal((n_per_blob, d)))
    return np.vstack([a, b])


class TestRunKmeans:
    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(0)
        points = unit_rows(rng.standard_normal((8, 4)))
        res = run_kmeans(points, k=8, seed=1)
        assert res.inertia < 1e-20
        assert sorted(res.assignments.tolist()) == list(range(8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [50, 300, 997])
    def test_start_never_repeats_a_point(self, dtype, n):
        # k = n distinct points: only a start without repeats has every point
        # alone in its cluster before any repair, so Lloyd stops at once
        points = unit_rows(np.random.default_rng(n).standard_normal((n, 8))).astype(dtype)
        res = run_kmeans(points, k=n, seed=n)
        assert (np.bincount(res.assignments, minlength=n) == 1).all()
        assert res.n_iters == 1

    def test_k_one_gives_normalized_mean(self):
        rng = np.random.default_rng(1)
        points = unit_rows(rng.standard_normal((20, 5)) + 2.0)
        res = run_kmeans(points, k=1, seed=0)
        mean = points.mean(axis=0)
        np.testing.assert_allclose(res.centroids[0], mean / np.linalg.norm(mean), atol=1e-12)
        assert (res.assignments == 0).all()

    def test_separates_antipodal_blobs(self):
        points = two_blobs()
        res = run_kmeans(points, k=2, seed=3)
        first, second = res.assignments[:50], res.assignments[50:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_matches_exhaustive_partition_oracle(self):
        # brute force over all 2-partitions of 10 points gives the global
        # optimum of the k=2 objective
        points = two_blobs(n_per_blob=5, d=4, seed=7)

        def partition_inertia(mask):
            total = 0.0
            for part in (points[mask], points[~mask]):
                c = part.mean(axis=0)
                total += ((part - c) ** 2).sum()
            return total

        best = np.inf
        for bits in itertools.product([0, 1], repeat=9):
            mask = np.array((1,) + bits, dtype=bool)
            if mask.all() or not mask.any() or (~mask).sum() == 0:
                continue
            best = min(best, partition_inertia(mask))
        # inertia before the final unit-normalization of centroids is what the
        # partition objective measures; recompute it from the assignments
        res = run_kmeans(points, k=2, seed=5)
        measured = 0.0
        for c in range(2):
            part = points[res.assignments == c]
            measured += ((part - part.mean(axis=0)) ** 2).sum()
        assert abs(measured - best) < 1e-9

    def test_assignments_are_nearest_centroid(self):
        rng = np.random.default_rng(4)
        points = unit_rows(rng.standard_normal((60, 5)))
        res = run_kmeans(points, k=6, seed=4)
        d2 = ((points[:, None, :] - res.centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(res.assignments, d2.argmin(axis=1))

    def test_assignment_equals_argmax_cosine(self):
        rng = np.random.default_rng(5)
        points = unit_rows(rng.standard_normal((40, 6)))
        res = run_kmeans(points, k=5, seed=5)
        cos = points @ res.centroids.T
        np.testing.assert_array_equal(res.assignments, cos.argmax(axis=1))

    def test_centroids_unit_norm(self):
        rng = np.random.default_rng(6)
        points = unit_rows(rng.standard_normal((30, 4)))
        res = run_kmeans(points, k=4, seed=6)
        np.testing.assert_allclose(np.linalg.norm(res.centroids, axis=1), 1.0, atol=1e-12)

    def test_centroids_match_cluster_means_at_convergence(self):
        points = two_blobs(n_per_blob=40, d=5, seed=8)
        res = run_kmeans(points, k=2, seed=8, tol=1e-10)
        for c in range(2):
            mean = points[res.assignments == c].mean(axis=0)
            np.testing.assert_allclose(
                res.centroids[c], mean / np.linalg.norm(mean), atol=1e-6
            )

    def test_no_empty_cluster_with_duplicates(self):
        # 30 copies of 3 distinct points, k=3 close to the duplicate count
        base = unit_rows(np.random.default_rng(10).standard_normal((3, 4)))
        points = np.repeat(base, 10, axis=0)
        res = run_kmeans(points, k=3, seed=9)
        assert len(set(res.assignments.tolist())) == 3

    def test_empty_cluster_repair_preserves_k(self):
        # two far duplicated points and k=4 forces repair on two clusters
        points = unit_rows(np.array([[1.0, 0.0]] * 6 + [[-1.0, 0.001]] * 6))
        res = run_kmeans(points, k=4, seed=11)
        counts = np.bincount(res.assignments, minlength=4)
        assert (counts > 0).all()

    def test_k_bounds(self):
        points = unit_rows(np.random.default_rng(0).standard_normal((5, 3)))
        with pytest.raises(ValueError):
            run_kmeans(points, k=6, seed=0)
        with pytest.raises(ValueError):
            run_kmeans(points, k=0, seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(12)
        points = unit_rows(rng.standard_normal((50, 5)))
        a = run_kmeans(points, k=5, seed=42)
        b = run_kmeans(points, k=5, seed=42)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_centroids_keep_points_dtype(self, dtype):
        # three clusters over two tight blobs, with and without duplicate points
        for points in (two_blobs(), np.repeat(two_blobs(n_per_blob=3), 4, axis=0)):
            assert run_kmeans(points.astype(dtype), k=3, seed=0).centroids.dtype == dtype


class TestPairwiseSqdist:
    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        n=st.integers(1, 12),
        k=st.integers(1, 6),
        d=st.integers(1, 5),
        data=st.data(),
    )
    def test_bitwise_equal_to_out_of_place(self, dtype, n, k, d, data):
        # equal and near-equal rows make the clip at zero matter
        floats = st.floats(-4, 4, width=np.finfo(dtype).bits)
        elements = st.one_of(st.just(-0.0), st.just(1.0), floats)
        points = data.draw(hnp.arrays(dtype, (n, d), elements=elements))
        others = data.draw(hnp.arrays(dtype, (k, d), elements=elements))
        centers = np.concatenate([points[:1], others])
        expected = np.maximum(
            np.einsum("ij,ij->i", points, points)[:, None]
            + np.einsum("ij,ij->i", centers, centers)[None, :]
            - 2.0 * points @ centers.T,
            0.0,
        )
        tiles = [d2.copy() for _, _, d2 in _Distances(points, len(centers))._unclipped(centers)]
        got = np.maximum(np.concatenate(tiles), 0.0)
        assert got.dtype == dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, d, k", [(2000, 8, 300), (1100, 24, 514), (700, 16, 700)])
    def test_float64_tiles_keep_untiled_bytes(self, n, d, k):
        # several tiles and k mod 8 != 0: a tile that starts off a 12-row
        # block rounds the last k mod 8 columns of its product differently
        rng = np.random.default_rng(n)
        points = unit_rows(rng.standard_normal((n, d)))
        centers = unit_rows(rng.standard_normal((k, d)))
        distances = _Distances(points, k)
        assert len(distances.tiles) > 1
        expected = distances.sq_norms[:, None] + np.einsum("ij,ij->i", centers, centers)
        expected -= distances.twice_points @ centers.T
        tiles = [d2.copy() for _, _, d2 in distances._unclipped(centers)]
        assert np.concatenate(tiles).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, d, k", [(1, 4, 1), (11, 2, 3), (600, 24, 514), (6040, 64, 1000)])
    def test_tiles_start_on_row_blocks(self, n, d, k):
        tiles = _Distances(np.ones((n, d)), k).tiles
        starts, stops = zip(*tiles)
        assert starts[0] == 0 and stops[-1] == n and starts[1:] == stops[:-1]
        assert all(start % ROW_BLOCK == 0 for start in starts)
        if len(tiles) > 1:
            assert min(stop - start for start, stop in tiles) >= _tile_rows(k, d)


class TestEStep:
    def make_table(self, seed=0):
        rng = np.random.default_rng(seed)
        return EmbeddingTable(12, 15, rng.standard_normal((27, 6)))

    def test_granularity_structure(self):
        protos = e_step(self.make_table(), (4,), (3,), seed=1)
        assert protos.users.centroids.shape == (4, 6)
        assert protos.items.centroids.shape == (3, 6)
        assert len(protos.users.assignments) == 12
        assert len(protos.items.assignments) == 15
        with pytest.raises(ValueError, match=r"^users: must be one cluster count, got \(2, 4\)$"):
            e_step(self.make_table(), (2, 4), (3,), seed=1)
        with pytest.raises(ValueError, match=r"^items: must be one cluster count, got \(\)$"):
            e_step(self.make_table(), (4,), (), seed=1)

    def test_deterministic(self):
        a = e_step(self.make_table(), (3,), (3,), seed=9)
        b = e_step(self.make_table(), (3,), (3,), seed=9)
        np.testing.assert_array_equal(a.users.centroids, b.users.centroids)
        np.testing.assert_array_equal(a.items.assignments, b.items.assignments)

    def test_clusters_normalized_blocks(self):
        table = self.make_table(seed=3)
        protos = e_step(table, (1,), (1,), seed=0)
        xu, _ = l2_normalize_rows(table.user_block)
        mean = xu.mean(axis=0)
        np.testing.assert_allclose(
            protos.users.centroids[0], mean / np.linalg.norm(mean), atol=1e-12
        )

    def test_custom_points_override(self):
        table = self.make_table(seed=4)
        rng = np.random.default_rng(5)
        readout_u = rng.standard_normal((12, 6))
        a = e_step(table, (2,), (2,), seed=3, user_points=readout_u)
        b = e_step(table, (2,), (2,), seed=3)
        assert not np.array_equal(a.users.centroids, b.users.centroids)
        np.testing.assert_array_equal(a.items.centroids, b.items.centroids)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_centroids_keep_table_dtype(self, dtype):
        table = self.make_table(seed=2)
        table.matrix = table.matrix.astype(dtype)
        protos = e_step(table, (4,), (3,), seed=1)
        assert protos.users.centroids.dtype == protos.items.centroids.dtype == np.dtype(dtype)

    def test_zero_norm_row_rejected(self):
        # an item row is named by its index in the item block
        for side, row, side_row in (("users", 2, 2), ("items", 14, 2)):
            table = self.make_table(seed=6)
            table.matrix[row] = 0.0
            with pytest.raises(ValueError, match=f"^{side}: degenerate embedding: zero-norm row "
                                                 f"{side_row}$"):
                e_step(table, (2,), (2,), seed=0)


def reference_repair_empty_clusters(points, centroids, assignments, counts):
    """The repair that re-sorts every distance for each empty cluster and keeps
    a set of stolen points, the reference for the single walk."""
    dist = _pairwise_sqdist(points, centroids)[np.arange(len(points)), assignments]
    stolen = set()
    for empty in np.flatnonzero(counts == 0):
        order = np.argsort(-dist, kind="stable")
        for cand in order:
            cand = int(cand)
            if cand in stolen or counts[assignments[cand]] < 2:
                continue
            counts[assignments[cand]] -= 1
            assignments[cand] = empty
            counts[empty] = 1
            centroids[empty] = points[cand]
            dist[cand] = 0.0
            stolen.add(cand)
            break
        else:
            raise RuntimeError("cannot repair empty cluster: no donatable point")


@st.composite
def repair_cases(draw):
    """Points from a few coordinate values (duplicates and distance ties),
    centroids, and assignments that leave some of the k clusters empty."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, n))
    d = draw(st.integers(1, 3))
    values = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    points = draw(hnp.arrays(dtype, (n, d), elements=values))
    centroids = draw(hnp.arrays(dtype, (k, d), elements=values))
    assignments = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return points, centroids, assignments


def repair_from_points(points, centroids, assignments, counts):
    _repair_empty_clusters(_Distances(points, len(centroids)), centroids, assignments, counts)


def _run_repair(repair, points, centroids, assignments, counts):
    centroids, assignments, counts = centroids.copy(), assignments.copy(), counts.copy()
    try:
        repair(points, centroids, assignments, counts)
    except RuntimeError as exc:
        return str(exc)
    return centroids, assignments, counts


class TestRepairEmptyClusters:
    @settings(max_examples=500, deadline=None)
    @given(repair_cases(), st.integers(0, 2**32 - 1))
    def test_equals_resorting_reference(self, case, zero_seed):
        points, centroids, assignments = case
        k = len(centroids)
        counts = np.bincount(assignments, minlength=k)
        # run_kmeans also zeroes the counts of occupied zero-norm clusters
        for zeroed in (False, True):
            if zeroed:
                counts[np.random.default_rng(zero_seed).random(k) < 0.3] = 0
            got = _run_repair(repair_from_points, points, centroids, assignments, counts)
            want = _run_repair(
                reference_repair_empty_clusters, points, centroids, assignments, counts
            )
            if isinstance(want, str):
                assert got == want
                continue
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(repair_cases())
    def test_no_empty_cluster_and_counts_match(self, case):
        points, centroids, assignments = case
        k = len(centroids)
        counts = np.bincount(assignments, minlength=k)
        repair_from_points(points, centroids, assignments, counts)
        assert (counts > 0).all()
        np.testing.assert_array_equal(counts, np.bincount(assignments, minlength=k))


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_run_kmeans_names_the_row(self, bad):
        points = unit_rows(np.random.default_rng(0).standard_normal((10, 3)))
        points[7, 1] = bad
        with pytest.raises(ValueError, match="^points: row 7 is not finite$"):
            run_kmeans(points, k=3, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_distances_rejected(self):
        # finite points whose squared distances overflow float32
        points = np.full((6, 3), 3e19, dtype=np.float32)
        points[::2] *= -1.0
        with pytest.raises(ValueError, match="squared distances overflow"):
            run_kmeans(points, k=2, seed=0)

    @pytest.mark.parametrize("side, row", [("users", 4), ("items", 15)])
    def test_e_step_names_the_side(self, side, row):
        table = EmbeddingTable(12, 15, np.random.default_rng(1).standard_normal((27, 6)))
        table.matrix[row, 2] = np.nan
        side_row = row if side == "users" else row - 12
        with pytest.raises(ValueError, match=f"^{side}: row {side_row} is not finite$"):
            e_step(table, (2,), (2,), seed=0)


def assert_same_clustering(got, want):
    for field in ("centroids", "assignments"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes(), field
    assert np.float64(got.inertia).tobytes() == np.float64(want.inertia).tobytes()
    assert got.n_iters == want.n_iters


def assert_same_state(got, want):
    assert_same_clustering(got.users, want.users)
    assert_same_clustering(got.items, want.items)


def assert_kmeans_matches_reference(points, k, seed, **kwargs):
    try:
        want = reference_kmeans.run_kmeans(points, k, seed, **kwargs)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=re.escape(str(exc))):
            run_kmeans(points, k, seed, **kwargs)
        return
    assert_same_clustering(run_kmeans(points, k, seed, **kwargs), want)


@st.composite
def kmeans_cases(draw, max_n=1500):
    """Unit-norm points, 1 to 3 tiles of them plus part of a tile where
    ``max_n`` points make that many tiles, and a cluster count from 1 to n."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # tiles are at least 2^17 / k rows, so only a large k gives several
    k = draw(st.one_of(st.integers(1, 600), st.integers(300, 600)))
    d = draw(st.one_of(st.integers(1, 32), st.integers(16, 32)))
    rows = _tile_rows(k, d)
    tiles = draw(st.integers(1, 3)) if 3 * rows <= max_n else 1
    low = max(k, (tiles > 1) * tiles * rows)
    n = draw(st.integers(low, max(low, min((tiles + 1) * rows - 1, max_n))))
    seed = draw(st.integers(0, 2**32 - 1))
    points = unit_rows(np.random.default_rng(seed).standard_normal((n, d))).astype(dtype)
    return points, k, seed


class TestMatchesFrozenReference:
    """Every Clustering field equals the frozen untiled E-step's, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(kmeans_cases())
    def test_random_points(self, case):
        points, k, seed = case
        assert_kmeans_matches_reference(points, k, seed)

    def test_float64_with_k_not_a_multiple_of_8(self):
        # 7 row tiles; had they started off a 12-row block, the last 5
        # columns of a tile's product would round differently
        points = unit_rows(np.random.default_rng(0).standard_normal((997, 32)))
        assert len(_Distances(points, 997).tiles) == 7
        assert_kmeans_matches_reference(points, 997, seed=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_distinct, k", [(1, 1), (1, 4), (3, 5), (3, 30), (40, 60)])
    def test_duplicate_points(self, dtype, n_distinct, k):
        # fewer distinct points than clusters: the start repeats a point, and
        # the empty-cluster repair runs
        base = unit_rows(np.random.default_rng(n_distinct).standard_normal((n_distinct, 4)))
        assert_kmeans_matches_reference(np.repeat(base, 10, axis=0).astype(dtype), k, seed=7)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_antipodal_cluster_repair(self, dtype, monkeypatch):
        # a blob and its mirror image, far from a third: every start puts
        # the two into one cluster, whose mean is zero (exactly: the values
        # are dyadic), so the final repair replaces it by a far point
        blob = np.array([[1.0, 0.5], [1.0, -0.5], [1.0, 0.25]])
        points = np.vstack([blob, -blob, [[0.0, 10.0]] * 4]).astype(dtype)
        calls = []
        repair = prototypes._repair_empty_clusters
        monkeypatch.setattr(
            prototypes, "_repair_empty_clusters", lambda *a: calls.append(1) or repair(*a)
        )
        for seed in range(8):
            assert_kmeans_matches_reference(points, 2, seed)
        assert calls

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_forced_empty_clusters(self, dtype, k):
        points = unit_rows(np.array([[1.0, 0.0]] * 6 + [[-1.0, 0.001]] * 6)).astype(dtype)
        for seed in range(5):
            assert_kmeans_matches_reference(points, k, seed)

    @pytest.mark.parametrize("k, d", [(1, 16), (8, 64), (64, 64), (1000, 64)])
    def test_tile_boundaries(self, k, d):
        # one row short of a whole number of tiles, exactly on it, one row
        # into the next tile (which joins the last), and twice as many plus one
        rows = _tile_rows(k, d)
        tiles = -(-k // rows)
        rng = np.random.default_rng(k)
        for n in (tiles * rows - 1, tiles * rows, tiles * rows + 1, 2 * tiles * rows + 1):
            if n < k:
                continue
            points = unit_rows(rng.standard_normal((n, d))).astype(np.float32)
            assert_kmeans_matches_reference(points, k, seed=n, max_iters=8)

    def test_e_step_on_ml1m_shaped_init_table(self):
        # the first E-step of a default run on the ML-1M shape (6040 users x
        # 3629 items, d=64, K=1000 per side, float32), as the benchmark runs it
        table = init_embeddings(6040, 3629, 64, derive_seed(42, STREAM_INIT), dtype=np.float32)
        seed = derive_seed(42, STREAM_KMEANS, 1)
        got = e_step(table, (1000,), (1000,), seed)
        assert_same_state(got, reference_kmeans.e_step(table, (1000,), (1000,), seed))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_e_step_granularities_and_points(self, dtype):
        rng = np.random.default_rng(3)
        table = EmbeddingTable(40, 50, rng.standard_normal((90, 5)).astype(dtype))
        readout = rng.standard_normal((40, 5)).astype(dtype)
        for kwargs in ({}, {"user_points": readout}):
            got = e_step(table, (7,), (50,), 11, **kwargs)
            assert_same_state(got, reference_kmeans.e_step(table, (7,), (50,), 11, **kwargs))


class TestKmeansMemory:
    """No n x k array: the tracemalloc peak stays within a few tiles of k
    columns plus a few copies of the points, below one n x k float32 array."""

    @pytest.mark.parametrize("n_distinct", [3000, 400])
    def test_peak_below_one_distance_matrix(self, n_distinct):
        import tracemalloc

        n, d, k = 3000, 64, 500
        rng = np.random.default_rng(n_distinct)
        base = unit_rows(rng.standard_normal((n_distinct, d))).astype(np.float32)
        # with 400 distinct rows, most clusters are found empty and repaired
        points = base[np.arange(n) % n_distinct]
        rows = _tile_rows(k, d)
        budget = 2 * points.nbytes + 4 * rows * k * points.itemsize
        assert budget < n * k * points.itemsize
        run_kmeans(points, k, seed=0, max_iters=5)  # warm every code path first
        tracemalloc.start()
        try:
            run_kmeans(points, k, seed=0, max_iters=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget
