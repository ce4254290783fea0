"""Normalized adjacency construction and the sparse propagation kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concf import (
    RawInteractions,
    build_normalized_adjacency,
    build_split,
    propagate,
)

from conftest import random_split


def split_from_pairs(pairs, ratios=(1.0, 0.0, 0.0)):
    raw = RawInteractions(
        users=tuple(f"u{u}" for u, _ in pairs),
        items=tuple(f"i{i}" for _, i in pairs),
    )
    return build_split(raw, ratios=ratios, seed=0)


def dense_adjacency(split):
    """Independent oracle: materialize the normalized adjacency densely."""
    n = split.n_users + split.n_items
    deg_u = np.bincount(split.train[:, 0], minlength=split.n_users)
    deg_i = np.bincount(split.train[:, 1], minlength=split.n_items)
    dense = np.zeros((n, n))
    for u, i in split.train:
        w = 1.0 / np.sqrt(deg_u[u] * deg_i[i])
        dense[u, split.n_users + i] = w
        dense[split.n_users + i, u] = w
    return dense


class TestBuildNormalizedAdjacency:
    def test_single_edge_unit_weight(self):
        adj = build_normalized_adjacency(split_from_pairs([(0, 0)]))
        assert adj.nnz == 2
        np.testing.assert_allclose(adj.weights, 1.0)

    def test_two_items_one_user(self):
        adj = build_normalized_adjacency(split_from_pairs([(0, 0), (0, 1)]))
        # user degree 2, item degrees 1: weight = 1/sqrt(2)
        np.testing.assert_allclose(adj.weights, 0.7071067811865475)

    def test_complete_bipartite_3x3(self):
        pairs = [(u, i) for u in range(3) for i in range(3)]
        adj = build_normalized_adjacency(split_from_pairs(pairs))
        np.testing.assert_allclose(adj.weights, 1.0 / 3.0)

    def test_weight_symmetry(self, small_adj):
        m = small_adj.matrix
        assert abs(m - m.T).max() == 0.0

    def test_bipartite_rows(self, small_adj):
        nu = small_adj.n_users
        for v in range(small_adj.n_nodes):
            cols = small_adj.indices[small_adj.indptr[v]:small_adj.indptr[v + 1]]
            if v < nu:
                assert (cols >= nu).all()
            else:
                assert (cols < nu).all()

    def test_weights_in_unit_interval(self, small_adj):
        assert (small_adj.weights > 0).all() and (small_adj.weights <= 1).all()

    def test_row_count_equals_degree(self, small_split, small_adj):
        deg = small_split.train_degrees()
        rows = np.diff(small_adj.indptr)[: small_split.n_users]
        np.testing.assert_array_equal(rows, deg)

    def test_degrees_from_train_only(self, small_split):
        adj = build_normalized_adjacency(small_split)
        assert adj.nnz == 2 * len(small_split.train)

    def test_sorted_indices_per_row(self, small_adj):
        for v in range(small_adj.n_nodes):
            cols = small_adj.indices[small_adj.indptr[v]:small_adj.indptr[v + 1]]
            assert (np.diff(cols) > 0).all()

    def test_empty_train_rejected(self, small_split):
        import dataclasses

        empty = dataclasses.replace(
            small_split, train=np.empty((0, 2), dtype=np.int64)
        )
        with pytest.raises(ValueError, match="empty train"):
            build_normalized_adjacency(empty)


class TestPropagate:
    def test_single_edge_copies_neighbor(self):
        split = split_from_pairs([(0, 0)])
        adj = build_normalized_adjacency(split)
        z = np.array([[1.0, 2.0], [5.0, -1.0]])
        out = propagate(adj, z)
        np.testing.assert_allclose(out[0], z[1])
        np.testing.assert_allclose(out[1], z[0])

    def test_zero_in_zero_out(self, small_adj):
        out = propagate(small_adj, np.zeros((small_adj.n_nodes, 4)))
        assert (out == 0).all()

    def test_matches_dense_oracle(self):
        for seed in range(5):
            split = random_split(6, 7, 18, seed=seed)
            adj = build_normalized_adjacency(split)
            dense = dense_adjacency(split)
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((adj.n_nodes, 4))
            np.testing.assert_allclose(propagate(adj, z), dense @ z, atol=1e-12)

    def test_dimension_mismatch(self, small_adj):
        with pytest.raises(ValueError, match="dimension mismatch"):
            propagate(small_adj, np.zeros((3, 4)))

    def test_zero_degree_node_row_is_zero(self):
        # item i1 never appears in train, so its row propagates to zero
        raw = RawInteractions(users=("u0", "u0"), items=("i0", "i1"))
        split = build_split(raw, ratios=(0.5, 0.5, 0.0), seed=0)
        adj = build_normalized_adjacency(split)
        z = np.ones((adj.n_nodes, 3))
        out = propagate(adj, z)
        empty_rows = np.flatnonzero(np.diff(adj.indptr) == 0)
        assert len(empty_rows) == 1
        assert (out[empty_rows] == 0).all()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_linearity(self, seed):
        split = random_split(5, 6, 14, seed=seed % 100)
        adj = build_normalized_adjacency(split)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((adj.n_nodes, 3))
        y = rng.standard_normal((adj.n_nodes, 3))
        a, b = rng.standard_normal(2)
        lhs = propagate(adj, a * x + b * y)
        rhs = a * propagate(adj, x) + b * propagate(adj, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_adjoint_identity(self, small_adj):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal((small_adj.n_nodes, 5))
            y = rng.standard_normal((small_adj.n_nodes, 5))
            lhs = float((propagate(small_adj, x) * y).sum())
            rhs = float((x * propagate(small_adj, y)).sum())
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_even_power_user_block_closure(self, small_adj):
        # two hops from a user land on users: item rows of the input cannot
        # influence user rows of propagate(propagate(.))
        rng = np.random.default_rng(5)
        z = rng.standard_normal((small_adj.n_nodes, 4))
        z_zeroed = z.copy()
        z_zeroed[small_adj.n_users:] = 0.0
        two_hop = propagate(small_adj, propagate(small_adj, z))
        two_hop_zeroed = propagate(small_adj, propagate(small_adj, z_zeroed))
        nu = small_adj.n_users
        np.testing.assert_allclose(two_hop[:nu], two_hop_zeroed[:nu], atol=1e-12)
