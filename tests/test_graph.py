"""Normalized adjacency construction and the sparse propagation kernel."""

import os
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from concf import (
    DatasetSplit,
    build_normalized_adjacency,
    build_split,
    graph,
    overlap,
    propagate,
)

from conftest import from_keys, open_worker_gate, planted_communities, random_split


def split_from_pairs(pairs, ratios=(1.0, 0.0, 0.0)):
    raw = from_keys([f"u{u}" for u, _ in pairs], [f"i{i}" for _, i in pairs])
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


def reference_adjacency_arrays(split, dtype, index_dtype):
    """The adjacency as it was built from the train rows through a COO matrix:
    (indptr, indices, weights), the reference for the CSR-derived build, with
    its index arrays cast to ``index_dtype``."""
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
    return csr.indptr.astype(index_dtype), csr.indices.astype(index_dtype), csr.data


@pytest.fixture(scope="module")
def planted_split():
    return build_split(planted_communities(seed=0), seed=0)


class TestBuildNormalizedAdjacency:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("which", ["small_split", "planted_split"])
    def test_bitwise_equal_to_coo_reference(self, request, which, dtype):
        split = request.getfixturevalue(which)
        adj = build_normalized_adjacency(split, dtype=dtype)
        got = (adj.indptr, adj.indices, adj.weights)
        for name, a, b in zip(("indptr", "indices", "weights"), got,
                              reference_adjacency_arrays(split, dtype, adj.indices.dtype)):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        # scipy's own index dtype, int32 at these sizes
        assert adj.weights.dtype == dtype and adj.indptr.dtype == adj.indices.dtype == np.int32

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_bitwise_equal_to_coo_reference_with_isolated_nodes(self, n_users, n_items, data):
        # train pairs on a random subset of the ids, so that users and items
        # may have no train edge and get empty rows
        keys = data.draw(st.sets(st.integers(0, n_users * n_items - 1), min_size=1))
        train = np.array(sorted(divmod(k, n_items) for k in keys), dtype=np.int64)
        train = train[np.random.default_rng(len(keys)).permutation(len(train))]
        empty = np.empty((0, 2), dtype=np.int64)
        split = DatasetSplit(n_users=n_users, n_items=n_items, train=train, valid=empty, test=empty)
        for dtype in (np.float32, np.float64):
            adj = build_normalized_adjacency(split, dtype=dtype)
            ref = reference_adjacency_arrays(split, dtype, np.int32)
            for name, a, b in zip(("indptr", "indices", "weights"),
                                  (adj.indptr, adj.indices, adj.weights), ref):
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_arrays_are_the_matrix_arrays(self, small_adj):
        # one copy: the CSR arrays are the matrix's, not copies of them
        m = small_adj.matrix
        assert small_adj.indptr is m.indptr
        assert small_adj.indices is m.indices
        assert small_adj.weights is m.data
        assert small_adj.nnz == m.nnz and m.shape == (small_adj.n_nodes,) * 2

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

    @pytest.mark.parametrize("adj_dtype, z_dtype", [
        (np.float64, np.float32), (np.float32, np.float64),
    ])
    def test_dtype_mismatch_names_both(self, small_split, adj_dtype, z_dtype):
        # a mixed product would silently come out in the wider dtype
        adj = build_normalized_adjacency(small_split, dtype=adj_dtype)
        z = np.ones((adj.n_nodes, 4), dtype=z_dtype)
        want = f"adjacency weights are {np.dtype(adj_dtype)}, input is {np.dtype(z_dtype)}"
        with pytest.raises(ValueError, match=want):
            propagate(adj, z)

    def test_zero_degree_node_row_is_zero(self):
        # item i1 never appears in train, so its row propagates to zero
        raw = from_keys(("u0", "u0"), ("i0", "i1"))
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


@pytest.fixture(scope="module")
def empty_ends_split():
    """Users 0 and 11 and items 0 and 15 have no train pair: the last user
    row, just before the user/item cut, and the first item row are empty."""
    rng = np.random.default_rng(11)
    pairs = {(int(rng.integers(1, 11)), int(rng.integers(1, 15))) for _ in range(60)}
    train = np.array(sorted(pairs), dtype=np.int64)
    empty = np.zeros((0, 2), dtype=np.int64)
    return DatasetSplit(n_users=12, n_items=16, train=train, valid=empty, test=empty)


def on_the_worker(fn, *args):
    """``fn(*args)``, run as a job on the open gate's worker, which is then
    shut down and dropped: a job that waited on its own worker would
    otherwise hold it, and the test run, forever."""
    job = overlap.start_for(0)(fn, *args)
    try:
        return job.result(timeout=30)
    finally:
        overlap._WORKERS.pop(os.getpid()).shutdown(cancel_futures=True)


class TestRowHalves:
    @pytest.mark.parametrize("which", ["small_split", "empty_ends_split"])
    def test_halves_are_views_of_one_entry_per_train_pair(self, request, which):
        split = request.getfixturevalue(which)
        adj = build_normalized_adjacency(split)
        m = adj.matrix
        for half, n_rows in ((adj.user_rows, adj.n_users), (adj.item_rows, adj.n_items)):
            assert np.shares_memory(half.data, m.data)
            assert np.shares_memory(half.indices, m.indices)
            assert half.nnz == len(split.train)
            assert half.shape == (n_rows, adj.n_nodes)
        assert np.array_equal(sp.vstack([adj.user_rows, adj.item_rows]).toarray(), m.toarray())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("how", ["here", "deferred", "thread"])
    def test_split_product_is_the_serial_bytes(self, empty_ends_split, dtype, d, how, monkeypatch):
        # "here": the gate is closed, so the product runs whole on the calling
        # thread; "thread": it is open, so the item rows run on the worker;
        # "deferred": it is open, but the call is a job on the worker, which
        # runs it whole there
        adj = build_normalized_adjacency(empty_ends_split, dtype=dtype)
        assert (np.diff(adj.indptr)[[0, 11, 12, 27]] == 0).all()
        rng = np.random.default_rng(d)
        z = rng.standard_normal((adj.n_nodes, d)).astype(dtype)
        if how != "here":
            open_worker_gate(monkeypatch)
        kernel, item_rows_on = graph._add_product, []

        def noted(rows, z, out):
            if rows is adj.item_rows:
                item_rows_on.append(threading.current_thread().name)
            kernel(rows, z, out)

        monkeypatch.setattr(graph, "_add_product", noted)
        for operand in (z, np.asfortranarray(z)):
            if how == "deferred":
                got = on_the_worker(propagate, adj, operand)
            else:
                got = propagate(adj, operand)
            want = adj.matrix @ operand
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        on_worker = [name.startswith("concf-step") for name in item_rows_on]
        assert on_worker == ([True, True] if how == "thread" else [])

    def test_submitted_half_error_is_raised_after_the_callers_half(
        self, empty_ends_split, open_gate, monkeypatch
    ):
        adj = build_normalized_adjacency(empty_ends_split)
        real, events = graph._add_product, []

        def kernel(rows, z, out):
            if rows is adj.item_rows:
                raise RuntimeError("item rows failed")
            real(rows, z, out)
            events.append("user rows done")

        monkeypatch.setattr(graph, "_add_product", kernel)
        with pytest.raises(RuntimeError, match="item rows failed"):
            propagate(adj, np.ones((adj.n_nodes, 3)))
        assert events == ["user rows done"]

    @pytest.mark.parametrize("item_rows_fail", [False, True])
    def test_callers_half_error_joins_the_submitted_half(
        self, empty_ends_split, open_gate, monkeypatch, item_rows_fail
    ):
        adj = build_normalized_adjacency(empty_ends_split)
        real, events = graph._add_product, []
        caller_failed = threading.Event()

        def kernel(rows, z, out):
            if rows is adj.user_rows:
                caller_failed.set()
                raise RuntimeError("user rows failed")
            # still writing into the output after the calling thread's half failed
            assert caller_failed.wait(timeout=30)
            time.sleep(0.1)
            real(rows, z, out)
            events.append(f"item rows done on {threading.current_thread().name}")
            if item_rows_fail:
                raise RuntimeError("item rows failed")

        monkeypatch.setattr(graph, "_add_product", kernel)
        with pytest.raises(RuntimeError, match="user rows failed"):
            propagate(adj, np.ones((adj.n_nodes, 3)))
        assert len(events) == 1 and events[0].startswith("item rows done on concf-step")

    @pytest.mark.parametrize("gate", ["closed", "open"])
    def test_vector_is_one_column(self, small_adj, gate, monkeypatch):
        if gate == "open":
            open_worker_gate(monkeypatch)
        v = np.random.default_rng(1).standard_normal(small_adj.n_nodes)
        got = propagate(small_adj, v)
        assert got.shape == v.shape and got.tobytes() == (small_adj.matrix @ v).tobytes()

    def test_a_job_on_the_worker_propagates_whole(self, small_split, open_gate):
        # a job that split its product would wait on its own thread forever
        adj = build_normalized_adjacency(small_split)
        z = np.random.default_rng(0).standard_normal((adj.n_nodes, 8))
        assert overlap.start_for(adj.nnz * 8) is not None
        assert on_the_worker(propagate, adj, z).tobytes() == (adj.matrix @ z).tobytes()
