"""Embedding init, forward pass, checkpoints, and exports."""

import numpy as np
import pytest

from concf import (
    EmbeddingTable,
    RawInteractions,
    build_normalized_adjacency,
    build_split,
    forward,
    init_embeddings,
    load_checkpoint,
    save_checkpoint,
)
from concf.model import (
    read_matrix_binary,
    write_matrix_binary,
    xavier_bound,
)

from conftest import random_split

XAVIER_BOUND_64 = 0.21650635094610965  # sqrt(6 / (64 + 64))


class TestInitEmbeddings:
    def test_bound_for_d64(self):
        table = init_embeddings(50, 60, 64, seed=0)
        assert np.isclose(xavier_bound(64), XAVIER_BOUND_64)
        assert (np.abs(table.matrix) <= XAVIER_BOUND_64).all()

    def test_deterministic(self):
        a = init_embeddings(10, 12, 8, seed=5)
        b = init_embeddings(10, 12, 8, seed=5)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_mean_within_three_sigma(self):
        # mean of n uniform(-b, b) samples has std b / sqrt(3 n)
        d = 100
        table = init_embeddings(5000, 5000, d, seed=1)
        n = table.matrix.size
        bound = xavier_bound(d)
        sigma = bound / np.sqrt(3 * n)
        assert abs(table.matrix.mean()) < 3 * sigma

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            init_embeddings(3, 3, 0, seed=0)

    def test_float32_option(self):
        table = init_embeddings(4, 4, 8, seed=0, dtype=np.float32)
        assert table.matrix.dtype == np.float32


class TestForward:
    def test_layer_zero_is_table(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 6, seed=2)
        fp = forward(small_adj, table, 2)
        assert fp.layers[0] is table.matrix

    def test_no_edges_scales_readout(self):
        # one of u0's items lands in valid only, leaving that item isolated:
        # its readout is table / (L + 1)
        raw = RawInteractions(users=("u0", "u0"), items=("i0", "i1"))
        split = build_split(raw, ratios=(0.5, 0.5, 0.0), seed=0)
        adj = build_normalized_adjacency(split)
        table = init_embeddings(split.n_users, split.n_items, 4, seed=0)
        fp = forward(adj, table, 2)
        isolated = np.flatnonzero(np.diff(adj.indptr) == 0)
        assert len(isolated) >= 1
        np.testing.assert_allclose(fp.readout[isolated], table.matrix[isolated] / 3.0)

    def test_single_edge_hand_unrolled(self):
        raw = RawInteractions(users=("u0",), items=("i0",))
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        adj = build_normalized_adjacency(split)
        a = np.array([1.0, -2.0, 0.5])
        b = np.array([3.0, 0.0, -1.0])
        table = EmbeddingTable(1, 1, np.stack([a, b]))
        fp = forward(adj, table, 2)
        np.testing.assert_allclose(fp.layers[1][0], b)
        np.testing.assert_allclose(fp.layers[2][0], a)
        np.testing.assert_allclose(fp.readout[0], (a + b + a) / 3.0)
        np.testing.assert_allclose(fp.readout[1], (b + a + b) / 3.0)

    def test_readout_is_layer_mean(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 6, seed=3)
        fp = forward(small_adj, table, 3)
        np.testing.assert_allclose(fp.readout, sum(fp.layers) / 4.0, atol=0)

    def test_linear_in_table(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 6, seed=4)
        scaled = EmbeddingTable(table.n_users, table.n_items, 2.5 * table.matrix)
        fp1 = forward(small_adj, table, 3)
        fp2 = forward(small_adj, scaled, 3)
        np.testing.assert_allclose(fp2.readout, 2.5 * fp1.readout, rtol=1e-13)

    def test_rejects_zero_layers(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 4, seed=0)
        with pytest.raises(ValueError):
            forward(small_adj, table, 0)

    def test_shape_mismatch(self, small_adj):
        table = EmbeddingTable(2, 2, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            forward(small_adj, table, 1)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        table = init_embeddings(7, 9, 5, seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, table, n_layers=3, epoch=12)
        ckpt = load_checkpoint(path)
        assert ckpt.n_layers == 3 and ckpt.epoch == 12
        np.testing.assert_array_equal(ckpt.table.matrix, table.matrix)

    def test_roundtrip_with_adam(self, tmp_path):
        table = init_embeddings(4, 4, 3, seed=0)
        m = np.random.default_rng(1).standard_normal(table.matrix.shape)
        v = np.abs(np.random.default_rng(2).standard_normal(table.matrix.shape))
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, table, n_layers=2, epoch=4, adam_m=m, adam_v=v, adam_step=40)
        ckpt = load_checkpoint(path)
        assert ckpt.adam_step == 40
        np.testing.assert_array_equal(ckpt.adam_m, m)
        np.testing.assert_array_equal(ckpt.adam_v, v)

    def test_truncated_payload_rejected(self, tmp_path):
        table = init_embeddings(4, 4, 3, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, table, n_layers=2)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)


class TestExportFormats:
    def test_binary_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((6, 4))
        ids = np.arange(6)
        path = tmp_path / "emb.bin"
        write_matrix_binary(path, ids, matrix)
        got_ids, got = read_matrix_binary(path)
        np.testing.assert_array_equal(got_ids, ids)
        np.testing.assert_array_equal(got, matrix)
