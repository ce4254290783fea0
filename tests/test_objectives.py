"""Loss values against hand-derived constants and gradients against finite differences."""

import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_step

from concf import (
    EmbeddingTable,
    TrainConfig,
    bpr_loss,
    build_normalized_adjacency,
    e_step,
    forward,
    prototype_contrastive_loss,
    reg_loss,
    structure_contrastive_loss,
    total_loss_and_gradient,
)
from concf.dataset import TripleBatch
from concf.numerics import (
    l2_normalize_backward,
    l2_normalize_rows,
    scatter_add_rows,
)
from concf import objectives
from concf.objectives import _infonce
from concf.prototypes import Clustering, PrototypeState
from concf.trainer import AdamState, adam_step

from conftest import from_keys, open_worker_gate, random_split, worker_started

LN2 = 0.6931471805599453
NEG_LOG_SIGMOID_1 = 0.3132616875182228  # -ln(sigmoid(1)) == ln(1 + 1/e)


def fp_with_readout(readout: np.ndarray, n_users: int) -> "FakeFP":
    """Minimal forward-pass stand-in for loss ops that only read fields."""

    class FakeFP:
        pass

    fp = FakeFP()
    fp.readout = readout
    fp.n_users = n_users
    fp.n_items = readout.shape[0] - n_users
    fp.layers = [readout]
    fp.n_layers = 0
    return fp


def triple(users, pos, neg):
    return TripleBatch(
        users=np.asarray(users, dtype=np.int64),
        pos_items=np.asarray(pos, dtype=np.int64),
        neg_items=np.asarray(neg, dtype=np.int64),
    )


class TestBprLoss:
    def test_equal_scores_give_ln2(self):
        readout = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        fp = fp_with_readout(readout, n_users=1)
        loss = bpr_loss(fp, triple([0], [0], [1]))
        assert abs(loss - LN2) < 1e-12

    def test_saturation_at_large_gap(self):
        readout = np.array([[1.0], [50.0], [0.0]])
        fp = fp_with_readout(readout, n_users=1)
        loss = bpr_loss(fp, triple([0], [0], [1]))
        assert loss < 1e-20

    def test_unit_gap(self):
        readout = np.array([[1.0], [1.0], [0.0]])
        fp = fp_with_readout(readout, n_users=1)
        loss = bpr_loss(fp, triple([0], [0], [1]))
        assert abs(loss - NEG_LOG_SIGMOID_1) < 1e-12

    def test_sums_over_triples(self):
        readout = np.array([[1.0], [1.0], [0.0]])
        fp = fp_with_readout(readout, n_users=1)
        loss = bpr_loss(fp, triple([0, 0], [0, 0], [1, 1]))
        assert abs(loss - 2 * NEG_LOG_SIGMOID_1) < 1e-12

    def test_empty_batch_rejected(self):
        fp = fp_with_readout(np.zeros((2, 1)), n_users=1)
        with pytest.raises(ValueError):
            bpr_loss(fp, triple([], [], []))

    @pytest.mark.parametrize("users, pos, neg, message", [
        ([1], [0], [0], r"users: ids must lie in \[0, 1\)"),
        ([-1], [0], [0], r"users: ids must lie in \[0, 1\)"),
        ([0], [2], [0], r"pos_items: ids must lie in \[0, 2\)"),
        ([0], [0], [-1], r"neg_items: ids must lie in \[0, 2\)"),
        ([0], [0], [2], r"neg_items: ids must lie in \[0, 2\)"),
    ])
    def test_out_of_range_ids_rejected(self, users, pos, neg, message):
        fp = fp_with_readout(np.ones((3, 2)), n_users=1)
        with pytest.raises(ValueError, match=message):
            bpr_loss(fp, triple(users, pos, neg))


def fp_with_layers(z0: np.ndarray, zk: np.ndarray, n_users: int):
    fp = fp_with_readout(z0, n_users)
    fp.layers = [z0, None, zk]
    fp.n_layers = 2
    return fp


class TestStructureContrastiveLoss:
    def test_batch_of_one_user_is_zero(self):
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((3, 4))
        zk = rng.standard_normal((3, 4))
        fp = fp_with_layers(z0, zk, n_users=2)
        loss = structure_contrastive_loss(fp, [1], [0], k_layer=2, tau=0.5, alpha=0.0)
        assert abs(loss) < 1e-14

    def test_two_orthogonal_users(self):
        # cosine(self) = 1, cosine(cross) = 0, tau = 1:
        # per-user term = -log(e / (e + 1))
        z0 = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        zk = np.array([[5.0, 0.0], [0.0, 0.1], [1.0, 1.0]])
        fp = fp_with_layers(z0, zk, n_users=2)
        loss = structure_contrastive_loss(fp, [0, 1], [0], k_layer=2, tau=1.0, alpha=0.0)
        assert abs(loss - 2 * NEG_LOG_SIGMOID_1) < 1e-12

    def test_duplicate_entries_keep_per_user_term(self):
        z0 = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        zk = np.array([[5.0, 0.0], [0.0, 0.1], [1.0, 1.0]])
        fp = fp_with_layers(z0, zk, n_users=2)
        base = structure_contrastive_loss(fp, [0, 1], [0], k_layer=2, tau=1.0, alpha=0.0)
        doubled = structure_contrastive_loss(
            fp, [0, 1, 0, 1], [0], k_layer=2, tau=1.0, alpha=0.0
        )
        # the denominator stays over distinct users, so each entry's term is
        # unchanged and the summed loss exactly doubles
        assert abs(doubled - 2 * base) < 1e-12

    def test_item_side_weighted_by_alpha(self):
        rng = np.random.default_rng(1)
        z0 = rng.standard_normal((5, 4))
        zk = rng.standard_normal((5, 4))
        fp = fp_with_layers(z0, zk, n_users=2)
        users, items = [0, 1], [0, 1, 2]
        u_only = structure_contrastive_loss(fp, users, items, 2, 0.3, alpha=0.0)
        both = structure_contrastive_loss(fp, users, items, 2, 0.3, alpha=0.7)
        i_only = (both - u_only) / 0.7
        again = structure_contrastive_loss(fp, users, items, 2, 0.3, alpha=1.4)
        assert abs(again - (u_only + 1.4 * i_only)) < 1e-9

    @pytest.mark.parametrize("users, items, message", [
        ([0, 5], [0], r"batch_users: ids must lie in \[0, 5\)"),
        ([-1], [0], r"batch_users: ids must lie in \[0, 5\)"),
        ([0], [-1, 1], r"batch_items: ids must lie in \[0, 7\)"),
        ([0], [7], r"batch_items: ids must lie in \[0, 7\)"),
    ])
    def test_out_of_range_ids_rejected(self, users, items, message):
        # unchecked, user 5 would read item 0's rows and item -1 the last user's
        fp = fp_with_layers(np.ones((12, 2)), np.ones((12, 2)), n_users=5)
        with pytest.raises(ValueError, match=message):
            structure_contrastive_loss(fp, users, items, k_layer=2, tau=1.0)

    def test_odd_layer_rejected(self):
        fp = fp_with_layers(np.ones((3, 2)), np.ones((3, 2)), n_users=2)
        with pytest.raises(ValueError, match="k_layer"):
            structure_contrastive_loss(fp, [0], [0], k_layer=3, tau=1.0, alpha=1.0)

    def test_zero_norm_row_rejected(self):
        z0 = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        fp = fp_with_layers(z0, np.ones((3, 2)), n_users=2)
        with pytest.raises(ValueError, match="degenerate"):
            structure_contrastive_loss(fp, [0, 1], [0], k_layer=2, tau=1.0, alpha=1.0)

    def test_per_entry_terms_bounded_when_positive_is_max(self):
        # anchors aligned with their own base: per-entry term lies in
        # [0, log(number of candidates)]
        rng = np.random.default_rng(2)
        z0 = rng.standard_normal((6, 8))
        fp = fp_with_layers(z0, z0.copy(), n_users=4)
        users = [0, 1, 2, 3]
        loss = structure_contrastive_loss(fp, users, [0], k_layer=2, tau=0.5, alpha=0.0)
        assert 0.0 <= loss <= len(users) * np.log(len(users)) + 1e-12

    def test_doubling_tau_never_raises_aligned_positive_probability(self):
        # loss = -log softmax(positive); with the positive similarity maximal,
        # growing tau can only flatten the softmax
        rng = np.random.default_rng(3)
        z0 = rng.standard_normal((6, 6))
        fp = fp_with_layers(z0, z0.copy(), n_users=5)
        users = [0, 1, 2, 3, 4]
        for tau in (0.05, 0.1, 0.2, 0.4):
            lo = structure_contrastive_loss(fp, users, [0], 2, tau, alpha=0.0)
            hi = structure_contrastive_loss(fp, users, [0], 2, 2 * tau, alpha=0.0)
            assert hi >= lo - 1e-12


def prototype_state(cu, au, ci, ai):
    return PrototypeState(
        users=Clustering(centroids=cu, assignments=au, inertia=0.0),
        items=Clustering(centroids=ci, assignments=ai, inertia=0.0),
    )


class TestPrototypeContrastiveLoss:
    def test_single_cluster_is_zero(self):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(3, 4, rng.standard_normal((7, 5)))
        protos = e_step(table, (1,), (1,), seed=0)
        assert prototype_contrastive_loss(table, protos, tau=0.2) == 0.0

    def test_aligned_vs_orthogonal_centroids(self):
        table = EmbeddingTable(1, 1, np.array([[2.0, 0.0], [0.0, 1.0]]))
        cu = np.array([[1.0, 0.0], [0.0, 1.0]])
        ci = np.array([[0.0, 1.0], [1.0, 0.0]])
        protos = prototype_state(cu, np.array([0]), ci, np.array([0]))
        loss = prototype_contrastive_loss(table, protos, tau=1.0, alpha=0.0)
        assert abs(loss - NEG_LOG_SIGMOID_1) < 1e-12

    def test_equidistant_centroids_give_ln2(self):
        table = EmbeddingTable(1, 1, np.array([[1.0, 1.0], [1.0, 0.0]]))
        cu = np.array([[1.0, 0.0], [0.0, 1.0]])
        protos = prototype_state(cu, np.array([0]), np.array([[1.0, 0.0]]), np.array([0]))
        loss = prototype_contrastive_loss(table, protos, tau=1.0, alpha=0.0)
        assert abs(loss - LN2) < 1e-12

    def test_assignment_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Clustering(centroids=np.eye(2), assignments=np.array([0, 2]), inertia=0.0)


class TestRegLoss:
    def test_zero_table(self):
        table = EmbeddingTable(2, 2, np.zeros((4, 3)))
        assert reg_loss(table, np.array([0, 1, 2, 3])) == 0.0

    def test_single_row_three_four(self):
        table = EmbeddingTable(1, 1, np.array([[3.0, 4.0], [9.0, 9.0]]))
        assert reg_loss(table, np.array([0])) == 12.5
        # the gradient is the row itself, scaled by the weight; the value is unchanged
        cot = np.ones((2, 2))
        assert reg_loss(table, np.array([0]), cot, weight=0.5) == 12.5
        np.testing.assert_array_equal(cot, [[2.5, 3.0], [1.0, 1.0]])

    def test_empty_touched_set(self):
        table = EmbeddingTable(1, 1, np.ones((2, 2)))
        cot = np.zeros((2, 2))
        assert reg_loss(table, np.array([], dtype=np.int64)) == 0.0
        assert reg_loss(table, np.array([], dtype=np.int64), cot) == 0.0
        assert not cot.any()

    def test_duplicate_ids_counted_once(self):
        table = EmbeddingTable(1, 1, np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert reg_loss(table, np.array([0, 0, 0])) == 12.5
        cot = np.zeros((2, 2))
        assert reg_loss(table, np.array([0, 0, 0]), cot) == 12.5
        np.testing.assert_array_equal(cot, [[3.0, 4.0], [0.0, 0.0]])

    @pytest.mark.parametrize("touched", [[-1], [0, 12]])
    def test_out_of_range_ids_rejected(self, touched):
        table = EmbeddingTable(5, 7, np.ones((12, 2)))
        with pytest.raises(ValueError, match=r"touched: ids must lie in \[0, 12\)"):
            reg_loss(table, np.array(touched))


class TestNormalizationBackward:
    def test_gradient_orthogonal_to_input(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 6)) * 3
        y, norms = l2_normalize_rows(x)
        g = rng.standard_normal((20, 6))
        gx = l2_normalize_backward(g, y, norms)
        inner = np.abs(np.einsum("ij,ij->i", gx, x))
        bound = 1e-10 * np.linalg.norm(gx, axis=1) * np.linalg.norm(x, axis=1)
        assert (inner <= bound + 1e-300).all()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 5), dtype=np.float64)
        w = rng.standard_normal((4, 5), dtype=np.float64)

        def f(mat):
            y, _ = l2_normalize_rows(mat)
            return float((w * y).sum())

        y, norms = l2_normalize_rows(x)
        gx = l2_normalize_backward(w, y, norms)
        h = 1e-6
        for r in range(4):
            for c in range(5):
                xp = x.copy(); xp[r, c] += h
                xm = x.copy(); xm[r, c] -= h
                fd = (f(xp) - f(xm)) / (2 * h)
                assert abs(fd - gx[r, c]) < 1e-7


class TestRowLogsumexpSoftmax:
    """``_infonce`` computes the row logsumexp and softmax in place on the logits."""

    @pytest.mark.parametrize("shape, scale", [((1, 1), 1.0), ((7, 13), 1.0), ((300, 1000), 20.0),
                                              ((64, 5), 700.0)])
    def test_bitwise_equal_to_separate_passes(self, shape, scale):
        rng = np.random.default_rng(shape[1])
        targets = rng.integers(shape[1], size=shape[0])
        for dtype in (np.float64, np.float32):
            a = (scale * rng.standard_normal((shape[0], 16))).astype(dtype)
            b = rng.standard_normal((shape[1], 16)).astype(dtype)
            losses, dlogits = _infonce(a, b, targets, 4.0)
            # reference: the shift-stabilized logsumexp and softmax, computed on their own
            logits = a @ b.T / 4.0
            m = logits.max(axis=1, keepdims=True)
            e = np.exp(logits - m)
            expected_lse = m[:, 0] + np.log(e.sum(axis=1))
            expected = e / e.sum(axis=1, keepdims=True)
            rows = np.arange(shape[0])
            expected[rows, targets] -= 1.0
            assert losses.tobytes() == (expected_lse - logits[rows, targets]).tobytes()
            assert dlogits.tobytes() == expected.tobytes()


class TestInfonceOut:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 13), (300, 1000), (6040, 31), (64, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_prefix_of_a_flat_buffer_gives_the_same_bytes(self, shape, dtype):
        rng = np.random.default_rng(shape[0])
        targets = rng.integers(shape[1], size=shape[0])
        a = rng.standard_normal((shape[0], 64)).astype(dtype)
        b = rng.standard_normal((shape[1], 64)).astype(dtype)
        buffer = np.full(shape[0] * shape[1] + 17, np.nan, dtype=dtype)
        out = buffer[: shape[0] * shape[1]].reshape(shape)
        losses, dlogits = _infonce(a, b, targets, 0.2, out)
        expected_losses, expected = _infonce(a, b, targets, 0.2)
        assert np.shares_memory(dlogits, buffer)
        assert losses.tobytes() == expected_losses.tobytes()
        assert dlogits.tobytes() == expected.tobytes()


class TestScatterAddRows:
    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        n_rows=st.integers(1, 9),
        d=st.integers(1, 4),
        data=st.data(),
    )
    def test_bitwise_equal_to_add_at(self, dtype, n_rows, d, data):
        # few rows and many entries: repeated indices and empty rows both occur
        index = data.draw(hnp.arrays(np.int64, st.integers(0, 30), elements=st.integers(0, n_rows - 1)))
        values = data.draw(hnp.arrays(
            dtype, (len(index), d),
            elements=st.one_of(st.just(-0.0), st.floats(-1e3, 1e3, width=np.finfo(dtype).bits)),
        ))
        expected = np.zeros((n_rows, d), dtype=dtype)
        np.add.at(expected, index, values)
        got = scatter_add_rows(index, values, n_rows)
        assert got.dtype == dtype
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        n_rows=st.integers(1, 9),
        n_values=st.integers(1, 6),
        d=st.integers(1, 4),
        data=st.data(),
    )
    def test_weighted_sources_bitwise_equal_to_add_at(self, dtype, n_rows, n_values, d, data):
        # repeated rows and sources, empty rows, -0.0 and non-unit weights; a
        # kernel that fused the product into the addition (FMA) would differ
        n = data.draw(st.integers(0, 30))
        index = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_rows - 1)))
        sources = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_values - 1)))
        floats = st.one_of(st.just(-0.0), st.floats(-1e3, 1e3, width=np.finfo(dtype).bits))
        weights = data.draw(hnp.arrays(dtype, n, elements=floats))
        values = data.draw(hnp.arrays(dtype, (n_values, d), elements=floats))
        expected = np.zeros((n_rows, d), dtype=dtype)
        np.add.at(expected, index, weights[:, None] * values[sources])
        got = scatter_add_rows(index, values, n_rows, weights=weights, sources=sources)
        assert got.dtype == dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_rows", [1, 256, 257, 65536, 65537])
    def test_every_sort_key_width(self, n_rows):
        # row ids are sorted as uint8, uint16 or uint32, by the largest id that fits
        rng = np.random.default_rng(n_rows)
        index = rng.integers(max(0, n_rows - 300), n_rows, 2000)
        index[:2] = n_rows - 1, 0
        sources = rng.integers(0, 50, 2000)
        weights, values = rng.standard_normal(2000), rng.standard_normal((50, 3))
        expected = np.zeros((n_rows, 3))
        np.add.at(expected, index, weights[:, None] * values[sources])
        got = scatter_add_rows(index, values, n_rows, weights=weights, sources=sources)
        assert got.tobytes() == expected.tobytes()


class TestBprMemory:
    # tracemalloc peak of bpr_loss with a gradient over n * d * itemsize, on
    # 4096 triples and the planted 500 x 64 float32 readout: 2.79 with the
    # weighted scatter from one gathered source, 7.52 with a 3n x d values buffer
    PEAK_PER_BATCH_BYTE = 4.0

    def test_peak_within_bound(self):
        rng = np.random.default_rng(0)
        n_users, n_items, d, n = 200, 300, 64, 4096
        readout = rng.standard_normal((n_users + n_items, d)).astype(np.float32)
        fp = fp_with_readout(readout, n_users)
        triples = triple(rng.integers(0, n_users, n), rng.integers(0, n_items, n),
                         rng.integers(0, n_items, n))
        grad = np.zeros_like(fp.readout)
        tracemalloc.start()
        try:
            bpr_loss(fp, triples, grad, weight=1.0 / n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.any(grad != 0.0)
        assert peak < self.PEAK_PER_BATCH_BYTE * n * d * fp.readout.itemsize


def gradient_check_setup(seed=0, n_users=5, n_items=7, d=8):
    # finite differences with h = 1e-6 need float64 throughout
    split = random_split(n_users, n_items, n_users * n_items // 2, seed=seed)
    adj = build_normalized_adjacency(split, dtype=np.float64)
    rng = np.random.default_rng(seed + 100)
    table = EmbeddingTable(
        n_users, n_items, rng.standard_normal((n_users + n_items, d), dtype=np.float64) * 0.3
    )
    from concf import sample_negatives

    triples = sample_negatives(split, epoch_seed=seed)
    return split, adj, table, triples


def finite_difference_gradient(loss_fn, matrix, h=1e-6):
    grad = np.zeros_like(matrix)
    for r in range(matrix.shape[0]):
        for c in range(matrix.shape[1]):
            m = matrix.copy(); m[r, c] += h
            fp = loss_fn(m)
            m[r, c] -= 2 * h
            fm = loss_fn(m)
            grad[r, c] = (fp - fm) / (2 * h)
    return grad


def assert_gradient_close(analytic, numeric, rtol=1e-4, atol=1e-8):
    denom = np.maximum(np.abs(numeric), np.abs(analytic))
    err = np.abs(analytic - numeric)
    ok = (err <= atol) | (err / np.maximum(denom, 1e-300) <= rtol)
    assert ok.all(), (
        f"worst rel {np.nanmax(err / np.maximum(denom, 1e-300)):.3e}, "
        f"worst abs {err.max():.3e}"
    )


class TestTotalLossAndGradient:
    def test_gradient_matches_finite_differences(self):
        split, adj, table, triples = gradient_check_setup(seed=7)
        cfg = TrainConfig(
            d=8, n_layers=2, k_layer=2, tau=0.1, alpha=1.0,
            lambda1=1e-2, lambda2=1e-2, lambda3=1e-3, k_users=(2,), k_items=(2,),
            dtype="float64",
        )
        protos = e_step(table, cfg.k_users, cfg.k_items, seed=3)
        breakdown, grad = total_loss_and_gradient(adj, table, triples, protos, cfg)

        def loss_of(matrix):
            t = EmbeddingTable(table.n_users, table.n_items, matrix)
            b, _ = total_loss_and_gradient(adj, t, triples, protos, cfg)
            return b.total

        numeric = finite_difference_gradient(loss_of, table.matrix)
        assert_gradient_close(grad, numeric)

    def test_breakdown_identity(self):
        split, adj, table, triples = gradient_check_setup(seed=2)
        cfg = TrainConfig(
            d=8, n_layers=2, k_layer=2, tau=0.2, lambda1=0.5, lambda2=0.25,
            lambda3=0.1, k_users=(2,), k_items=(3,),
        )
        protos = e_step(table, cfg.k_users, cfg.k_items, seed=5)
        b, _ = total_loss_and_gradient(adj, table, triples, protos, cfg)
        want = b.bpr + cfg.lambda1 * b.structure + cfg.lambda2 * b.prototype + cfg.lambda3 * b.reg
        assert b.total == want
        assert b.bpr >= 0 and b.structure >= 0 and b.prototype >= 0 and b.reg >= 0
        # the loss-only calls of the public term functions give the same bits
        fp = forward(adj, table, cfg.n_layers)
        assert b.bpr == bpr_loss(fp, triples) / len(triples)
        assert b.structure == structure_contrastive_loss(
            fp, triples.users, triples.pos_items, cfg.k_layer, cfg.tau, cfg.alpha
        )
        assert b.prototype == prototype_contrastive_loss(table, protos, cfg.tau, cfg.alpha)

    def test_zero_weights_reduce_to_bpr_gradient(self):
        split, adj, table, triples = gradient_check_setup(seed=3)
        cfg_all = TrainConfig(
            d=8, n_layers=2, k_layer=2, tau=0.1, lambda1=0.0, lambda2=0.0,
            lambda3=0.0, k_users=(2,), k_items=(2,), dtype="float64",
        )
        b, grad = total_loss_and_gradient(adj, table, triples, None, cfg_all)
        assert b.structure == 0.0 and b.prototype == 0.0 and b.reg == 0.0
        assert b.total == b.bpr

        def bpr_only(matrix):
            t = EmbeddingTable(table.n_users, table.n_items, matrix)
            bb, _ = total_loss_and_gradient(adj, t, triples, None, cfg_all)
            return bb.total

        numeric = finite_difference_gradient(bpr_only, table.matrix)
        assert_gradient_close(grad, numeric)

    def test_gradient_linear_in_term_weights(self):
        split, adj, table, triples = gradient_check_setup(seed=4)
        protos = e_step(table, (2,), (2,), seed=6)

        def grad_of(l1, l2, l3):
            cfg = TrainConfig(
                d=8, n_layers=2, k_layer=2, tau=0.1, lambda1=l1, lambda2=l2,
                lambda3=l3, k_users=(2,), k_items=(2,),
            )
            return total_loss_and_gradient(adj, table, triples, protos, cfg)[1]

        g_bpr = grad_of(0, 0, 0)
        g_s = grad_of(0.3, 0, 0) - g_bpr
        g_p = grad_of(0, 0.2, 0) - g_bpr
        g_r = grad_of(0, 0, 0.1) - g_bpr
        combined = grad_of(0.3, 0.2, 0.1)
        np.testing.assert_allclose(combined, g_bpr + g_s + g_p + g_r, atol=1e-12)

    def test_stationary_row_second_order(self):
        # perturbing a zero-gradient row changes the loss only at O(eps^2);
        # the second component's rows have zero gradient here
        from concf import build_split

        raw = from_keys(("a", "b"), ("x", "y"))
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        adj = build_normalized_adjacency(split, dtype=np.float64)
        rng = np.random.default_rng(11)
        table = EmbeddingTable(2, 2, rng.standard_normal((4, 3), dtype=np.float64))
        cfg = TrainConfig(
            d=3, n_layers=2, k_layer=2, lambda1=0.5, lambda2=0.0, lambda3=0.1, dtype="float64"
        )
        ua, ia = list(raw.user_keys).index("a"), list(raw.item_keys).index("x")
        batch = triple([ua], [ia], [ia])
        b0, grad = total_loss_and_gradient(adj, table, batch, None, cfg)
        r = int(np.flatnonzero((grad == 0).all(axis=1))[0])
        for eps in (1e-3, 1e-4):
            m = table.matrix.copy()
            m[r] += eps
            t = EmbeddingTable(table.n_users, table.n_items, m)
            b1, _ = total_loss_and_gradient(adj, t, batch, None, cfg)
            assert abs(b1.total - b0.total) < 10 * eps**2

    def test_disconnected_component_has_zero_gradient(self):
        # two separate edges; a batch touching only the first component must
        # leave the second component's rows untouched (no prototype term)
        from concf import build_split

        raw = from_keys(("a", "b"), ("x", "y"))
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        adj = build_normalized_adjacency(split)
        rng = np.random.default_rng(0)
        table = EmbeddingTable(2, 2, rng.standard_normal((4, 3)))
        cfg = TrainConfig(d=3, n_layers=2, k_layer=2, lambda1=0.5, lambda2=0.0, lambda3=0.1)
        ua, ia = list(raw.user_keys).index("a"), list(raw.item_keys).index("x")
        ub, ib = list(raw.user_keys).index("b"), list(raw.item_keys).index("y")
        batch = triple([ua], [ia], [ia])
        _, grad = total_loss_and_gradient(adj, table, batch, None, cfg)
        assert (grad[ub] == 0).all() and (grad[2 + ib] == 0).all()
        assert (grad[ua] != 0).any()

    def test_lambda2_requires_prototypes(self):
        split, adj, table, triples = gradient_check_setup(seed=6)
        cfg = TrainConfig(d=8, n_layers=2, k_layer=2, lambda2=1e-3)
        with pytest.raises(ValueError, match="prototype state"):
            total_loss_and_gradient(adj, table, triples, None, cfg)


class TestStepMatchesReference:
    """The in-place step reproduces the out-of-place one bit for bit."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n_layers, k_layer, lambda1", [(3, 2, 0.3), (2, 2, 0.3), (3, 2, 0.0)])
    def test_three_adam_steps(self, dtype, n_layers, k_layer, lambda1):
        split = random_split(12, 15, 90, seed=8)
        adj = build_normalized_adjacency(split, dtype=np.dtype(dtype))
        cfg = TrainConfig(
            d=6, n_layers=n_layers, k_layer=k_layer, tau=0.2, lambda1=lambda1, lambda2=0.2,
            lambda3=0.1, k_users=(4,), k_items=(3,), lr=0.05, dtype=dtype,
        )
        rng = np.random.default_rng(9)
        matrix = (0.3 * rng.standard_normal((27, 6))).astype(dtype)
        # users 0 and 4 repeat; item 2 is a positive and a negative, item 5 twice a negative
        triples = triple([0, 4, 0, 7, 4, 11], [2, 3, 9, 2, 2, 14], [5, 2, 5, 1, 8, 0])
        protos = e_step(EmbeddingTable(12, 15, matrix), cfg.k_users, cfg.k_items, seed=2)
        ours, theirs = EmbeddingTable(12, 15, matrix.copy()), EmbeddingTable(12, 15, matrix.copy())
        ours_state, theirs_state = AdamState.zeros_like(ours), AdamState.zeros_like(theirs)
        for _ in range(3):
            b, grad = total_loss_and_gradient(adj, ours, triples, protos, cfg)
            ref_b, ref_grad = reference_step.loss_and_gradient(adj, theirs, triples, protos, cfg)
            assert b == ref_b
            assert grad.dtype == ref_grad.dtype == np.dtype(dtype)
            assert grad.tobytes() == ref_grad.tobytes()
            adam_step(ours, grad, ours_state, cfg)
            adam_step(theirs, ref_grad, theirs_state, cfg)
            assert ours.matrix.tobytes() == theirs.matrix.tobytes()
        assert b.structure > 0 if lambda1 else b.structure == 0.0

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_random_batch(self, dtype):
        split = random_split(40, 60, 600, seed=3)
        adj = build_normalized_adjacency(split, dtype=np.dtype(dtype))
        cfg = TrainConfig(
            d=16, n_layers=3, k_layer=2, tau=0.2, lambda1=0.3, lambda2=0.2, lambda3=0.1,
            k_users=(4,), k_items=(5,), dtype=dtype,
        )
        rng = np.random.default_rng(4)
        matrix = (0.3 * rng.standard_normal((100, 16))).astype(dtype)
        n = 600
        users, pos, neg = rng.integers(0, 40, n), rng.integers(0, 60, n), rng.integers(0, 60, n)
        neg[:3] = pos[0]  # triple 0's positive is the negative of triples 0, 1 and 2
        assert len(np.unique(users)) < n and len(np.intersect1d(pos, neg)) > 0
        triples = triple(users, pos, neg)
        table = EmbeddingTable(40, 60, matrix)
        protos = e_step(table, cfg.k_users, cfg.k_items, seed=5)
        b, grad = total_loss_and_gradient(adj, table, triples, protos, cfg)
        ref_b, ref_grad = reference_step.loss_and_gradient(adj, table, triples, protos, cfg)
        assert b == ref_b
        assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n_layers, k_layer, lambda1", [(3, 2, 0.3), (2, 2, 0.3), (3, 2, 0.0)])
    def test_three_adam_steps_on_worker(self, open_gate, dtype, n_layers, k_layer, lambda1):
        self.test_three_adam_steps(dtype, n_layers, k_layer, lambda1)
        assert worker_started()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_random_batch_on_worker(self, open_gate, dtype):
        self.test_random_batch(dtype)
        assert worker_started()


def worker_case(dtype: str = "float64"):
    """A small step with every term active: adjacency, table, triples, prototypes, config."""
    split = random_split(40, 60, 600, seed=3)
    adj = build_normalized_adjacency(split, dtype=np.dtype(dtype))
    cfg = TrainConfig(
        d=16, n_layers=3, k_layer=2, tau=0.2, lambda1=0.3, lambda2=0.2, lambda3=0.1,
        k_users=(4,), k_items=(5,), dtype=dtype,
    )
    rng = np.random.default_rng(4)
    table = EmbeddingTable(40, 60, (0.3 * rng.standard_normal((100, 16))).astype(dtype))
    triples = triple(rng.integers(0, 40, 300), rng.integers(0, 60, 300), rng.integers(0, 60, 300))
    return adj, table, triples, e_step(table, cfg.k_users, cfg.k_items, seed=5), cfg


class TestStepWorker:
    """The step's worker thread: when it starts, and how a failure leaves it."""

    def test_closed_gate_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(objectives, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(objectives, "_WORKERS", {})
        adj, table, triples, protos, cfg = worker_case()
        assert adj.nnz * cfg.d < objectives.OVERLAP_MIN_WORK
        before = threading.active_count()
        total_loss_and_gradient(adj, table, triples, protos, cfg)
        assert not worker_started()
        assert threading.active_count() == before

    def test_one_usable_cpu_starts_no_thread(self, open_gate, monkeypatch):
        monkeypatch.setattr(objectives, "_usable_cpus", lambda: 1)
        total_loss_and_gradient(*worker_case())
        assert not worker_started()

    def test_failing_job_raises_the_serial_error(self, monkeypatch):
        adj, table, triples, protos, cfg = worker_case()
        users = protos.users
        short = Clustering(centroids=users.centroids, assignments=users.assignments[:-1],
                           inertia=users.inertia)
        bad = PrototypeState(users=short, items=protos.items)
        errors = []
        for gate in ("closed", "open"):
            if gate == "open":
                open_worker_gate(monkeypatch)
            with pytest.raises(ValueError) as info:
                total_loss_and_gradient(adj, table, triples, bad, cfg)
            errors.append((type(info.value), str(info.value)))
        assert worker_started()
        assert errors[0] == errors[1] == (ValueError, "clustering has 39 assignments for 40 nodes")

    def test_failed_step_leaves_no_job(self, open_gate, monkeypatch):
        adj, table, triples, protos, cfg = worker_case()
        real_prototype, real_propagate = (
            objectives.prototype_contrastive_loss, objectives.propagate)
        events = []

        def slow_prototype(*args):
            time.sleep(0.2)
            loss = real_prototype(*args)
            events.append("prototype finished")
            return loss

        def noted_propagate(adj, z):
            events.append(f"propagate on {threading.current_thread().name}")
            return real_propagate(adj, z)

        def failing_structure(*args, **kwargs):
            raise ValueError("structure term failed")

        monkeypatch.setattr(objectives, "prototype_contrastive_loss", slow_prototype)
        monkeypatch.setattr(objectives, "propagate", noted_propagate)
        monkeypatch.setattr(objectives, "structure_contrastive_loss", failing_structure)
        with pytest.raises(ValueError, match="structure term failed"):
            total_loss_and_gradient(adj, table, triples, protos, cfg)
        # the prototype job ran to its end before the error left the step, and
        # the queued first backward product never started
        assert events == ["prototype finished"]
        assert objectives._WORKERS[os.getpid()].submit(lambda: "idle").result(timeout=5) == "idle"
        assert events == ["prototype finished"]

    def test_concurrent_steps_share_the_worker(self, open_gate):
        adj, table, triples, protos, cfg = worker_case()
        expected_loss, expected_grad = reference_step.loss_and_gradient(
            adj, table, triples, protos, cfg)
        results = []

        def steps():
            for _ in range(3):
                b, grad = total_loss_and_gradient(adj, table, triples, protos, cfg)
                results.append(b == expected_loss and grad.tobytes() == expected_grad.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=steps) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [True] * 12

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs per-thread CPU affinity and two usable CPUs")
    def test_worker_is_kept_off_the_callers_cpu(self, open_gate, monkeypatch):
        allowed = os.sched_getaffinity(0)
        assert objectives._this_cpu() in allowed
        adj, table, triples, protos, cfg = worker_case()
        worker = objectives._step_worker(adj, cfg.d)
        for cpu in sorted(allowed)[:2]:
            monkeypatch.setattr(objectives, "_this_cpu", lambda: cpu)
            job = objectives._start(worker, os.sched_getaffinity, 0)
            assert job.result(timeout=30) == allowed - {cpu}
        assert os.sched_getaffinity(0) == allowed

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_starts_its_own_worker(self, open_gate):
        adj, table, triples, protos, cfg = worker_case()
        _, expected = total_loss_and_gradient(adj, table, triples, protos, cfg)
        assert worker_started()
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child():
            send.send(total_loss_and_gradient(adj, table, triples, protos, cfg)[1].tobytes())

        process = ctx.Process(target=child)
        process.start()
        try:
            assert receive.poll(30), "the forked child's step did not finish"
            assert receive.recv() == expected.tobytes()
        finally:
            process.join(timeout=30)
            if process.is_alive():
                process.kill()
        assert process.exitcode == 0
