"""Loss values against hand-derived constants and gradients against finite differences."""

import numpy as np
import pytest

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
from concf.numerics import l2_normalize_backward, l2_normalize_rows
from concf.prototypes import Clustering, PrototypeState

from conftest import random_split

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


def single_granularity_state(n_users, n_items, cu, au, ci, ai):
    return PrototypeState(
        users=(Clustering(centroids=cu, assignments=au, k=len(cu), inertia=0.0),),
        items=(Clustering(centroids=ci, assignments=ai, k=len(ci), inertia=0.0),),
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
        protos = single_granularity_state(
            1, 1, cu, np.array([0]), ci, np.array([0])
        )
        loss = prototype_contrastive_loss(table, protos, tau=1.0, alpha=0.0)
        assert abs(loss - NEG_LOG_SIGMOID_1) < 1e-12

    def test_equidistant_centroids_give_ln2(self):
        table = EmbeddingTable(1, 1, np.array([[1.0, 1.0], [1.0, 0.0]]))
        cu = np.array([[1.0, 0.0], [0.0, 1.0]])
        protos = single_granularity_state(
            1, 1, cu, np.array([0]), np.array([[1.0, 0.0]]), np.array([0])
        )
        loss = prototype_contrastive_loss(table, protos, tau=1.0, alpha=0.0)
        assert abs(loss - LN2) < 1e-12

    def test_granularities_averaged(self):
        rng = np.random.default_rng(4)
        table = EmbeddingTable(6, 6, rng.standard_normal((12, 4)))
        p1 = e_step(table, (2,), (1,), seed=1)
        p2 = e_step(table, (3,), (1,), seed=1)
        both = PrototypeState(users=p1.users + p2.users, items=p1.items)
        l1 = prototype_contrastive_loss(table, p1, tau=0.3, alpha=0.0)
        l2 = prototype_contrastive_loss(table, p2, tau=0.3, alpha=0.0)
        lb = prototype_contrastive_loss(table, both, tau=0.3, alpha=0.0)
        assert abs(lb - (l1 + l2) / 2) < 1e-9

    def test_assignment_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Clustering(
                centroids=np.eye(2), assignments=np.array([0, 2]), k=2, inertia=0.0
            )


class TestRegLoss:
    def test_zero_table(self):
        table = EmbeddingTable(2, 2, np.zeros((4, 3)))
        assert reg_loss(table, np.array([0, 1, 2, 3])) == 0.0

    def test_single_row_three_four(self):
        table = EmbeddingTable(1, 1, np.array([[3.0, 4.0], [9.0, 9.0]]))
        assert reg_loss(table, np.array([0])) == 12.5

    def test_empty_touched_set(self):
        table = EmbeddingTable(1, 1, np.ones((2, 2)))
        assert reg_loss(table, np.array([], dtype=np.int64)) == 0.0

    def test_duplicate_ids_counted_once(self):
        table = EmbeddingTable(1, 1, np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert reg_loss(table, np.array([0, 0, 0])) == 12.5


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
        x = rng.standard_normal((4, 5))
        w = rng.standard_normal((4, 5))

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


def gradient_check_setup(seed=0, n_users=5, n_items=7, d=8):
    split = random_split(n_users, n_items, n_users * n_items // 2, seed=seed)
    adj = build_normalized_adjacency(split)
    rng = np.random.default_rng(seed + 100)
    table = EmbeddingTable(
        n_users, n_items, rng.standard_normal((n_users + n_items, d)) * 0.3
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
            lambda3=0.0, k_users=(2,), k_items=(2,),
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
        from concf import RawInteractions, build_split

        raw = RawInteractions(users=("a", "b"), items=("x", "y"))
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        adj = build_normalized_adjacency(split)
        rng = np.random.default_rng(11)
        table = EmbeddingTable(2, 2, rng.standard_normal((4, 3)))
        cfg = TrainConfig(d=3, n_layers=2, k_layer=2, lambda1=0.5, lambda2=0.0, lambda3=0.1)
        ua, ia = split.user_map["a"], split.item_map["x"]
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
        from concf import RawInteractions, build_split

        raw = RawInteractions(users=("a", "b"), items=("x", "y"))
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        adj = build_normalized_adjacency(split)
        rng = np.random.default_rng(0)
        table = EmbeddingTable(2, 2, rng.standard_normal((4, 3)))
        cfg = TrainConfig(d=3, n_layers=2, k_layer=2, lambda1=0.5, lambda2=0.0, lambda3=0.1)
        ua, ia = split.user_map["a"], split.item_map["x"]
        ub, ib = split.user_map["b"], split.item_map["y"]
        batch = triple([ua], [ia], [ia])
        _, grad = total_loss_and_gradient(adj, table, batch, None, cfg)
        assert (grad[ub] == 0).all() and (grad[2 + ib] == 0).all()
        assert (grad[ua] != 0).any()

    def test_lambda2_requires_prototypes(self):
        split, adj, table, triples = gradient_check_setup(seed=6)
        cfg = TrainConfig(d=8, n_layers=2, k_layer=2, lambda2=1e-3)
        with pytest.raises(ValueError, match="prototype state"):
            total_loss_and_gradient(adj, table, triples, None, cfg)
