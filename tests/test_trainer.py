"""Adam updates, the training loop, early stopping, and reproducibility."""

import numpy as np
import pytest

from concf import (
    AdamState,
    EmbeddingTable,
    TrainConfig,
    adam_step,
    build_normalized_adjacency,
    forward,
    full_rank_eval,
    train,
)

from conftest import random_split


def scalar_table(value=1.0):
    return EmbeddingTable(1, 1, np.array([[value], [0.0]]))


class TestAdamStep:
    def test_zero_gradient_leaves_table(self):
        table = scalar_table()
        before = table.matrix.copy()
        state = AdamState.zeros_like(table)
        adam_step(table, np.zeros_like(table.matrix), state, TrainConfig())
        np.testing.assert_array_equal(table.matrix, before)
        assert state.step == 1

    def test_first_step_equals_learning_rate(self):
        # with g = 1 the bias-corrected ratio m_hat / sqrt(v_hat) is exactly 1
        cfg = TrainConfig(lr=0.05)
        table = scalar_table(2.0)
        state = AdamState.zeros_like(table)
        grads = np.array([[1.0], [0.0]])
        adam_step(table, grads, state, cfg)
        expected = 2.0 - cfg.lr * 1.0 / (1.0 + cfg.adam_eps)
        assert table.matrix[0, 0] == pytest.approx(expected, abs=1e-15)
        assert table.matrix[1, 0] == 0.0

    def test_repeated_identical_gradient_never_grows(self):
        cfg = TrainConfig(lr=0.05)
        table = scalar_table(0.0)
        state = AdamState.zeros_like(table)
        grads = np.array([[1.0], [0.0]])
        deltas = []
        prev = table.matrix[0, 0]
        for _ in range(5):
            adam_step(table, grads, state, cfg)
            deltas.append(abs(table.matrix[0, 0] - prev))
            prev = table.matrix[0, 0]
        for a, b in zip(deltas, deltas[1:]):
            assert b <= a + 1e-12

    def test_untouched_rows_keep_moments(self):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(2, 2, rng.standard_normal((4, 3)))
        state = AdamState.zeros_like(table)
        state.m[:] = 0.5
        state.v[:] = 0.25
        grads = np.zeros((4, 3))
        grads[1] = 1.0
        adam_step(table, grads, state, TrainConfig())
        assert (state.m[0] == 0.5).all() and (state.v[0] == 0.25).all()
        assert (state.m[1] != 0.5).any()

    def test_nonfinite_gradient_names_row(self):
        table = scalar_table()
        state = AdamState.zeros_like(table)
        grads = np.array([[np.nan], [0.0]])
        with pytest.raises(FloatingPointError, match="row 0"):
            adam_step(table, grads, state, TrainConfig())

    def test_shape_mismatch(self):
        table = scalar_table()
        state = AdamState.zeros_like(table)
        with pytest.raises(ValueError, match="shape"):
            adam_step(table, np.zeros((3, 3)), state, TrainConfig())


def quick_config(**overrides):
    base = dict(
        d=16, n_layers=2, k_layer=2, tau=0.1, alpha=1.0,
        lambda1=1e-6, lambda2=1e-6, lambda3=1e-4,
        k_users=(4,), k_items=(4,), batch_size=256, lr=0.05,
        max_epochs=25, patience=6, seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrain:
    def test_learns_above_random_baseline(self):
        # 30x40 synthetic: trained recall@10 must beat the mean recall of
        # random rankings (10 / n_items for singleton targets, and by
        # linearity of expectation 10 / n_items in general)
        split = random_split(30, 40, 900, seed=7)
        cfg = quick_config(max_epochs=60, patience=12)
        result = train(cfg, split)
        assert result.history[-1].loss.bpr < result.history[0].loss.bpr
        adj = build_normalized_adjacency(split)
        fp = forward(adj, result.table, cfg.n_layers)
        report = full_rank_eval(fp, split, target="valid", ns=(10,))
        rng = np.random.default_rng(0)
        baseline = []
        targets = {}
        for u, i in split.valid:
            targets.setdefault(int(u), set()).add(int(i))
        for _ in range(300):
            vals = []
            for u, rel in targets.items():
                candidates = np.setdiff1d(
                    np.arange(split.n_items), split.train_items_by_user[u]
                )
                top = rng.permutation(candidates)[:10]
                vals.append(len(set(top.tolist()) & rel) / len(rel))
            baseline.append(np.mean(vals))
        assert report.metrics["recall@10"] > np.mean(baseline)

    def test_history_is_deterministic(self):
        split = random_split(20, 25, 300, seed=2)
        cfg = quick_config(max_epochs=6, patience=10)
        a = train(cfg, split)
        b = train(cfg, split)
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            assert ra.loss.as_dict() == rb.loss.as_dict()
            assert ra.valid_ndcg10 == rb.valid_ndcg10
            assert ra.kmeans_inertia == rb.kmeans_inertia
        np.testing.assert_array_equal(a.table.matrix, b.table.matrix)

    def test_losses_finite_every_epoch(self):
        split = random_split(20, 25, 300, seed=4)
        result = train(quick_config(max_epochs=8, patience=10), split)
        for record in result.history:
            assert all(np.isfinite(v) for v in record.loss.as_dict().values())

    def test_early_stopping_restores_best(self):
        split = random_split(20, 25, 300, seed=5)
        cfg = quick_config(max_epochs=50, patience=10)
        scripted = [0.1, 0.2, 0.3, 0.4, 0.5] + [0.5] * 45  # plateau from epoch 5
        snapshots = {}

        def eval_fn(table, epoch):
            snapshots[epoch] = table.matrix.copy()
            return {"ndcg@10": scripted[epoch - 1], "recall@10": 0.0}

        result = train(cfg, split, eval_fn=eval_fn)
        assert result.stopped_early
        assert len(result.history) == 15  # 10 bad epochs after the best at 5
        assert result.best_epoch == 5
        np.testing.assert_array_equal(result.table.matrix, snapshots[5])

    def test_best_metric_never_worse_than_any_epoch(self):
        split = random_split(20, 25, 300, seed=6)
        result = train(quick_config(max_epochs=10, patience=4), split)
        assert result.best_metric >= max(r.valid_ndcg10 for r in result.history)

    def test_estep_skipped_when_lambda2_zero(self):
        split = random_split(20, 25, 300, seed=8)
        result = train(quick_config(lambda2=0.0, max_epochs=3, patience=5), split)
        assert all(r.kmeans_inertia is None for r in result.history)
        assert all(r.loss.prototype == 0.0 for r in result.history)

    def test_single_cluster_matches_disabled_prototypes(self):
        # k = 1 makes the prototype term identically zero, so the history
        # matches a lambda2 = 0 run except for the recorded inertia
        split = random_split(20, 25, 300, seed=9)
        with_k1 = train(quick_config(k_users=(1,), k_items=(1,), max_epochs=5), split)
        disabled = train(quick_config(lambda2=0.0, max_epochs=5), split)
        for ra, rb in zip(with_k1.history, disabled.history):
            assert ra.loss.prototype == 0.0
            assert ra.loss.bpr == rb.loss.bpr
            assert ra.loss.total == rb.loss.total
            assert ra.valid_ndcg10 == rb.valid_ndcg10
        np.testing.assert_array_equal(with_k1.table.matrix, disabled.table.matrix)

    def test_crash_checkpoint_written(self, tmp_path):
        split = random_split(20, 25, 300, seed=10)
        cfg = quick_config(max_epochs=5)
        boom = RuntimeError("boom")

        def eval_fn(table, epoch):
            if epoch == 2:
                raise boom
            return {"ndcg@10": 0.1}

        with pytest.raises(RuntimeError):
            train(cfg, split, out_dir=tmp_path, eval_fn=eval_fn)
        assert (tmp_path / "crash.ckpt").exists()
        from concf import load_checkpoint

        ckpt = load_checkpoint(tmp_path / "crash.ckpt")
        assert ckpt.adam_m is not None

    def test_log_stream_gets_one_line_per_epoch(self, tmp_path):
        import io
        import json

        split = random_split(20, 25, 300, seed=11)
        stream = io.StringIO()
        result = train(quick_config(max_epochs=4, patience=10), split, log_stream=stream)
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert len(lines) == len(result.history)
        assert lines[0]["epoch"] == 1 and "seconds" in lines[0]

    def test_invalid_config_rejected(self):
        split = random_split(10, 12, 80, seed=0)
        with pytest.raises(ValueError, match="k_layer"):
            train(quick_config(k_layer=3), split)

    def test_cluster_count_above_split_size_rejected_before_work(self, tmp_path):
        split = random_split(10, 12, 80, seed=0)
        with pytest.raises(ValueError, match="k_items: 13 clusters"):
            train(quick_config(k_items=(4, 13)), split, out_dir=tmp_path)
        assert not (tmp_path / "crash.ckpt").exists()
