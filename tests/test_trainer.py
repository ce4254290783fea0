"""Adam updates, the training loop, early stopping, and reproducibility."""

import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from concf import (
    AdamState,
    EmbeddingTable,
    TrainConfig,
    adam_step,
    build_normalized_adjacency,
    build_split,
    forward,
    full_rank_eval,
    train,
)
from concf.trainer import ADAM_EPS, BETA1, BETA2

from conftest import open_worker_gate, planted_communities, random_split, worker_started


def scalar_table(value=1.0):
    return EmbeddingTable(1, 1, np.array([[value], [0.0]]))


class TestAdamStep:
    def test_constants_are_torch_defaults(self):
        assert (BETA1, BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)

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
        expected = 2.0 - cfg.lr * 1.0 / (1.0 + ADAM_EPS)
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

    def test_zero_gradient_row_decays_moments_and_moves(self):
        # dense Adam, as torch.optim.Adam: row 0 never gets a gradient after
        # the moments are seeded, yet its moments decay by beta1 / beta2 and
        # it keeps moving by the bias-corrected ratio of what is left
        cfg = TrainConfig(lr=0.05)
        rng = np.random.default_rng(0)
        table = EmbeddingTable(2, 2, rng.standard_normal((4, 3)))
        state = AdamState.zeros_like(table)
        state.m[:] = 0.5
        state.v[:] = 0.25
        state.step = 3
        grads = np.zeros((4, 3))
        grads[1] = 1.0
        start = table.matrix[0].copy()
        m, v, x = 0.5, 0.25, start
        for t in range(4, 9):
            row1 = table.matrix[1].copy()
            adam_step(table, grads, state, cfg)
            m, v = BETA1 * m, BETA2 * v
            m_hat, v_hat = m / (1 - BETA1 ** t), v / (1 - BETA2 ** t)
            x = x - cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            assert state.step == t
            np.testing.assert_allclose(state.m[0], m, rtol=1e-15)
            np.testing.assert_allclose(state.v[0], v, rtol=1e-15)
            np.testing.assert_allclose(table.matrix[0], x, rtol=1e-14)
            assert (table.matrix[1] < row1).all()
        # the decaying positive first moment kept pulling the row down
        assert (start - table.matrix[0] > 0.01).all()

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
        adj = build_normalized_adjacency(split, dtype=np.dtype(cfg.dtype))
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
                    np.arange(split.n_items), split.train_matrix[u].indices
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
            assert asdict(ra.loss) == asdict(rb.loss)
            assert ra.valid_ndcg10 == rb.valid_ndcg10
            assert ra.kmeans_inertia == rb.kmeans_inertia
        np.testing.assert_array_equal(a.table.matrix, b.table.matrix)

    def test_losses_finite_every_epoch(self):
        split = random_split(20, 25, 300, seed=4)
        result = train(quick_config(max_epochs=8, patience=10), split)
        for record in result.history:
            assert all(np.isfinite(v) for v in asdict(record.loss).values())

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

    @staticmethod
    def crash_at_epoch_two(tmp_path, error):
        """Train until eval_fn raises ``error`` at epoch 2, then check that
        crash.ckpt holds that epoch's table."""
        split = random_split(20, 25, 300, seed=10)
        cfg = quick_config(max_epochs=5)
        snapshots = {}

        def eval_fn(table, epoch):
            snapshots[epoch] = table.matrix.copy()
            if epoch == 2:
                raise error
            return {"ndcg@10": 0.1}

        with pytest.raises(type(error)):
            train(cfg, split, out_dir=tmp_path, eval_fn=eval_fn)
        from concf import load_checkpoint

        ckpt = load_checkpoint(tmp_path / "crash.ckpt")
        assert ckpt.table.matrix.shape == (split.n_users + split.n_items, cfg.d)
        assert ckpt.epoch == 1 and ckpt.n_layers == cfg.n_layers
        np.testing.assert_array_equal(ckpt.table.matrix, snapshots[2])

    def test_crash_checkpoint_written(self, tmp_path):
        self.crash_at_epoch_two(tmp_path, RuntimeError("boom"))

    def test_crash_checkpoint_written_on_keyboard_interrupt(self, tmp_path):
        self.crash_at_epoch_two(tmp_path, KeyboardInterrupt())

    def test_progress_gets_one_call_per_epoch(self):
        split = random_split(20, 25, 300, seed=11)
        seen = []
        result = train(quick_config(max_epochs=4, patience=10), split, progress=seen.append)
        assert [record.epoch for record in seen] == [1, 2, 3, 4]
        assert seen == result.history

    def test_invalid_config_rejected(self):
        split = random_split(10, 12, 80, seed=0)
        with pytest.raises(ValueError, match="k_layer"):
            train(quick_config(k_layer=3), split)

    @pytest.mark.parametrize("field, value", [("max_epochs", 0), ("seed", -1)])
    def test_bad_field_rejected_before_work(self, tmp_path, field, value):
        split = random_split(10, 12, 80, seed=0)
        with pytest.raises(ValueError, match=f"^{field}: must be >= "):
            train(quick_config(**{field: value}), split, out_dir=tmp_path)
        assert not (tmp_path / "crash.ckpt").exists()

    def test_cluster_count_above_split_size_rejected_before_work(self, tmp_path):
        split = random_split(10, 12, 80, seed=0)
        with pytest.raises(ValueError, match="k_items: 13 clusters"):
            train(quick_config(k_items=(13,)), split, out_dir=tmp_path)
        assert not (tmp_path / "crash.ckpt").exists()

    @pytest.mark.parametrize("empty, custom_eval", [
        ("train", False), ("train", True), ("valid", False),
    ])
    def test_empty_split_rejected_before_first_e_step(self, tmp_path, monkeypatch, empty,
                                                      custom_eval):
        import concf.trainer

        def no_e_step(*args, **kwargs):
            raise AssertionError("the E-step ran")

        monkeypatch.setattr(concf.trainer, "e_step", no_e_step)
        split = random_split(10, 12, 80, seed=0)
        setattr(split, empty, np.empty((0, 2), dtype=np.int64))
        eval_fn = (lambda table, epoch: {}) if custom_eval else None
        with pytest.raises(ValueError, match=f"^{empty} split is empty$"):
            train(quick_config(), split, out_dir=tmp_path, eval_fn=eval_fn)
        assert not list(tmp_path.iterdir())

    def test_custom_evaluation_needs_no_valid_split(self):
        split = random_split(10, 12, 80, seed=0)
        split.valid = np.empty((0, 2), dtype=np.int64)
        result = train(quick_config(max_epochs=1), split, eval_fn=lambda table, epoch: {})
        assert len(result.history) == 1


FLOAT_FIELDS = [f.name for f in fields(TrainConfig) if f.type == "float"]


class TestStepWorker:
    def test_open_gate_trains_the_same_bytes(self, monkeypatch):
        # the criterion-7 job, cut to 3 epochs
        split = build_split(planted_communities(seed=0), seed=0)
        cfg = TrainConfig(tau=0.05, lambda1=1e-6, lambda2=1e-6, k_users=(8,), k_items=(8,),
                          max_epochs=3, seed=0)
        runs = {}
        for gate in ("closed", "open"):
            if gate == "open":
                open_worker_gate(monkeypatch)
            result = train(cfg, split)
            history = [asdict(record) for record in result.history]
            for record in history:
                record.pop("seconds")
            runs[gate] = history, result.table.matrix.tobytes()
        assert worker_started()
        assert len(runs["open"][0]) == 3
        assert runs["open"] == runs["closed"]


class TestConfigValidate:
    def test_float_fields(self):
        assert FLOAT_FIELDS == ["tau", "alpha", "lambda1", "lambda2", "lambda3", "lr"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_nonfinite_float_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: must be finite$"):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value, message", [
        ("d", 0, "must be >= 1"),
        ("n_layers", 0, "must be >= 1"),
        ("k_layer", 3, "must be a positive even number"),
        ("k_layer", 4, "must be <= n_layers"),
        ("tau", 0.0, "must be > 0"),
        ("alpha", -0.5, "must be >= 0"),
        ("lambda1", -1e-7, "must be >= 0"),
        ("lambda2", -1e-7, "must be >= 0"),
        ("lambda3", -1e-4, "must be >= 0"),
        ("batch_size", 0, "must be >= 1"),
        ("lr", 0.0, "must be > 0"),
        ("max_epochs", 0, "must be >= 1"),
        ("patience", 0, "must be >= 1"),
        ("seed", -1, "must be >= 0"),
        ("dtype", "float16", "must be 'float64' or 'float32'"),
    ])
    def test_bound_named(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field}: {message}')}$"):
            TrainConfig(**{field: value}).validate()

    def test_bench_read_attributes_are_library_defaults(self):
        # not fields, so no flag or config key sets them; train() leaves the
        # E-step's K-means limits and the validation user cap at these defaults
        import inspect

        from concf import e_step

        names = {"cluster_source", "kmeans_max_iters", "kmeans_tol", "valid_user_cap"}
        assert names.isdisjoint(f.name for f in fields(TrainConfig))
        e_defaults = inspect.signature(e_step).parameters
        eval_defaults = inspect.signature(full_rank_eval).parameters
        assert TrainConfig.cluster_source == "base"
        assert TrainConfig.kmeans_max_iters == e_defaults["max_iters"].default
        assert TrainConfig.kmeans_tol == e_defaults["tol"].default
        assert TrainConfig.valid_user_cap is eval_defaults["user_cap"].default
        with pytest.raises(TypeError):
            TrainConfig(valid_user_cap=12)

    @pytest.mark.parametrize("field", ["k_users", "k_items"])
    @pytest.mark.parametrize("value", [(2, 4), (), (0,), [8], 8])
    def test_one_cluster_count_per_side(self, field, value):
        message = f"{field}: must be one cluster count >= 1, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{field: value}).validate()


class TestFloat32:
    def test_every_array_of_a_run_stays_float32(self, monkeypatch, tmp_path):
        import concf.objectives
        import concf.trainer
        from concf import load_checkpoint, save_checkpoint

        seen: dict[str, set] = {}

        def note(what, *arrays):
            seen.setdefault(what, set()).update(a.dtype for a in arrays)

        def spy(module, name, record):
            real = getattr(module, name)

            def wrapped(*args, **kwargs):
                out = real(*args, **kwargs)
                record(out, *args)
                return out

            monkeypatch.setattr(module, name, wrapped)

        spy(concf.objectives, "forward",
            lambda fp, *_: note("step forward layers and readout", *fp.layers, fp.readout))
        spy(concf.trainer, "forward",
            lambda fp, *_: note("eval forward layers and readout", *fp.layers, fp.readout))
        spy(concf.trainer, "e_step", lambda protos, *_: note(
            "centroids", protos.users.centroids, protos.items.centroids))

        def after_adam(_, table, grads, state, cfg):
            note("gradient", grads)
            note("adam moments", state.m, state.v)
            note("table", table.matrix)

        spy(concf.trainer, "adam_step", after_adam)

        cfg = quick_config(max_epochs=2)
        assert cfg.dtype == "float32" and cfg.lambda1 > 0 and cfg.lambda2 > 0
        result = train(cfg, random_split(20, 25, 300, seed=12))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.table, n_layers=cfg.n_layers, epoch=result.best_epoch)
        note("loaded checkpoint table", load_checkpoint(path).table.matrix)

        assert seen == dict.fromkeys([
            "step forward layers and readout", "eval forward layers and readout", "centroids",
            "gradient", "adam moments", "table", "loaded checkpoint table",
        ], {np.dtype(np.float32)})
