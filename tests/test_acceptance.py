"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines. The full-scale public-dataset reproduction is a documented recipe in
the README, not a CI test.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from concf import (
    EmbeddingTable,
    TrainConfig,
    bpr_loss,
    build_normalized_adjacency,
    build_split,
    e_step,
    forward,
    full_rank_eval,
    init_embeddings,
    propagate,
    sample_negatives,
    sparsity_group_report,
    structure_contrastive_loss,
    prototype_contrastive_loss,
    total_loss_and_gradient,
    train,
)
from concf.dataset import TripleBatch
from concf.evaluator import partition_users_by_mass
from concf.trainer import (
    STREAM_INIT,
    STREAM_NEGATIVES,
    STREAM_SHUFFLE,
    AdamState,
    adam_step,
    iter_batches,
)
from concf.seeding import derive_seed, rng_stream

from conftest import key_pairs, planted_communities, random_split
from reference_metrics import ndcg_at_n, recall_at_n


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


@pytest.fixture(scope="module")
def community_split():
    return build_split(planted_communities(seed=0), seed=0)


def community_config(seed: int, lam: float, tau: float, **overrides) -> TrainConfig:
    base = dict(
        d=64, n_layers=3, k_layer=2, tau=tau, alpha=1.0,
        lambda1=lam, lambda2=lam, lambda3=1e-4,
        k_users=(8,), k_items=(8,), batch_size=4096, lr=1e-3,
        max_epochs=150, patience=10, seed=seed,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestCriterion1GradientOracle:
    def test_every_entry_matches_central_differences(self):
        with criterion(1, "gradient oracle vs central finite differences"):
            t_start = time.perf_counter()
            split = random_split(5, 7, 17, seed=7)
            assert split.n_users == 5 and split.n_items == 7
            # central differences with h = 1e-6 need float64 throughout
            adj = build_normalized_adjacency(split, dtype=np.float64)
            rng = np.random.default_rng(2024)
            table = EmbeddingTable(5, 7, rng.standard_normal((12, 8), dtype=np.float64) * 0.3)
            triples = sample_negatives(split, epoch_seed=1)
            cfg = TrainConfig(
                d=8, n_layers=2, k_layer=2, tau=0.1, alpha=1.0,
                lambda1=1e-2, lambda2=1e-2, lambda3=1e-3,
                k_users=(2,), k_items=(2,), dtype="float64",
            )
            protos = e_step(table, cfg.k_users, cfg.k_items, seed=5)
            _, grad = total_loss_and_gradient(adj, table, triples, protos, cfg)

            def loss_of(matrix: np.ndarray) -> float:
                t = EmbeddingTable(5, 7, matrix)
                b, _ = total_loss_and_gradient(adj, t, triples, protos, cfg)
                return b.total

            h = 1e-6
            worst_rel = 0.0
            for r in range(12):
                for c in range(8):
                    m = table.matrix.copy()
                    m[r, c] += h
                    f_plus = loss_of(m)
                    m[r, c] -= 2 * h
                    f_minus = loss_of(m)
                    numeric = (f_plus - f_minus) / (2 * h)
                    analytic = grad[r, c]
                    err = abs(numeric - analytic)
                    if err > 1e-8:
                        rel = err / max(abs(numeric), abs(analytic))
                        worst_rel = max(worst_rel, rel)
                        assert rel < 1e-4, f"entry ({r},{c}): rel err {rel:.2e}"
            elapsed = time.perf_counter() - t_start
            assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"


class TestCriterion2PropagationOracle:
    def test_sparse_equals_dense_product(self):
        with criterion(2, "sparse propagation vs dense matrix oracle"):
            t_start = time.perf_counter()
            rng = np.random.default_rng(0)
            for trial in range(20):
                n_users = int(rng.integers(3, 25))
                n_items = int(rng.integers(3, 25))
                n_pairs = int(rng.integers(n_users + n_items, 2 * (n_users + n_items)))
                split = random_split(n_users, n_items, min(n_pairs, n_users * n_items), seed=trial)
                adj = build_normalized_adjacency(split)
                assert adj.n_nodes <= 50
                deg_u = np.bincount(split.train[:, 0], minlength=split.n_users)
                deg_i = np.bincount(split.train[:, 1], minlength=split.n_items)
                dense = np.zeros((adj.n_nodes, adj.n_nodes))
                for u, i in split.train:
                    w = 1.0 / np.sqrt(deg_u[u] * deg_i[i])
                    dense[u, split.n_users + i] = w
                    dense[split.n_users + i, u] = w
                z = rng.standard_normal((adj.n_nodes, 6))
                diff = np.abs(propagate(adj, z) - dense @ z).max()
                assert diff < 1e-10, f"trial {trial}: max abs diff {diff:.2e}"
            elapsed = time.perf_counter() - t_start
            assert elapsed < 1.0, f"propagation oracle took {elapsed:.2f}s"


class TestCriterion3AdjointIdentity:
    def test_propagation_is_self_adjoint(self):
        with criterion(3, "propagation adjoint identity"):
            rng = np.random.default_rng(1)
            split = random_split(12, 14, 120, seed=3)
            adj = build_normalized_adjacency(split)
            for _ in range(100):
                x = rng.standard_normal((adj.n_nodes, 4))
                y = rng.standard_normal((adj.n_nodes, 4))
                lhs = float((propagate(adj, x) * y).sum())
                rhs = float((x * propagate(adj, y)).sum())
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestCriterion4TrivialLossIdentities:
    def test_batch_of_one_structure_loss(self):
        with criterion(4, "trivial loss identities"):
            split = random_split(6, 8, 24, seed=2)
            adj = build_normalized_adjacency(split)
            table = init_embeddings(6, 8, 5, seed=0)
            fp = forward(adj, table, 2)
            one_user = structure_contrastive_loss(fp, [2], [3], k_layer=2, tau=0.2, alpha=0.0)
            one_item = structure_contrastive_loss(fp, [2], [3], k_layer=2, tau=0.2, alpha=1.0)
            assert abs(one_user) < 1e-14
            assert abs(one_item) < 1e-14  # single item in the batch too

            protos = e_step(table, (1,), (1,), seed=1)
            assert prototype_contrastive_loss(table, protos, tau=0.2) == 0.0

            # equal positive and negative scores: per-triple ranking loss is ln 2
            class Fp:
                pass

            flat = Fp()
            flat.readout = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
            flat.n_users = 1
            flat.n_items = 2
            triples = TripleBatch(
                users=np.array([0]), pos_items=np.array([0]), neg_items=np.array([1])
            )
            assert abs(bpr_loss(flat, triples) - np.log(2.0)) < 1e-12


class TestCriterion5MetricOracles:
    def test_primitives_match_brute_force(self):
        with criterion(5, "metric primitives vs brute force + monotonicity"):
            rng = np.random.default_rng(3)
            for _ in range(1000):
                n_items = int(rng.integers(5, 80))
                ranked = rng.permutation(n_items).tolist()
                n_rel = int(rng.integers(1, n_items))
                relevant = set(rng.choice(n_items, size=n_rel, replace=False).tolist())
                n = int(rng.integers(1, n_items + 10))
                hits = sum(1 for x in ranked[:n] if x in relevant)
                assert recall_at_n(ranked, relevant, n) == hits / len(relevant)
                dcg = sum(
                    1.0 / np.log2(p + 1)
                    for p, x in enumerate(ranked[:n], start=1)
                    if x in relevant
                )
                idcg = sum(1.0 / np.log2(p + 1) for p in range(1, min(n, n_rel) + 1))
                assert ndcg_at_n(ranked, relevant, n) == dcg / idcg

            split = random_split(25, 30, 500, seed=4)
            adj = build_normalized_adjacency(split)
            table = init_embeddings(25, 30, 8, seed=4)
            fp = forward(adj, table, 2)
            for target in ("valid", "test"):
                report = full_rank_eval(fp, split, target=target, ns=(10, 20, 50))
                for metric in ("recall", "ndcg"):
                    vals = [report.metrics[f"{metric}@{n}"] for n in (10, 20, 50)]
                    assert vals == sorted(vals), f"{metric} not monotone: {vals}"


class TestCriterion6AblationIdentity:
    @staticmethod
    def check_ablation_identity(**dtype):
        split = random_split(100, 120, 3000, seed=6)
        cfg = TrainConfig(
            d=16, n_layers=2, k_layer=2, lambda1=0.0, lambda2=0.0, lambda3=1e-4,
            batch_size=512, lr=1e-2, max_epochs=5, patience=50, seed=17, **dtype,
        )
        result = train(cfg, split)

        # independent minimal loop: ranking backbone only, same streams, the run's dtype
        adj = build_normalized_adjacency(split, dtype=np.dtype(cfg.dtype))
        table = init_embeddings(
            split.n_users, split.n_items, cfg.d, derive_seed(cfg.seed, STREAM_INIT),
            dtype=np.dtype(cfg.dtype),
        )
        adam = AdamState.zeros_like(table)
        for epoch in range(1, 6):
            triples = sample_negatives(
                split, derive_seed(cfg.seed, STREAM_NEGATIVES, epoch)
            )
            order = rng_stream(cfg.seed, STREAM_SHUFFLE, epoch).permutation(len(triples))
            parts = []
            for batch in iter_batches(triples, order, cfg.batch_size):
                breakdown, grad = total_loss_and_gradient(adj, table, batch, None, cfg)
                adam_step(table, grad, adam, cfg)
                parts.append(breakdown)
            fp = forward(adj, table, cfg.n_layers)
            report = full_rank_eval(fp, split, target="valid", ns=(10,))
            record = result.history[epoch - 1]
            assert record.loss.bpr == np.mean([p.bpr for p in parts])
            assert record.loss.total == np.mean([p.total for p in parts])
            assert record.loss.structure == 0.0 and record.loss.prototype == 0.0
            assert record.valid_ndcg10 == report.metrics["ndcg@10"]
            assert record.kmeans_inertia is None
        assert result.table.matrix.dtype == table.matrix.dtype == np.dtype(cfg.dtype)
        # the trainer kept the best-epoch copy; epoch-5 table must match
        # only if epoch 5 was best, so compare against the final table of
        # a full re-run instead
        rerun = train(cfg, split)
        np.testing.assert_array_equal(result.table.matrix, rerun.table.matrix)

    def test_zero_weights_reproduce_backbone_bitwise(self):
        with criterion(6, "contrastive-off training equals plain backbone bitwise"):
            self.check_ablation_identity()  # the default dtype, float32

    def test_zero_weights_reproduce_backbone_bitwise_float64(self):
        with criterion(6, "contrastive-off training equals plain backbone bitwise (float64)"):
            self.check_ablation_identity(dtype="float64")


class TestCriterion7DirectionalImprovement:
    def test_contrastive_terms_lift_median_recall(self, community_split):
        with criterion(7, "contrastive objectives lift recall on planted communities"):
            t_start = time.perf_counter()
            split = community_split
            adj = build_normalized_adjacency(split, dtype=np.dtype(TrainConfig().dtype))
            seeds = (0, 1, 2)

            def run(seed, lam, tau):
                cfg = community_config(seed, lam, tau)
                res = train(cfg, split)
                fp = forward(adj, res.table, cfg.n_layers)
                test = full_rank_eval(fp, split, "test", ns=(10,))
                return res.best_metric, test.metrics["recall@10"]

            baseline = [run(s, 0.0, 0.1) for s in seeds]
            base_median = float(np.median([t for _, t in baseline]))

            grid = list(itertools.product((1e-7, 1e-6), (0.05, 0.1)))
            by_combo = {c: [run(s, c[0], c[1]) for s in seeds] for c in grid}
            best = max(grid, key=lambda c: np.median([v for v, _ in by_combo[c]]))
            tuned_median = float(np.median([t for _, t in by_combo[best]]))

            print(
                f"  baseline median recall@10 {base_median:.4f}, "
                f"tuned (lambda={best[0]:g}, tau={best[1]}) median {tuned_median:.4f}"
            )
            assert tuned_median >= base_median
            elapsed = time.perf_counter() - t_start
            assert elapsed < 300.0, f"protocol took {elapsed:.0f}s"


class TestCriterion8SparsityGroupConsistency:
    def test_masses_and_reconciliation(self, community_split):
        with criterion(8, "sparsity-group masses and recall reconciliation"):
            split = community_split
            degrees = split.train_degrees()
            groups = partition_users_by_mass(degrees, 5)
            masses = np.array([degrees[g].sum() for g in groups])
            assert masses.max() - masses.min() <= degrees.max(), (
                f"mass spread {masses.max() - masses.min()} exceeds "
                f"max degree {degrees.max()}"
            )
            adj = build_normalized_adjacency(split)
            table = init_embeddings(split.n_users, split.n_items, 16, seed=8)
            fp = forward(adj, table, 2)
            reports = sparsity_group_report(fp, split, n_groups=5, ns=(10,)).groups
            full = full_rank_eval(fp, split, target="test", ns=(10,))
            weighted = sum(r.metrics["recall@10"] * r.n_evaluated_users for r in reports)
            weighted /= sum(r.n_evaluated_users for r in reports)
            assert abs(weighted - full.metrics["recall@10"]) < 1e-12
            assert sum(r.n_evaluated_users for r in reports) == full.n_evaluated_users


# a child that runs the concf CLI with every training step's jobs on the worker thread
WORKER_CHILD = """
import os, sys
from concf import cli, overlap
overlap.OVERLAP_MIN_WORK = 0
overlap._usable_cpus = lambda: 2
code = cli.main(sys.argv[1:])
sys.exit(code or (0 if os.getpid() in overlap._WORKERS else 'the worker never started'))
"""


@pytest.fixture(scope="module")
def planted_split_dir(tmp_path_factory):
    """The criterion-7 data, prepared by ``concf prepare --seed 0``."""
    root = tmp_path_factory.mktemp("criterion9")
    data = root / "interactions.tsv"
    raw = planted_communities(seed=0)
    with open(data, "w") as fh:
        for u, i in key_pairs(raw):
            fh.write(f"{u}\t{i}\n")
    split_dir = root / "split"
    res = subprocess.run(
        [sys.executable, "-m", "concf", "prepare", "--input", str(data),
         "--out", str(split_dir), "--seed", "0"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    return split_dir


def train_and_evaluate(split_dir, out_dir, threads: int, *extra: str, worker: bool = False):
    """History without ``seconds``, checkpoint bytes and ``evaluate --groups 5``
    output of the criterion-7 job trained for 12 epochs in a child process."""
    # BLAS reads these when NumPy loads, and concf sets them to 1 before that:
    # the runs check that the child's environment cannot change what it produces
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    launch = [sys.executable, "-c", WORKER_CHILD] if worker else [sys.executable, "-m", "concf"]
    res = subprocess.run(
        [*launch, "train", "--split-dir", str(split_dir), "--out-dir", str(out_dir),
         "--lambda1", "1e-6", "--lambda2", "1e-6", "--tau", "0.05",
         "--k-users", "8", "--k-items", "8", "--seed", "0", "--max-epochs", "12", *extra],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    records = [json.loads(line) for line in (out_dir / "history.jsonl").read_text().splitlines()]
    for record in records:
        record.pop("seconds")  # wall clock is the one legitimate difference
    evaluated = subprocess.run(
        [sys.executable, "-m", "concf", "evaluate", "--checkpoint", str(out_dir / "model.ckpt"),
         "--split-dir", str(split_dir), "--groups", "5"],
        capture_output=True, text=True, env=env,
    )
    assert evaluated.returncode == 0, evaluated.stderr
    return records, (out_dir / "model.ckpt").read_bytes(), evaluated.stdout


@pytest.fixture(scope="module")
def serial_runs(planted_split_dir, tmp_path_factory):
    """The float32 criterion-9 job's outputs at 1 and at 4 BLAS threads."""
    root = tmp_path_factory.mktemp("criterion9_serial")
    return [train_and_evaluate(planted_split_dir, root / f"run_t{threads}", threads)
            for threads in (1, 4)]


class TestCriterion9ThreadCountDeterminism:
    def test_history_identical_across_blas_thread_counts(self, serial_runs):
        with criterion(9, "identical training history across thread counts"):
            runs = serial_runs
            assert runs[0] == runs[1]

    def test_history_identical_across_blas_thread_counts_float64(self, planted_split_dir, tmp_path):
        with criterion(9, "identical float64 training history across thread counts"):
            runs = [train_and_evaluate(planted_split_dir, tmp_path / f"run_t{threads}", threads,
                                       "--dtype", "float64")
                    for threads in (1, 4)]
            assert runs[0] == runs[1]

    def test_worker_step_matches_serial_runs(self, planted_split_dir, serial_runs, tmp_path):
        with criterion(9, "identical training history with the step's worker thread"):
            serial = serial_runs
            on_worker = train_and_evaluate(planted_split_dir, tmp_path / "run_worker", 4,
                                           worker=True)
            assert on_worker == serial[0] == serial[1]

    def test_import_pins_blas_to_one_thread(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4",
                   MKL_NUM_THREADS="4")
        res = subprocess.run(
            [sys.executable, "-c", "import os, concf; print(os.environ['OPENBLAS_NUM_THREADS'],"
             " os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])"],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["1", "1", "1"]


# imports NumPy and concf in the order argv[1] names, and prints the warnings seen
IMPORT_ORDER_CHILD = """
import json, sys, warnings
warnings.simplefilter("always")
with warnings.catch_warnings(record=True) as caught:
    for name in sys.argv[1].split(","):
        __import__(name)
print(json.dumps([[w.category.__name__, str(w.message)] for w in caught]))
"""


class TestImportWarnsOfBlasThreads:
    """concf pins BLAS to one thread only when NumPy is not yet loaded; a
    caller that loaded it first without one thread is warned."""

    def warnings_seen(self, order: str, **env: str) -> list[list[str]]:
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        res = subprocess.run([sys.executable, "-c", IMPORT_ORDER_CHILD, order],
                             capture_output=True, text=True, env={**base, **env})
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout)

    @pytest.mark.parametrize("env, named", [
        ({}, "OPENBLAS_NUM_THREADS=(unset)"),
        ({"OPENBLAS_NUM_THREADS": "4"}, "OPENBLAS_NUM_THREADS=4"),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, "OPENBLAS_NUM_THREADS=2"),
        ({"OMP_NUM_THREADS": "2"}, "OMP_NUM_THREADS=2"),
    ])
    def test_numpy_first_without_one_thread_warns(self, env, named):
        seen = self.warnings_seen("numpy,concf", **env)
        assert len(seen) == 1
        category, message = seen[0]
        assert category == "RuntimeWarning"
        assert named in message and "depend on the thread count" in message

    @pytest.mark.parametrize("order, env", [
        ("concf,numpy", {}),
        ("numpy,concf", {"OPENBLAS_NUM_THREADS": "1"}),
        ("numpy,concf", {"OMP_NUM_THREADS": "1"}),
    ])
    def test_concf_first_or_one_thread_is_silent(self, order, env):
        assert self.warnings_seen(order, **env) == []
