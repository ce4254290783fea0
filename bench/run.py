"""concf benchmark: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload ml1m-joint --seed 1 --seconds 4 --trace 0

The workload's inputs are generated from ``--seed`` (see workloads.py and
README.md). The run drives concf through its public entry points, checks
every output, and prints each metric with its unit, then as its last line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same phases untraced and then
traced, and reports per-layer metrics from spans around concf's public
functions. Files go under ``.bench_out/`` in the checkout: the run's
scratch directory (removed at exit), the result with the machine record,
the spans of traced runs, and per-seed records of the deterministic outputs
that later runs on the same seed and source must reproduce bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    data: str                     # "ml1m" or "planted"
    overrides: dict               # TrainConfig fields changed from the defaults
    prepare_args: tuple           # concf prepare flags besides --input/--out
    rounds: int                   # rounds of an untraced run; see Runner.run_pass
    epochs: int                   # epochs one cycle replays
    cycle_batches: int | None     # mini-batches per epoch; None runs the whole epoch
    trains: bool = False          # the first and last rounds run trainer.train to early stopping
    data_seed: int | None = None  # fixed input seed, or None to use --seed


WORKLOADS = {
    "ml1m-joint": Workload(
        data="ml1m", overrides={}, prepare_args=("--min-count", "10"),
        rounds=3, epochs=1, cycle_batches=2,
    ),
    "planted-earlystop": Workload(
        data="planted",
        overrides={"lambda1": 1e-6, "lambda2": 1e-6, "tau": 0.05,
                   "k_users": (8,), "k_items": (8,), "max_epochs": 150, "seed": 0},
        prepare_args=("--min-count", "2", "--seed", "0"),
        rounds=32, epochs=3, cycle_batches=None, trains=True, data_seed=0,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cycle_s": "s",
    "train_triples_per_s": "1/s",
    "eval_users_per_s": "1/s",
    "evaluate_s": "s",
    "train_run_s": "s",
    "valid_ndcg10": "ratio",
    "test_recall20": "ratio",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    pass


class Ops:
    """Counts calls into concf and output checks; a raise or a false check fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{name}: {exc!r}")
            raise CheckFailed(name) from exc

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed {detail}".rstrip())
        return ok


def _pin_blas_threads() -> None:
    # read by OpenBLAS/OpenMP/MKL when NumPy loads, so this runs before any import of it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _why(workload: str) -> str:
    """The workload's reason for being, as BENCHMARK.json states it."""
    with contextlib.suppress(OSError, ValueError, KeyError, StopIteration):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    return ""


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    # a checkout without its own .git may sit inside another repository
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _machine() -> dict:
    import numpy as np
    import scipy

    def blas(cfg: dict) -> str:
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')} ({dep.get('openblas configuration', '')})"

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with contextlib.redirect_stdout(io.StringIO()):
        np_cfg = np.show_config(mode="dicts")
        sp_cfg = scipy.show_config(mode="dicts")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numpy_blas": blas(np_cfg),
        "scipy": scipy.__version__,
        "scipy_blas": blas(sp_cfg),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


@dataclass
class PassResult:
    """What one pass over the workload's phases measured and produced."""

    phase_s: dict = field(default_factory=dict)
    setup_s: list = field(default_factory=list)
    cycle_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    eval_users: int = 0
    full_step_s: list = field(default_factory=list)
    evaluate_s: list = field(default_factory=list)
    train_run_s: list = field(default_factory=list)
    epochs_run: int = 0
    train_steps: int = 0
    epoch_s: list = field(default_factory=list)
    cycle_valid_ndcg10: list = field(default_factory=list)
    deterministic: dict = field(default_factory=dict)
    grad_rows_nonzero: list = field(default_factory=list)
    probe_batch: object = None
    protos: object = None


class Runner:
    """Drives one workload's phases through concf's public entry points."""

    def __init__(self, spec: Workload, work: Path, ops: Ops) -> None:
        import numpy as np

        import concf

        self.np = np
        # concf is reached through its modules on every call, so an installed
        # tracer sees the benchmark's calls as well as concf's own
        self.c = concf
        self.spec = spec
        self.work = work
        self.ops = ops
        self.config = concf.config.TrainConfig(**spec.overrides)
        self.config.validate()
        self.tsv = work / "interactions.tsv"
        self.split_dir = work / "split"
        self.ckpt = work / "model.ckpt"
        # what evaluate reads: the trained table where the workload trains
        self.cycle_ckpt = work / "cycle.ckpt" if spec.trains else self.ckpt
        self.report_path = work / "report.json"

    def _cli(self, tr, name: str, argv: list[str]) -> None:
        with tr.span(name), contextlib.redirect_stdout(io.StringIO()):
            rc = self.ops.call(name, self.c.cli.main, argv)
        if not self.ops.check(f"{name} exit code", rc == 0, f"(exit {rc})"):
            raise CheckFailed(name)

    def setup(self, tr, res: PassResult, shape: dict) -> None:
        c, cfg, ops = self.c, self.config, self.ops
        # a repeat starts without the previous repeat's objects alive
        self.split = self.adj = self.table = self.adam = None
        gc.collect()
        t0 = time.perf_counter()
        self._cli(tr, "cli.prepare", ["prepare", "--input", str(self.tsv), "--out",
                                      str(self.split_dir), *self.spec.prepare_args])
        self.split = ops.call("dataset.load", c.dataset.DatasetSplit.load, self.split_dir)
        self.adj = ops.call("graph.build_normalized_adjacency",
                            c.graph.build_normalized_adjacency, self.split,
                            dtype=self.np.dtype(cfg.dtype))
        self.table = ops.call("model.init_embeddings", c.model.init_embeddings,
                              self.split.n_users, self.split.n_items, cfg.d,
                              c.seeding.derive_seed(cfg.seed, c.trainer.STREAM_INIT),
                              dtype=self.np.dtype(cfg.dtype))
        res.setup_s.append(time.perf_counter() - t0)
        ops.check("prepare kept the generated shape",
                  (self.split.n_users, self.split.n_items, self.split.n_interactions)
                  == (shape["users"], shape["items"], shape["interactions"]),
                  f"({self.split.n_users}, {self.split.n_items}, {self.split.n_interactions})")
        self.adam = c.trainer.AdamState.zeros_like(self.table)

    def _step(self, res: PassResult, batch, protos) -> tuple[float, float]:
        c, cfg, ops = self.c, self.config, self.ops
        t0 = time.perf_counter()
        loss, grad = ops.call("objectives.total_loss_and_gradient",
                              c.objectives.total_loss_and_gradient,
                              self.adj, self.table, batch, protos, cfg)
        ops.call("trainer.adam_step", c.trainer.adam_step, self.table, grad, self.adam, cfg)
        dt = time.perf_counter() - t0
        if len(batch) == cfg.batch_size:
            res.full_step_s.append(dt)
        parts = (loss.bpr, loss.structure, loss.prototype, loss.reg, loss.total)
        expected = (loss.bpr + cfg.lambda1 * loss.structure + cfg.lambda2 * loss.prototype
                    + cfg.lambda3 * loss.reg)
        ops.check("loss breakdown finite and additive",
                  all(math.isfinite(p) for p in parts)
                  and math.isclose(loss.total, expected, rel_tol=1e-12, abs_tol=1e-300),
                  f"{loss}")
        nonzero = float(self.np.any(grad != 0, axis=1).mean())
        res.grad_rows_nonzero.append(nonzero)
        return loss.total, nonzero

    def _batches(self, epoch: int):
        c, cfg = self.c, self.config
        triples = self.ops.call("dataset.sample_negatives", c.dataset.sample_negatives,
                                self.split,
                                c.seeding.derive_seed(cfg.seed, c.trainer.STREAM_NEGATIVES, epoch))
        order = c.seeding.rng_stream(cfg.seed, c.trainer.STREAM_SHUFFLE, epoch).permutation(
            len(triples))
        return list(c.trainer.iter_batches(triples, order, cfg.batch_size))

    def _valid_eval(self, res: PassResult):
        c, cfg, ops = self.c, self.config, self.ops
        fp = ops.call("model.forward", c.model.forward, self.adj, self.table, cfg.n_layers)
        t0 = time.perf_counter()
        report = ops.call("evaluator.full_rank_eval", c.evaluator.full_rank_eval, fp,
                          self.split, target="valid", ns=(10,), user_cap=cfg.valid_user_cap)
        res.eval_s.append(time.perf_counter() - t0)
        res.eval_users = report.n_evaluated_users
        self._check_metrics("valid eval", report.metrics, report.n_evaluated_users,
                            self.split.valid)
        return report

    def cycles(self, res: PassResult, out: dict) -> None:
        """Replays trainer.train's epochs (E-step, negatives and shuffle, steps,
        valid eval), then checkpoints the table."""
        c, cfg, ops = self.c, self.config, self.ops
        ndcg, steps = [], []
        for epoch in range(1, self.spec.epochs + 1):
            t0 = time.perf_counter()
            protos = None
            if cfg.lambda2 > 0:
                points = None, None
                if cfg.cluster_source == "readout":
                    fp = ops.call("model.forward", c.model.forward, self.adj, self.table,
                                  cfg.n_layers)
                    points = fp.user_readout, fp.item_readout
                protos = ops.call(
                    "prototypes.e_step", c.prototypes.e_step, self.table, cfg.k_users,
                    cfg.k_items, c.seeding.derive_seed(cfg.seed, c.trainer.STREAM_KMEANS, epoch),
                    max_iters=cfg.kmeans_max_iters, tol=cfg.kmeans_tol,
                    user_points=points[0], item_points=points[1])
            batches = self._batches(epoch)
            used = batches[: self.spec.cycle_batches]
            for batch in used:
                steps.append(list(self._step(res, batch, protos)))
            ndcg.append(self._valid_eval(res).metrics["ndcg@10"])
            res.cycle_s.append(time.perf_counter() - t0)
        res.probe_batch, res.protos = used[0], protos
        self._rest = (batches[len(used):] + batches[: len(used)], protos)
        res.cycle_valid_ndcg10 = res.cycle_valid_ndcg10 or ndcg
        out.update(cycle_valid_ndcg10=ndcg, cycle_steps_loss_and_nonzero_rows=steps)
        self.save_checkpoint(self.cycle_ckpt, self.table, self.spec.epochs)

    def steps(self, res: PassResult, seconds: float) -> None:
        """Timing only: steps on the last cycle's batches for ``seconds``."""
        batches, protos = self._rest
        spent, i = 0.0, 0
        while spent < seconds:
            t0 = time.perf_counter()
            self._step(res, batches[i % len(batches)], protos)
            spent += time.perf_counter() - t0
            i += 1

    def save_checkpoint(self, path: Path, table, epoch: int) -> None:
        c, ops = self.c, self.ops
        ops.call("model.save_checkpoint", c.model.save_checkpoint, path, table,
                 n_layers=self.config.n_layers, epoch=epoch)
        back = ops.call("model.load_checkpoint", c.model.load_checkpoint, path)
        ops.check("checkpoint round trip",
                  back.table.matrix.dtype == table.matrix.dtype
                  and self.np.array_equal(back.table.matrix, table.matrix)
                  and back.n_layers == self.config.n_layers)

    def train_to_stop(self, res: PassResult, out: dict) -> None:
        c, ops = self.c, self.ops
        t0 = time.perf_counter()
        result = ops.call("trainer.train", c.trainer.train, self.config, self.split)
        res.train_run_s.append(time.perf_counter() - t0)
        res.epochs_run = len(result.history)
        res.epoch_s = [r.seconds for r in result.history]
        res.train_steps = sum(r.n_batches for r in result.history)
        replayed = res.cycle_valid_ndcg10[: res.epochs_run]
        ops.check("benchmark cycles replay train's first epochs",
                  [r.valid_ndcg10 for r in result.history[: len(replayed)]] == replayed)
        ops.check("early stopping ran", 1 <= result.best_epoch <= res.epochs_run)
        out.update(best_valid_ndcg10=result.best_metric, epochs_run=res.epochs_run,
                   best_epoch=result.best_epoch)
        self.save_checkpoint(self.ckpt, result.table, result.best_epoch)

    def evaluate(self, tr, res: PassResult, out: dict) -> None:
        t0 = time.perf_counter()
        self._cli(tr, "cli.evaluate", [
            "evaluate", "--checkpoint", str(self.ckpt), "--split-dir", str(self.split_dir),
            "--target", "test", "--ns", "10,20,50", "--groups", "5",
            "--out", str(self.report_path),
        ])
        res.evaluate_s.append(time.perf_counter() - t0)
        report = json.loads(self.report_path.read_text())
        metrics = {k: v for k, v in report.items() if "@" in k}
        self._check_metrics("test eval", metrics, report["n_evaluated_users"], self.split.test)
        groups = report.get("groups") or []
        users = [g["n_evaluated_users"] for g in groups]
        self.ops.check("sparsity groups cover the evaluated users",
                       len(groups) == 5 and sum(users) == report["n_evaluated_users"])
        for key, full in metrics.items():
            weighted = sum(g[key] * n for g, n in zip(groups, users)) / max(sum(users), 1)
            self.ops.check(f"group {key} reconciles with the full value",
                           abs(weighted - full) < 1e-12, f"({weighted!r} vs {full!r})")
        for g in groups:
            self._check_metrics("group eval", {k: v for k, v in g.items() if "@" in k},
                                g["n_evaluated_users"], None)
        out["test_recall20"] = report["recall@20"]

    def _check_metrics(self, what: str, metrics: dict, n_users: int, target_pairs) -> None:
        self.ops.check(f"{what} metrics in [0, 1]",
                       bool(metrics) and all(0.0 <= v <= 1.0 for v in metrics.values()),
                       f"{metrics}")
        if target_pairs is not None:
            expected = len(self.np.unique(target_pairs[:, 0]))
            self.ops.check(f"{what} evaluated every user with a target", n_users == expected,
                           f"({n_users} vs {expected})")

    def run_pass(self, tr, shape: dict, seconds: float | None, rounds: int) -> PassResult:
        """The workload's phases in ``rounds`` rounds. Each round sets up afresh,
        replays the cycle and checkpoints it, trains to early stopping (the
        first and last rounds, where the workload trains) and evaluates. With
        ``seconds``, full-batch steps for timing follow every phase but set-up,
        ``seconds`` in all, and a valid eval ends every round. The shared
        machine's speed drifts over seconds to minutes, so every kind of sample
        is spread over the run: samples taken back to back would all land in
        one stretch of it. Every round must reproduce the first round's
        deterministic outputs bit for bit."""
        res = PassResult()
        spec = self.spec
        # steps follow every phase but set-up, whose fresh table the cycle replays from
        train_rounds = {0, rounds - 1} if spec.trains else set()
        points = 2 * rounds + len(train_rounds)
        with tr.span("pass"):
            for r in range(rounds):
                out: dict = {}
                phases = [("setup", lambda: self.setup(tr, res, shape)),
                          ("cycle", lambda: self.cycles(res, out))]
                if r in train_rounds:
                    phases.append(("train", lambda: self.train_to_stop(res, out)))
                phases.append(("evaluate", lambda: self.evaluate(tr, res, out)))
                for name, phase in phases:
                    self._phase(tr, res, name, phase)
                    if seconds is not None and name != "setup":
                        self._phase(tr, res, "samples", lambda: self.steps(res, seconds / points))
                if seconds is not None:
                    self._phase(tr, res, "samples", lambda: self._valid_eval(res))
                if r == 0:
                    res.deterministic = out
                    continue
                differ = sorted(k for k in out if out[k] != res.deterministic[k])
                self.ops.check("round reproduces the first round bit for bit", not differ,
                               f"(round {r}: {', '.join(differ)})")
        if not spec.trains:
            res.train_run_s = res.cycle_s
        return res

    @staticmethod
    def _phase(tr, res: PassResult, name: str, phase) -> None:
        gc.collect()
        t0 = time.perf_counter()
        with tr.span(f"phase.{name}"):
            phase()
        res.phase_s[name] = res.phase_s.get(name, 0.0) + time.perf_counter() - t0

    def probe_losses(self, tr, res: PassResult) -> dict:
        """Forward-only cost of each public loss function on the first cycle batch."""
        c, cfg, ops = self.c, self.config, self.ops
        batch = res.probe_batch
        out = {}
        with tr.span("probe"):
            fp = ops.call("model.forward", c.model.forward, self.adj, self.table, cfg.n_layers)
            touched = self.np.concatenate([batch.users, batch.pos_items + self.table.n_users,
                                           batch.neg_items + self.table.n_users])
            probes = [("bpr_loss", True, lambda: c.objectives.bpr_loss(fp, batch)),
                      ("structure_contrastive_loss", cfg.lambda1 > 0,
                       lambda: c.objectives.structure_contrastive_loss(
                           fp, batch.users, batch.pos_items, cfg.k_layer, cfg.tau, cfg.alpha)),
                      ("prototype_contrastive_loss", cfg.lambda2 > 0,
                       lambda: c.objectives.prototype_contrastive_loss(
                           self.table, res.protos, cfg.tau, cfg.alpha)),
                      ("reg_loss", cfg.lambda3 > 0,
                       lambda: c.objectives.reg_loss(self.table, touched))]
            for name, active, fn in probes:
                out[name] = 0.0
                if active:
                    t0 = time.perf_counter()
                    value = ops.call(f"objectives.{name}", fn)
                    out[name] = time.perf_counter() - t0
                    ops.check(f"{name} finite", math.isfinite(value))
        return out


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(res: PassResult, batch_size: int) -> dict:
    return {
        "setup_s": _median(res.setup_s),
        "cycle_s": _median(res.cycle_s),
        "train_triples_per_s": batch_size / _median(res.full_step_s),
        "eval_users_per_s": res.eval_users / _median(res.eval_s),
        "evaluate_s": _median(res.evaluate_s),
        "train_run_s": _median(res.train_run_s),
        "valid_ndcg10": res.deterministic.get("best_valid_ndcg10",
                                              res.deterministic["cycle_valid_ndcg10"][-1]),
        "test_recall20": res.deterministic["test_recall20"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, runner: Runner, traced: PassResult, probes: dict, ops: Ops) -> dict:
    from tracing import SpanIndex

    ix = SpanIndex(tracer.spans, {"pass"})
    cfg = runner.config
    adj = runner.adj
    itemsize = runner.np.dtype(cfg.dtype).itemsize
    n_nodes = adj.n_nodes

    # completeness: a binding the tracer missed would silently zero a layer
    steps = ix.calls("objectives.total_loss_and_gradient")
    per_step = ix.descendants_per_call("objectives.total_loss_and_gradient", "graph.propagate")
    expected_steps = len(traced.grad_rows_nonzero) + traced.train_steps
    ops.check("one total_loss_and_gradient per step", steps == expected_steps > 0,
              f"({steps} spans for {expected_steps} steps)")
    ops.check("2L propagate calls per step", all(n == 2 * cfg.n_layers for n in per_step),
              f"({sorted(set(per_step))}, expected {2 * cfg.n_layers})")
    ops.check("one adam_step per step", ix.calls("trainer.adam_step") == steps)
    e_steps = ix.calls("prototypes.e_step")
    expected_e_steps = (runner.spec.epochs + traced.epochs_run) if cfg.lambda2 > 0 else 0
    ops.check("one e_step per cycle and epoch", e_steps == expected_e_steps,
              f"({e_steps} vs {expected_e_steps})")
    per_e_step = ix.descendants_per_call("prototypes.e_step", "prototypes.run_kmeans")
    sides = len(cfg.k_users) + len(cfg.k_items)
    ops.check("run_kmeans once per side and granularity",
              all(n == sides for n in per_e_step), f"({sorted(set(per_e_step))} vs {sides})")
    negatives = ix.calls("dataset.sample_negatives")
    ops.check("one sample_negatives per cycle and epoch",
              negatives == runner.spec.epochs + traced.epochs_run)
    for name in ("dataset.load_interactions", "dataset.build_split", "dataset.save",
                 "dataset.load", "graph.build_normalized_adjacency", "model.init_embeddings",
                 "model.forward", "model.save_checkpoint", "model.load_checkpoint",
                 "evaluator.full_rank_eval", "evaluator.sparsity_group_report"):
        ops.check(f"{name} traced", ix.calls(name) > 0)
    ops.check("dataset.k_core_filter traced", ix.calls("dataset.k_core_filter") == 1)

    kmeans_iters = sum(ix.notes("prototypes.run_kmeans"))
    # what the tracer added to the traced pass: its measured cost per span times
    # the spans it recorded. Comparing the traced with the untraced pass instead
    # would measure their order (the first runs cold) and the machine's drift.
    overhead = tracer.cost_per_span() * len(tracer.spans)
    return {
        "dataset.load_interactions_s": ix.total("dataset.load_interactions"),
        "dataset.k_core_filter_s": ix.total("dataset.k_core_filter"),
        "dataset.build_split_s": ix.total("dataset.build_split"),
        "dataset.save_s": ix.total("dataset.save"),
        "dataset.load_s": ix.total("dataset.load"),
        "dataset.sample_negatives_s": ix.total("dataset.sample_negatives"),
        "graph.build_normalized_adjacency_s": ix.total("graph.build_normalized_adjacency"),
        "graph.propagate_calls": ix.calls("graph.propagate"),
        "graph.propagate_s_p50": ix.p50("graph.propagate"),
        "graph.propagate_busy_s": ix.busy("graph.propagate"),
        "graph.propagate_flop": 2 * adj.nnz * cfg.d,
        # CSR weights and column ids, row pointers, one gathered input row per
        # nonzero and the written output
        "graph.propagate_bytes_computed": (adj.nnz * (adj.weights.itemsize
                                                      + adj.indices.itemsize)
                                           + (n_nodes + 1) * adj.indptr.itemsize
                                           + adj.nnz * cfg.d * itemsize
                                           + n_nodes * cfg.d * itemsize),
        "model.init_embeddings_s": ix.total("model.init_embeddings"),
        "model.forward_s_p50": ix.p50("model.forward"),
        "model.save_checkpoint_s": ix.total("model.save_checkpoint"),
        "model.load_checkpoint_s": ix.total("model.load_checkpoint"),
        "objectives.total_loss_and_gradient_s_p50": ix.p50("objectives.total_loss_and_gradient"),
        "objectives.total_loss_and_gradient_busy_s": ix.busy("objectives.total_loss_and_gradient"),
        "objectives.bpr_loss_s": probes["bpr_loss"],
        "objectives.structure_contrastive_loss_s": probes["structure_contrastive_loss"],
        "objectives.prototype_contrastive_loss_s": probes["prototype_contrastive_loss"],
        "objectives.reg_loss_s": probes["reg_loss"],
        "objectives.grad_rows_nonzero_frac": _median(traced.grad_rows_nonzero),
        "prototypes.e_step_s": ix.total("prototypes.e_step"),
        "prototypes.run_kmeans_calls": ix.calls("prototypes.run_kmeans"),
        "prototypes.kmeans_iters": kmeans_iters,
        "prototypes.run_kmeans_s_p50": ix.p50("prototypes.run_kmeans"),
        "trainer.adam_step_s_p50": ix.p50("trainer.adam_step"),
        "trainer.adam_step_busy_s": ix.busy("trainer.adam_step"),
        "trainer.epochs_run": traced.epochs_run,
        "trainer.epoch_s_p50": _median(traced.epoch_s),
        "evaluator.full_rank_eval_s": ix.total("evaluator.full_rank_eval"),
        "evaluator.full_rank_eval_calls": ix.calls("evaluator.full_rank_eval"),
        "evaluator.users_evaluated": sum(ix.notes("evaluator.full_rank_eval")),
        "evaluator.sparsity_group_report_s": ix.total("evaluator.sparsity_group_report"),
        "cli.prepare_s": ix.total("cli.prepare"),
        "cli.evaluate_s": ix.total("cli.evaluate"),
        "trace.overhead_s": overhead,
    }


def _unit(name: str) -> str:
    if name.endswith(("_s", "_s_p50")):
        return "s"
    if name.endswith("_flop"):
        return "flop"
    if name.endswith("_bytes_computed"):
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _compare_records(path: Path, deterministic: dict, ops: Ops) -> None:
    """Earlier runs on this seed and source must have produced the same values."""
    old = json.loads(path.read_text()) if path.exists() else {}
    differ = sorted(k for k in old.keys() & deterministic.keys() if old[k] != deterministic[k])
    ops.check("deterministic outputs equal an earlier run on this seed", not differ,
              f"({', '.join(differ)})")
    _write_json(path, {**old, **deterministic})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time the full-batch training steps run for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import concf
        import concf.cli  # noqa: F401  (traced binding sites must all be loaded)
    except ImportError as exc:
        print(f"error: cannot import concf from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(concf.__file__).resolve().parent != (src / "concf").resolve():
        print(f"error: imported concf from {concf.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from tracing import NullTracer, Tracer

    spec = WORKLOADS[args.workload]
    seed = args.seed if spec.data_seed is None else spec.data_seed
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{run_id}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    metrics: dict = {}
    units: dict = {}
    phases: dict = {}
    samples: dict = {}
    binding_sites: dict = {}
    machine = _machine()
    shape: dict = {}
    try:
        runner = Runner(spec, work, ops)
        generate = workloads.ml1m_like if spec.data == "ml1m" else workloads.planted_communities
        shape = generate(runner.tsv, seed).as_dict()
        if args.trace == 0:
            res = runner.run_pass(NullTracer(), shape, args.seconds, spec.rounds)
            metrics = end_to_end(res, runner.config.batch_size)
            units = END_TO_END_UNITS
            deterministic = res.deterministic
            phases = {"untraced": res.phase_s}
            samples = {k: getattr(res, k) for k in ("setup_s", "cycle_s", "full_step_s",
                                                    "eval_s", "evaluate_s", "train_run_s")}
        else:
            untraced = runner.run_pass(NullTracer(), shape, None, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.run_pass(tracer, shape, None, 1)
                probes = runner.probe_losses(tracer, traced)
            finally:
                tracer.uninstall()
                tracer.write(OUT / "traces" / f"{run_id}.jsonl")
            ops.check("traced pass reproduces the untraced pass bit for bit",
                      traced.deterministic == untraced.deterministic)
            metrics = per_layer(tracer, runner, traced, probes, ops)
            phases = {"untraced": untraced.phase_s, "traced": traced.phase_s}
            binding_sites = tracer.binding_sites
            units = {name: _unit(name) for name in metrics}
            deterministic = {**traced.deterministic,
                             "kmeans_iters": metrics["prototypes.kmeans_iters"]}
        _compare_records(
            OUT / "records" / f"{args.workload}-seed{seed}-{machine['source_sha256'][:16]}.json",
            deterministic, ops)
    except CheckFailed:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)

    why = _why(args.workload)
    print(f"workload {args.workload} (seed {seed}, trace {args.trace}): {why}")
    print("input " + " ".join(f"{k}={v}" for k, v in shape.items()))
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {units[name]}")
    print(f"  {'ops_failed_frac':44s} {ops.failed / max(ops.attempted, 1):>16.6g} "
          f"ratio (of {ops.attempted} operations)")
    for failure in ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    _write_json(OUT / "results" / f"{run_id}.json",
                {**result, "workload": args.workload, "seed": seed, "why": why,
                 "input": shape, "machine": machine, "phase_s": phases,
                 "samples": samples, "binding_sites": binding_sites,
                 "failures": ops.failures})
    print(json.dumps(result))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
