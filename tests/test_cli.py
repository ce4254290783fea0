"""End-to-end command-line pipeline: prepare, train, evaluate, export."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_raw


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "concf", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def checksum(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def interactions_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "interactions.tsv"
    raw = make_raw(25, 30, 500, seed=13)
    with open(path, "w") as fh:
        fh.write("# synthetic interactions\n")
        for u, i in raw.pairs():
            fh.write(f"{u}\t{i}\n")
    return path


@pytest.fixture(scope="module")
def split_dir(interactions_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("split") / "s"
    res = run_cli(
        "prepare", "--input", str(interactions_file), "--out", str(out), "--seed", "5"
    )
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def run_dir(split_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "r"
    res = run_cli(
        "train", "--split-dir", str(split_dir), "--out-dir", str(out),
        "--d", "8", "--batch-size", "128", "--lr", "0.05",
        "--k-users", "3", "--k-items", "3",
        "--max-epochs", "5", "--patience", "10", "--seed", "1",
    )
    assert res.returncode == 0, res.stderr
    return out


class TestPrepare:
    def test_emits_header(self, split_dir):
        header = json.loads((split_dir / "header.json").read_text())
        assert header["n_users"] == 25 and header["n_items"] == 30
        assert sum(header["counts"].values()) == 500

    def test_rerun_identical_checksums(self, interactions_file, tmp_path):
        out2 = tmp_path / "again"
        res = run_cli(
            "prepare", "--input", str(interactions_file), "--out", str(out2), "--seed", "5"
        )
        assert res.returncode == 0
        first = Path(str(interactions_file)).parent  # not the split dir
        for name in ("train.tsv", "valid.tsv", "test.tsv", "header.json"):
            ref = run_cli(
                "prepare", "--input", str(interactions_file),
                "--out", str(tmp_path / "ref"), "--seed", "5",
            )
            assert ref.returncode == 0
            assert checksum(out2 / name) == checksum(tmp_path / "ref" / name)

    def test_missing_input_nonzero_exit(self, tmp_path):
        res = run_cli("prepare", "--input", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o"))
        assert res.returncode != 0
        assert "error" in res.stderr

    def test_min_count_filters(self, tmp_path):
        path = tmp_path / "tiny.tsv"
        path.write_text("u\ti0\nu\ti1\nu\ti2\nv\ti0\nv\ti1\nv\ti2\nw\ti9\n")
        res = run_cli(
            "prepare", "--input", str(path), "--out", str(tmp_path / "o"),
            "--min-count", "2",
        )
        assert res.returncode == 0
        header = json.loads((tmp_path / "o" / "header.json").read_text())
        # w/i9 peel away (degree 1); u, v and i0..i2 survive
        assert header["n_users"] == 2 and header["n_items"] == 3
        assert header["min_count"] == 2

    def test_data_root_env_resolution(self, interactions_file, tmp_path):
        res = run_cli(
            "prepare", "--input", interactions_file.name, "--out", str(tmp_path / "o"),
            env={"CONCF_DATA_ROOT": str(interactions_file.parent)},
        )
        assert res.returncode == 0


class TestTrain:
    def test_dry_run_echoes_defaults(self, split_dir):
        # the default 1000 clusters exceed this split's 25 users and 30 items
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", "/dev/null", "--dry-run",
            "--k-users", "5", "--k-items", "5",
        )
        assert res.returncode == 0, res.stderr
        echo = json.loads(res.stdout)
        cfg = echo["config"]
        assert cfg["d"] == 64 and cfg["batch_size"] == 4096 and cfg["patience"] == 10
        assert cfg["n_layers"] == 3 and cfg["k_layer"] == 2
        assert cfg["k_users"] == [5] and cfg["k_items"] == [5]
        assert echo["n_users"] == 25

    def test_dry_run_rejects_more_clusters_than_nodes(self, split_dir, tmp_path):
        out = tmp_path / "o"
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", str(out), "--dry-run"
        )
        assert res.returncode != 0
        assert "k_users: 1000" in res.stderr and "25 users" in res.stderr
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", str(out),
            "--k-users", "25", "--k-items", "31,4",
        )
        assert res.returncode != 0
        assert "k_items: 31" in res.stderr and "30 items" in res.stderr
        assert not out.exists()

    def test_cluster_counts_unchecked_without_prototype_term(self, split_dir):
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", "/dev/null", "--dry-run",
            "--lambda2", "0",
        )
        assert res.returncode == 0, res.stderr

    def test_odd_contrast_layer_rejected(self, split_dir):
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", "/dev/null",
            "--k-layer", "3", "--dry-run",
        )
        assert res.returncode != 0
        assert "k_layer" in res.stderr

    def test_backbone_tag_when_contrastive_off(self, split_dir):
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", "/dev/null",
            "--lambda1", "0", "--lambda2", "0", "--dry-run",
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["backbone"] == "lightgcn-bpr"

    def test_artifacts_written(self, run_dir):
        for name in ("model.ckpt", "history.jsonl", "manifest.json"):
            assert (run_dir / name).exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["backbone"] == "contrastive"
        assert len(manifest["run_id"]) == 12
        history = [json.loads(l) for l in (run_dir / "history.jsonl").read_text().splitlines()]
        assert [h["epoch"] for h in history] == list(range(1, len(history) + 1))

    def test_config_file_with_flag_override(self, split_dir, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "d = 8\nbatch_size = 64\nmax_epochs = 2\n# comment\nseed = 9\n"
            "k_users = 5\nk_items = 5, 6\n"
        )
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "o"),
            "--config", str(cfg_file), "--batch-size", "32", "--dry-run",
        )
        assert res.returncode == 0
        cfg = json.loads(res.stdout)["config"]
        assert cfg["d"] == 8 and cfg["batch_size"] == 32 and cfg["seed"] == 9
        assert cfg["k_items"] == [5, 6]

    def test_unparsable_config_value_named(self, split_dir, tmp_path):
        for line, field in (("d = abc", "d"), ("k_users = 3,x", "k_users")):
            cfg_file = tmp_path / "bad.cfg"
            cfg_file.write_text(line + "\n")
            res = run_cli(
                "train", "--split-dir", str(split_dir), "--out-dir", "/dev/null",
                "--config", str(cfg_file), "--dry-run",
            )
            assert res.returncode != 0
            assert f"invalid config: {field}: " in res.stderr

    def test_unparsable_flag_value_named(self, split_dir):
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", "/dev/null",
            "--valid-user-cap", "many", "--dry-run",
        )
        assert res.returncode != 0
        assert "invalid config: valid_user_cap: " in res.stderr

    def test_one_flag_per_config_field(self):
        import dataclasses

        from concf.cli import _build_parser
        from concf.config import TrainConfig

        names = [f.name for f in dataclasses.fields(TrainConfig)]
        argv = ["train", "--split-dir", "s", "--out-dir", "o"]
        for name in names:
            argv += ["--" + name.replace("_", "-"), "raw"]
        parsed = vars(_build_parser().parse_args(argv))
        own = {"command", "split_dir", "config", "out_dir", "dry_run", "threads"}
        assert sorted(set(parsed) - own) == sorted(names)
        assert all(parsed[name] == "raw" for name in names)

    def test_config_file_strings_round_trip(self):
        from concf.config import TrainConfig

        cfg = TrainConfig(k_users=(7, 30), valid_user_cap=12, lambda2=3.5e-9)
        for base in (TrainConfig(), cfg):
            as_file = {
                key: "none" if v is None else ",".join(map(str, v)) if isinstance(v, list)
                else str(v)
                for key, v in base.to_dict().items()
            }
            assert TrainConfig.from_dict(as_file).to_dict() == base.to_dict()

    def test_unknown_config_key_named(self, split_dir, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense = 4\n")
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", "/dev/null",
            "--config", str(cfg_file), "--dry-run",
        )
        assert res.returncode != 0
        assert "nonsense" in res.stderr


class TestEvaluate:
    def test_report_keys(self, run_dir, split_dir):
        res = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(split_dir), "--ns", "10,20,50",
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        keys = {f"{m}@{n}" for m in ("recall", "ndcg") for n in (10, 20, 50)}
        assert keys <= set(report)
        for n in (10, 20):
            assert report[f"recall@{n}"] <= report[f"recall@{n * 5 // 2 if n == 20 else 20}"] + 1e-12

    def test_deterministic_output(self, run_dir, split_dir):
        args = (
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(split_dir),
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_groups_report(self, run_dir, split_dir, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(split_dir), "--groups", "5", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        assert len(report["groups"]) == 5
        masses = [g["metadata"]["group_interaction_mass"] for g in report["groups"]]
        assert sum(masses) > 0
        assert "recall@10" in report["groups"][0]

    def test_shape_mismatch_names_both(self, run_dir, tmp_path):
        small = tmp_path / "small.tsv"
        small.write_text("".join(f"u{u}\ti{i}\n" for u in range(5) for i in range(6)))
        other = tmp_path / "othersplit"
        res = run_cli("prepare", "--input", str(small), "--out", str(other))
        assert res.returncode == 0
        res = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(other),
        )
        assert res.returncode != 0
        assert "shape mismatch" in res.stderr


class TestExport:
    def test_text_row_counts(self, run_dir, split_dir, tmp_path):
        out = tmp_path / "emb"
        res = run_cli(
            "export", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(split_dir), "--format", "text", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        users = (tmp_path / "emb.users.tsv").read_text().splitlines()
        items = (tmp_path / "emb.items.tsv").read_text().splitlines()
        assert len(users) == 25 and len(items) == 30

    def test_binary_roundtrip_bitwise(self, run_dir, split_dir, tmp_path):
        from concf.model import read_matrix_binary, load_checkpoint
        from concf import DatasetSplit, build_normalized_adjacency, forward

        out = tmp_path / "emb"
        res = run_cli(
            "export", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(split_dir), "--format", "binary", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        ckpt = load_checkpoint(run_dir / "model.ckpt")
        split = DatasetSplit.load(split_dir)
        fp = forward(build_normalized_adjacency(split), ckpt.table, ckpt.n_layers)
        _, users = read_matrix_binary(f"{out}.users.bin")
        np.testing.assert_array_equal(users, fp.user_readout)

    def test_fresh_table_base_export_within_xavier_bound(self, split_dir, tmp_path):
        from concf import DatasetSplit, init_embeddings, save_checkpoint
        from concf.model import read_matrix_binary, xavier_bound

        split = DatasetSplit.load(split_dir)
        table = init_embeddings(split.n_users, split.n_items, 16, seed=0)
        ckpt_path = tmp_path / "fresh.ckpt"
        save_checkpoint(ckpt_path, table, n_layers=2)
        out = tmp_path / "fresh"
        res = run_cli(
            "export", "--checkpoint", str(ckpt_path), "--split-dir", str(split_dir),
            "--format", "binary", "--representation", "base", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        _, users = read_matrix_binary(f"{out}.users.bin")
        _, items = read_matrix_binary(f"{out}.items.bin")
        bound = xavier_bound(16)
        assert (np.abs(users) <= bound).all() and (np.abs(items) <= bound).all()
