"""End-to-end command-line pipeline: prepare, train, evaluate, export."""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import fail_mid_write, key_pairs, make_raw, open_worker_gate, worker_started


def run_cli(*args, env=None, process=False):
    """``concf *args`` with ``env`` added to the environment: its exit code,
    stdout and stderr.

    It runs through ``cli.main`` in this process, or with ``process`` through
    ``python -m concf``. In process, both streams are captured, argparse's
    exit becomes the exit code, each call shows its warnings on stderr as a
    new process would, and any other exception fails the test.
    """
    if process:
        return subprocess.run([sys.executable, "-m", "concf", *args], capture_output=True,
                              text=True, env={**os.environ, **(env or {})})
    from concf import cli

    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    with mock.patch.dict(os.environ, env or {}), warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        warnings.showwarning = show
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def checksum(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_error_names(res, path):
    """A one-line ``error: ...`` exit naming ``path``, without a traceback."""
    assert res.returncode == 1
    assert res.stderr.startswith("error: ") and str(path) in res.stderr
    assert "Traceback" not in res.stderr


@pytest.fixture(scope="module")
def interactions_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "interactions.tsv"
    raw = make_raw(25, 30, 500, seed=13)
    with open(path, "w") as fh:
        fh.write("# synthetic interactions\n")
        for u, i in key_pairs(raw):
            fh.write(f"{u}\t{i}\n")
    return path


@pytest.fixture(scope="module")
def split_dir(interactions_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("split") / "s"
    res = run_cli(
        "prepare", "--input", str(interactions_file), "--out", str(out), "--seed", "5",
        process=True,
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
        "--max-epochs", "5", "--patience", "10", "--seed", "1", process=True,
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
        ref = run_cli(
            "prepare", "--input", str(interactions_file),
            "--out", str(tmp_path / "ref"), "--seed", "5",
        )
        assert ref.returncode == 0
        for name in ("train.tsv", "valid.tsv", "test.tsv", "header.json"):
            assert checksum(out2 / name) == checksum(tmp_path / "ref" / name)

    def test_unparsable_ratios_name_the_flag(self, interactions_file, tmp_path):
        res = run_cli(
            "prepare", "--input", str(interactions_file), "--out", str(tmp_path / "o"),
            "--ratios", "a,b,c",
        )
        assert res.returncode == 1
        assert res.stderr == "error: --ratios: could not convert string to float: 'a'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("ratios", ["nan,0.5,0.5", "inf,0,0", "0.5,0.5", "0.5,0.2,0.2"])
    def test_bad_ratios_rejected_before_reading_input(self, tmp_path, capsys, ratios):
        from concf import cli

        # the input does not exist, so a later check would report it instead
        rc = cli.main(["prepare", "--input", str(tmp_path / "missing.tsv"),
                       "--out", str(tmp_path / "o"), "--ratios", ratios])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: --ratios: must be three finite nonnegative values summing to 1, got "
        )

    def test_zero_train_ratio_rejected(self, interactions_file, tmp_path):
        res = run_cli("prepare", "--input", str(interactions_file), "--out", str(tmp_path / "o"),
                      "--ratios", "0,0.5,0.5")
        assert res.returncode == 1
        assert res.stderr == "error: --ratios: the train fraction must be > 0, got (0.0, 0.5, 0.5)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [("--min-count", "-3"), ("--seed", "-1")])
    def test_negative_flag_named(self, interactions_file, tmp_path, flag, value):
        res = run_cli(
            "prepare", "--input", str(interactions_file), "--out", str(tmp_path / "o"),
            flag, value,
        )
        assert res.returncode == 1
        assert res.stderr == f"error: {flag}: must be >= 0\n"
        assert not (tmp_path / "o").exists()

    def test_missing_input_nonzero_exit(self, tmp_path):
        res = run_cli("prepare", "--input", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o"))
        assert res.returncode != 0
        assert "error" in res.stderr

    def test_non_utf8_input_named(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("u\ti0\nb\xe9\ti1\n".encode("latin-1"))
        res = run_cli("prepare", "--input", str(path), "--out", str(tmp_path / "o"))
        assert_error_names(res, path)
        assert "not valid UTF-8" in res.stderr

    def test_directory_input_named(self, tmp_path):
        res = run_cli("prepare", "--input", str(tmp_path), "--out", str(tmp_path / "o"))
        assert_error_names(res, tmp_path)

    def test_min_count_filters(self, tmp_path):
        path = tmp_path / "tiny.tsv"
        path.write_text("u\ti0\nu\ti1\nu\ti2\nv\ti0\nv\ti1\nv\ti2\nw\ti9\n")
        res = run_cli(
            "prepare", "--input", str(path), "--out", str(tmp_path / "o"),
            "--min-count", "2",
        )
        assert res.returncode == 0
        header = json.loads((tmp_path / "o" / "header.json").read_text())
        assert json.loads(res.stdout) == header
        # w/i9 peel away (degree 1); u, v and i0..i2 survive
        assert header["n_users"] == 2 and header["n_items"] == 3
        assert header["min_count"] == 2

    def test_key_files_map_ids_to_input_keys(self, tmp_path):
        from concf import DatasetSplit

        path = tmp_path / "keys.tsv"
        # ids follow sorted key order, not input order; bob and c peel away at
        # --min-count 2; a key may hold U+2028, which str.splitlines breaks on
        path.write_text("zed\tb\nzed\t\u00e4\namy\tb\namy\t\u00e4\nbob\tc\n"
                        "\u00fcmit\tb\n\u00fcmit\t\u00e4\nli\u2028ne\tb\nli\u2028ne\t\u00e4\n",
                        encoding="utf-8")
        out = tmp_path / "o"
        res = run_cli("prepare", "--input", str(path), "--out", str(out), "--min-count", "2")
        assert res.returncode == 0, res.stderr
        user_keys = (out / "user_keys.txt").read_text(encoding="utf-8").split("\n")
        item_keys = (out / "item_keys.txt").read_text(encoding="utf-8").split("\n")
        users = ["amy", "li\u2028ne", "zed", "\u00fcmit"]
        assert user_keys == [*users, ""]
        assert item_keys == ["b", "\u00e4", ""]
        split = DatasetSplit.load(out)
        pairs = np.concatenate([split.train, split.valid, split.test])
        assert sorted((user_keys[u], item_keys[i]) for u, i in pairs) == sorted(
            (u, i) for u in users for i in ("b", "\u00e4"))

    def test_key_files_keep_tabs_of_csv_keys(self, tmp_path):
        path = tmp_path / "keys.csv"
        path.write_text("c,x\na\tb,y\nc,y\na\tb,x\n")
        out = tmp_path / "o"
        res = run_cli("prepare", "--input", str(path), "--out", str(out), "--format", "csv")
        assert res.returncode == 0, res.stderr
        assert (out / "user_keys.txt").read_text() == "a\tb\nc\n"
        assert (out / "item_keys.txt").read_text() == "x\ny\n"

    def test_header_records_ratios(self, interactions_file, tmp_path):
        from concf import DatasetSplit

        out = tmp_path / "o"
        res = run_cli("prepare", "--input", str(interactions_file), "--out", str(out),
                      "--ratios", "0.7,0.2,0.1")
        assert res.returncode == 0, res.stderr
        assert json.loads((out / "header.json").read_text())["ratios"] == [0.7, 0.2, 0.1]
        assert DatasetSplit.load(out).meta["ratios"] == [0.7, 0.2, 0.1]

    def test_out_file_fails_before_reading_input(self, interactions_file, tmp_path, monkeypatch, capsys):
        from concf import cli, dataset

        calls = []
        monkeypatch.setattr(dataset, "load_interactions", lambda *a, **k: calls.append(a))
        out = tmp_path / "notadir"
        out.write_text("keep\n")
        rc = cli.main(["prepare", "--input", str(interactions_file), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --out: {out} is not a directory\n"
        assert calls == []
        assert out.read_text() == "keep\n"

    def test_data_root_env_resolution(self, interactions_file, tmp_path):
        res = run_cli(
            "prepare", "--input", interactions_file.name, "--out", str(tmp_path / "o"),
            env={"CONCF_DATA_ROOT": str(interactions_file.parent)}, process=True,
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
        assert cfg["dtype"] == "float32"
        assert echo["n_users"] == 25
        # each train pair is one user -> item and one item -> user adjacency entry
        assert echo["nnz"] == 2 * echo["n_train"]

    def test_dry_run_rejects_more_clusters_than_nodes(self, split_dir, tmp_path):
        out = tmp_path / "o"
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", str(out), "--dry-run"
        )
        assert res.returncode != 0
        assert "k_users: 1000" in res.stderr and "25 users" in res.stderr
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", str(out),
            "--k-users", "25", "--k-items", "31",
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

    def test_failed_manifest_write_leaves_no_manifest(self, run_dir, split_dir, tmp_path,
                                                      monkeypatch):
        from concf import cli

        def argv(out):
            return ["train", "--split-dir", str(split_dir), "--out-dir", str(out),
                    "--d", "8", "--batch-size", "128", "--lr", "0.05", "--k-users", "3",
                    "--k-items", "3", "--max-epochs", "2", "--patience", "10", "--seed", "1"]

        def history(out):
            records = [json.loads(l) for l in (out / "history.jsonl").read_text().splitlines()]
            return [{k: v for k, v in r.items() if k != "seconds"} for r in records]

        ref, out = tmp_path / "ref", tmp_path / "r"
        assert cli.main(argv(ref)) == 0
        shutil.copytree(run_dir, out)
        fail_mid_write(monkeypatch, "manifest.json")
        assert cli.main(argv(out)) == 1
        # the earlier run's manifest is gone with its checkpoint, and no temporary file is left
        assert sorted(p.name for p in out.iterdir()) == ["history.jsonl", "model.ckpt"]
        assert len(history(out)) == 2 and history(out) == history(ref)
        assert (out / "model.ckpt").read_bytes() == (ref / "model.ckpt").read_bytes()

    def test_diverging_worker_run_prints_only_the_error(self, split_dir, tmp_path, monkeypatch):
        # the prototype term overflows on the worker thread here;
        # test_reused_out_dir_holds_one_run checks the same stderr with the gate closed
        open_worker_gate(monkeypatch)
        res = run_cli("train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "r"),
                      "--d", "8", "--batch-size", "128", "--k-users", "3", "--k-items", "3",
                      "--lr", "1e30", "--seed", "2")
        assert (res.returncode, res.stdout, res.stderr) == (
            1, "", "error: non-finite loss at epoch 1\n"
        )
        assert worker_started()

    def test_reused_out_dir_holds_one_run(self, split_dir, tmp_path):
        out = tmp_path / "r"
        args = ("train", "--split-dir", str(split_dir), "--out-dir", str(out), "--d", "8",
                "--batch-size", "128", "--k-users", "3", "--k-items", "3", "--max-epochs", "3")

        def files():
            return {p.name: p.read_bytes() for p in out.iterdir()}

        res = run_cli(*args, "--lr", "0.05", "--seed", "1")
        assert res.returncode == 0, res.stderr
        first = files()
        assert sorted(first) == ["history.jsonl", "manifest.json", "model.ckpt"]
        # a rejected config and a dry run leave the earlier run as it was
        assert run_cli(*args, "--lr", "0").returncode == 1
        assert run_cli(*args, "--dry-run").returncode == 0
        assert files() == first

        res = run_cli(*args, "--lr", "1e30", "--seed", "2")
        assert res.returncode == 1
        assert res.stderr == "error: non-finite loss at epoch 1\n"
        assert sorted(files()) == ["crash.ckpt", "history.jsonl"]
        assert (out / "history.jsonl").read_text() == ""

        res = run_cli(*args, "--lr", "0.05", "--seed", "3")
        assert res.returncode == 0, res.stderr
        assert sorted(files()) == ["history.jsonl", "manifest.json", "model.ckpt"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3 and manifest["epochs_run"] == 3

    def test_config_file_with_flag_override(self, split_dir, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "d = 8\nbatch_size = 64\nmax_epochs = 2\n# comment\nseed = 9\n"
            "k_users = 5\nk_items = 6\n"
        )
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "o"),
            "--config", str(cfg_file), "--batch-size", "32", "--dry-run",
        )
        assert res.returncode == 0
        cfg = json.loads(res.stdout)["config"]
        assert cfg["d"] == 8 and cfg["batch_size"] == 32 and cfg["seed"] == 9
        assert cfg["k_users"] == [5] and cfg["k_items"] == [6]

    def test_unparsable_config_value_named(self, tmp_path):
        # the config fails before the (missing) split is read
        for line, field in (("d = abc", "d"), ("k_users = 3,x", "k_users"),
                            ("k_items = 5, 6", "k_items")):
            cfg_file = tmp_path / "bad.cfg"
            cfg_file.write_text(line + "\n")
            res = run_cli(
                "train", "--split-dir", str(tmp_path / "no-split"), "--out-dir", "/dev/null",
                "--config", str(cfg_file), "--dry-run",
            )
            assert res.returncode != 0
            assert f"invalid config: {field}: " in res.stderr

    def test_unparsable_flag_value_named(self, tmp_path):
        # the flag fails before the (missing) split is read
        for flag, value, message in (
            ("--patience", "many", "patience: "),
            ("--k-users", "5,6", "k_users: must be one cluster count >= 1, got (5, 6)"),
        ):
            res = run_cli(
                "train", "--split-dir", str(tmp_path / "no-split"), "--out-dir", "/dev/null",
                flag, value, "--dry-run",
            )
            assert res.returncode == 1
            assert f"invalid config: {message}" in res.stderr

    def test_one_flag_per_config_field(self):
        import dataclasses

        from concf.cli import _build_parser
        from concf.config import TrainConfig

        names = [f.name for f in dataclasses.fields(TrainConfig)]
        argv = ["train", "--split-dir", "s", "--out-dir", "o"]
        for name in names:
            argv += ["--" + name.replace("_", "-"), "raw"]
        parsed = vars(_build_parser().parse_args(argv))
        own = {"command", "split_dir", "config", "out_dir", "dry_run"}
        assert sorted(set(parsed) - own) == sorted(names)
        assert all(parsed[name] == "raw" for name in names)

    def test_config_file_strings_round_trip(self):
        from concf.config import TrainConfig

        cfg = TrainConfig(k_users=(7,), lambda2=3.5e-9)
        for base in (TrainConfig(), cfg):
            as_file = {
                key: ",".join(map(str, v)) if isinstance(v, list) else str(v)
                for key, v in base.to_dict().items()
            }
            assert TrainConfig.from_dict(as_file).to_dict() == base.to_dict()

    def test_unknown_config_key_named(self, split_dir, tmp_path):
        # not config fields: the E-step clusters the base table with fixed
        # K-means limits, and validation ranks every user
        for key in ("nonsense", "cluster_source", "valid_user_cap", "kmeans_max_iters",
                    "kmeans_tol"):
            cfg_file = tmp_path / "bad.cfg"
            cfg_file.write_text(f"{key} = base\n")
            res = run_cli(
                "train", "--split-dir", str(split_dir), "--out-dir", "/dev/null",
                "--config", str(cfg_file), "--dry-run",
            )
            assert res.returncode != 0
            assert f"invalid config: {key}: unknown config field" in res.stderr
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", "/dev/null",
            "--cluster-source", "base", "--dry-run",
        )
        assert res.returncode == 2
        assert "--cluster-source" in res.stderr

    def test_non_utf8_split_file_named(self, split_dir, tmp_path):
        broken = shutil.copytree(split_dir, tmp_path / "split")
        with open(broken / "valid.tsv", "ab") as fh:
            fh.write(b"\xff\t1\n")
        res = run_cli(
            "train", "--split-dir", str(broken), "--out-dir", str(tmp_path / "run"), "--dry-run"
        )
        assert_error_names(res, broken / "valid.tsv")
        assert "not valid UTF-8" in res.stderr

    def test_non_utf8_config_file_named(self, split_dir, tmp_path):
        cfg_file = tmp_path / "latin1.cfg"
        cfg_file.write_bytes("d = 8  # caf\xe9\n".encode("latin-1"))
        res = run_cli(
            "train", "--split-dir", str(split_dir), "--out-dir", "/dev/null",
            "--config", str(cfg_file), "--dry-run",
        )
        assert_error_names(res, cfg_file)
        assert "not valid UTF-8" in res.stderr


    @pytest.mark.parametrize("flag, value, message", [
        ("--max-epochs", "0", "max_epochs: must be >= 1"),
        ("--seed", "-1", "seed: must be >= 0"),
        ("--tau", "nan", "tau: must be finite"),
        ("--lambda1", "inf", "lambda1: must be finite"),
        ("--lr", "0", "lr: must be > 0"),
    ])
    def test_bad_field_rejected_before_work(self, split_dir, tmp_path, flag, value, message):
        out = tmp_path / "o"
        res = run_cli("train", "--split-dir", str(split_dir), "--out-dir", str(out), flag, value)
        assert res.returncode == 1
        assert res.stderr == f"error: invalid config: {message}\n"
        assert not out.exists()  # no crash.ckpt, no history.jsonl

    def test_empty_valid_split_rejected_before_work(self, interactions_file, tmp_path):
        split = tmp_path / "split"
        res = run_cli("prepare", "--input", str(interactions_file), "--out", str(split),
                      "--ratios", "0.9,0,0.1")
        assert res.returncode == 0 and json.loads(res.stdout)["counts"]["valid"] == 0
        out = tmp_path / "o"
        res = run_cli("train", "--split-dir", str(split), "--out-dir", str(out),
                      "--k-users", "3", "--k-items", "3")
        assert res.returncode == 1
        assert res.stderr == "error: valid split is empty\n"
        assert not out.exists()  # no crash.ckpt, no history.jsonl

    def test_empty_train_split_rejected_before_work(self, split_dir, tmp_path):
        from concf import DatasetSplit

        full = DatasetSplit.load(split_dir)
        split = tmp_path / "split"
        DatasetSplit(full.n_users, full.n_items, np.empty((0, 2), dtype=np.int64),
                     full.valid, full.test).save(split)
        out = tmp_path / "o"
        res = run_cli("train", "--split-dir", str(split), "--out-dir", str(out),
                      "--k-users", "3", "--k-items", "3")
        assert res.returncode == 1
        assert res.stderr == "error: train split is empty\n"
        assert not out.exists()

    def test_repeated_config_key_named(self, split_dir, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tau = 0.2\n# the second value must not win silently\ntau = 0.05\n")
        res = run_cli("train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "o"),
                      "--config", str(cfg_file), "--dry-run")
        assert res.returncode == 1
        assert res.stderr == f"error: invalid config: {cfg_file}: line 3: repeated key 'tau'\n"

    def test_empty_config_key_named(self, split_dir, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("d = 8\n = 5\n")
        res = run_cli("train", "--split-dir", str(split_dir), "--out-dir", str(tmp_path / "o"),
                      "--config", str(cfg_file), "--dry-run")
        assert res.returncode == 1
        assert res.stderr == f"error: invalid config: {cfg_file}: line 2: empty key\n"

    def test_config_checked_before_split_loads(self, tmp_path):
        res = run_cli(
            "train", "--split-dir", str(tmp_path / "missing"), "--out-dir", str(tmp_path / "o"),
            "--lambda1", "-1",
        )
        assert res.returncode == 1
        assert res.stderr == "error: invalid config: lambda1: must be >= 0\n"


class TestEvaluate:
    def test_directory_checkpoint_named(self, split_dir, tmp_path):
        res = run_cli("evaluate", "--checkpoint", str(tmp_path), "--split-dir", str(split_dir))
        assert_error_names(res, tmp_path)

    def test_report_keys(self, run_dir, split_dir):
        res = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(split_dir), "--ns", "10,20,50", process=True,
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

    def test_groups_rank_each_user_once(self, run_dir, split_dir, tmp_path, monkeypatch):
        from concf import cli, evaluator

        targets = []
        user_metrics = evaluator._user_metrics

        def counted(fp, split, target, *args, **kwargs):
            targets.append(target)
            return user_metrics(fp, split, target, *args, **kwargs)

        monkeypatch.setattr(evaluator, "_user_metrics", counted)
        rc = cli.main([
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(split_dir), "--groups", "5", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 0
        assert targets == ["test"]

    def test_failed_out_write_keeps_previous_report(self, run_dir, split_dir, tmp_path,
                                                    monkeypatch):
        from concf import cli

        out = tmp_path / "report.json"
        out.write_text("previous\n")
        argv = ["evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
                "--split-dir", str(split_dir), "--out", str(out)]
        fail_mid_write(monkeypatch, "report.json")
        assert cli.main(argv) == 1
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert out.read_text() == "previous\n"
        assert cli.main(argv) == 0
        assert out.read_text() == run_cli(*argv[:-2]).stdout

    def test_repeated_cutoff_printed_once(self, run_dir, split_dir, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(split_dir), "--ns", "10,10", "--groups", "2", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        header, recall, ndcg, _, *groups = res.stdout.splitlines()
        assert header.split() == ["metric", "@10"]
        assert len(recall.split()) == len(ndcg.split()) == 2
        assert len(groups) == 2 and all(g.split(": recall ")[1].count(" ") == 0 for g in groups)
        report = json.loads(out.read_text())
        assert sorted(k for k in report if "@" in k) == ["ndcg@10", "recall@10"]

    def test_out_into_missing_directory(self, run_dir, split_dir, tmp_path):
        out = tmp_path / "missing" / "deeper" / "report.json"
        res = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(split_dir), "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(out.read_text())["n_evaluated_users"] > 0

    def test_out_directory_fails_before_loading(self, split_dir, tmp_path):
        # the checkpoint does not exist: only the --out check can have run
        res = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--split-dir", str(split_dir), "--out", str(tmp_path),
        )
        assert_error_names(res, tmp_path)
        assert res.stderr == f"error: --out: {tmp_path} is a directory\n"

    def test_failed_evaluate_creates_no_out_directory(self, split_dir, tmp_path):
        res = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--split-dir", str(split_dir), "--out", str(tmp_path / "new" / "deeper" / "r.json"),
        )
        assert_error_names(res, tmp_path / "missing.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_groups_above_user_count_fails_before_checkpoint(self, split_dir, tmp_path):
        # the checkpoint does not exist: only the split has been read
        n_users = json.loads((split_dir / "header.json").read_text())["n_users"]
        res = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--split-dir", str(split_dir), "--groups", str(n_users + 1),
        )
        assert res.returncode == 1
        assert res.stderr == f"error: --groups: must be <= {n_users}, the split's user count\n"
        res = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--split-dir", str(split_dir), "--groups", str(n_users),
        )
        assert_error_names(res, tmp_path / "missing.ckpt")

    def test_unparsable_cutoff_names_the_flag(self, run_dir, split_dir):
        res = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(split_dir), "--ns", "a",
        )
        assert res.returncode == 1
        assert res.stderr == "error: --ns: invalid literal for int() with base 10: 'a'\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--groups", "0", "must be >= 1"),
        ("--groups", "-2", "must be >= 1"),
        ("--ns", "10,0", "every cutoff must be >= 1"),
    ])
    def test_flag_rejected_before_loading(self, split_dir, tmp_path, flag, value, message):
        # the checkpoint does not exist: the flag is checked first
        res = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--split-dir", str(split_dir), flag, value,
        )
        assert res.returncode == 1
        assert res.stderr == f"error: {flag}: {message}\n"

    @pytest.mark.parametrize("ns", ["0,10", "-3"])
    def test_cutoff_below_one_rejected(self, run_dir, split_dir, ns):
        res = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split-dir", str(split_dir), "--ns", ns,
        )
        assert res.returncode == 1
        assert "ns: every cutoff must be >= 1" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_header_without_counts_named(self, run_dir, split_dir, tmp_path, command):
        broken = tmp_path / "split"
        broken.mkdir()
        for name in ("train.tsv", "valid.tsv", "test.tsv"):
            (broken / name).write_bytes((split_dir / name).read_bytes())
        header = json.loads((split_dir / "header.json").read_text())
        del header["counts"]
        (broken / "header.json").write_text(json.dumps(header))
        args = {
            "evaluate": ("--checkpoint", str(run_dir / "model.ckpt")),
            "train": ("--out-dir", str(tmp_path / "run"), "--dry-run"),
        }[command]
        res = run_cli(command, "--split-dir", str(broken), *args)
        assert res.returncode == 1
        assert "header.json: missing field 'counts.train'" in res.stderr
        assert "Traceback" not in res.stderr

    def test_header_not_json_named(self, run_dir, split_dir, tmp_path):
        broken = tmp_path / "split"
        broken.mkdir()
        for name in ("train.tsv", "valid.tsv", "test.tsv"):
            (broken / name).write_bytes((split_dir / name).read_bytes())
        (broken / "header.json").write_text("{\n")
        res = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"), "--split-dir", str(broken)
        )
        assert res.returncode == 1
        assert f"error: {broken / 'header.json'}: not valid JSON" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("damage, problem", [
        (lambda head, payload: (head.replace(b'"d": 8, ', b""), payload), "missing field 'd'"),
        (lambda head, payload: (head, payload + b"\0"), "1 trailing bytes"),
    ])
    def test_malformed_checkpoint_named(self, run_dir, split_dir, tmp_path, damage, problem):
        head, payload = (run_dir / "model.ckpt").read_bytes().split(b"\n", 1)
        head, payload = damage(head, payload)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(head + b"\n" + payload)
        res = run_cli("evaluate", "--checkpoint", str(bad), "--split-dir", str(split_dir))
        assert res.returncode == 1
        assert f"error: {bad}: {problem}" in res.stderr
        assert "Traceback" not in res.stderr

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
            "--split-dir", str(split_dir), "--format", "text", "--out", str(out), process=True,
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
        adj = build_normalized_adjacency(split, dtype=ckpt.table.matrix.dtype)
        fp = forward(adj, ckpt.table, ckpt.n_layers)
        _, users = read_matrix_binary(f"{out}.users.bin")
        assert users.dtype == fp.user_readout.dtype == np.float32  # the training default
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


@pytest.mark.parametrize("argv", [
    ["prepare", "--input", "i", "--out", "o"],
    ["train", "--split-dir", "s", "--out-dir", "o"],
    ["evaluate", "--checkpoint", "c", "--split-dir", "s"],
    ["export", "--checkpoint", "c", "--split-dir", "s", "--out", "o"],
], ids=lambda argv: argv[0])
def test_threads_flag_unknown(argv, capsys):
    from concf.cli import _build_parser

    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv + ["--threads", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--split-dir", "s", "--out-dir", "o", "--beta1", "0.9"],
    ["train", "--split-dir", "s", "--out-dir", "o", "--beta2", "0.999"],
    ["train", "--split-dir", "s", "--out-dir", "o", "--adam-eps", "1e-8"],
    ["train", "--split-dir", "s", "--out-dir", "o", "--valid-user-cap", "12"],
    ["train", "--split-dir", "s", "--out-dir", "o", "--kmeans-max-iters", "50"],
    ["train", "--split-dir", "s", "--out-dir", "o", "--kmeans-tol", "0"],
    ["evaluate", "--checkpoint", "c", "--split-dir", "s", "--no-mask-validation"],
], ids=["beta1", "beta2", "adam-eps", "valid-user-cap", "kmeans-max-iters", "kmeans-tol",
        "no-mask-validation"])
def test_fixed_choice_flag_unknown(argv, capsys):
    # Adam's constants, the E-step's K-means limits, validation over every
    # user and test-time validation masking are not options
    from concf.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[5:])}" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["beta1", "beta2", "adam_eps"])
def test_adam_constant_in_config_file_unknown(tmp_path, capsys, field):
    from concf.cli import main

    cfg_file = tmp_path / "adam.cfg"
    cfg_file.write_text(f"{field} = 0.5\n")
    assert main(["train", "--split-dir", str(tmp_path / "missing"), "--out-dir",
                 str(tmp_path / "o"), "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == f"error: invalid config: {field}: unknown config field\n"
    assert not (tmp_path / "o").exists()


def readme_commands() -> list[list[str]]:
    """The argv of every ``concf ...`` line in the README's fenced bash blocks,
    with backslash continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", text, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("concf "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == {"prepare", "train", "evaluate", "export"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv, capsys):
    from concf.cli import _build_parser

    try:
        _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: concf {' '.join(argv)}\n"
                    + capsys.readouterr().err)


def test_readme_flags_are_options():
    # a backticked flag in the prose names an option of some subcommand
    import argparse

    from concf.cli import _build_parser

    (subparsers,) = (a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in subparsers.choices.values() for opt in sub._option_string_actions}
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    flags = {flag for span in re.findall(r"`([^`\n]+)`", text)
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", span)}
    assert flags, "the README names no flag"
    assert sorted(flags - options) == []
