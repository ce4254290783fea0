"""Command-line pipeline: prepare, train, evaluate, export.

Exit code 0 means the command completed; diagnostics go to stderr, data to
files or stdout. Relative data paths that do not exist are also resolved
against $CONCF_DATA_ROOT.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, dataset, framed
from .config import TrainConfig, load_config_file
from .dataset import DatasetSplit
from .evaluator import full_rank_eval, sparsity_group_report
from .graph import build_normalized_adjacency
from .model import forward, load_checkpoint, save_checkpoint, write_matrix_binary, write_matrix_text
from .trainer import train

DATA_ROOT_ENV = "CONCF_DATA_ROOT"


def _resolve_path(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get(DATA_ROOT_ENV)
    if root and not p.is_absolute():
        candidate = Path(root) / p
        if candidate.exists():
            return candidate
    return p


def _parse_list(flag: str, raw: str, parse) -> tuple:
    """Comma-separated flag values, each through ``parse``; errors name the flag."""
    try:
        return tuple(parse(v) for v in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _check_at_least(args: argparse.Namespace, **bounds: int) -> None:
    """Raise ValueError naming the first given flag below its bound."""
    for name, low in bounds.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise ValueError(f"--{name.replace('_', '-')}: must be >= {low}")


@functools.cache  # built once per process: parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concf",
        description="Contrastive graph collaborative filtering pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="filter, re-id, and split an interaction log")
    p.add_argument("--input", required=True, help="interaction file (user<TAB>item...)")
    p.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    p.add_argument("--min-count", type=int, default=0,
                   help="k-core threshold; 0 disables filtering")
    p.add_argument("--ratios", default="0.8,0.1,0.1", help="train,valid,test fractions")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="output split directory")

    t = sub.add_parser("train", help="train on a prepared split")
    t.add_argument("--split-dir", required=True)
    t.add_argument("--config", default=None, help="flat key=value config file")
    t.add_argument("--out-dir", required=True)
    t.add_argument("--dry-run", action="store_true",
                   help="validate config and data shapes, then exit")
    # one flag per config field (n_layers -> --n-layers); the raw string goes
    # through TrainConfig.from_dict, the same parser as config-file values
    for f in fields(TrainConfig):
        t.add_argument(f"--{f.name.replace('_', '-')}", default=None, metavar="VALUE")

    e = sub.add_parser("evaluate", help="full-ranking metrics from a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--split-dir", required=True)
    e.add_argument("--target", choices=("valid", "test"), default="test")
    e.add_argument("--ns", default="10,20,50")
    e.add_argument("--groups", type=int, default=None,
                   help="also report per sparsity group (equal interaction mass)")
    e.add_argument("--out", default=None, help="write report JSON here instead of stdout")

    x = sub.add_parser("export", help="write user/item representations")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--split-dir", required=True)
    x.add_argument("--format", choices=("binary", "text"), default="text")
    x.add_argument("--representation", choices=("readout", "base"), default="readout",
                   help="averaged propagation output or the raw embedding table")
    x.add_argument("--out", required=True, help="output path prefix")
    return parser


def cmd_prepare(args: argparse.Namespace) -> int:
    _check_at_least(args, min_count=0, seed=0)
    ratios = _parse_list("--ratios", args.ratios, float)
    dataset.check_ratios(ratios, "--ratios")
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise ValueError(f"--out: {args.out} is not a directory")
    in_path = _resolve_path(args.input)
    if not in_path.exists():
        print(f"error: input file not found: {args.input}", file=sys.stderr)
        return 1
    raw = dataset.load_interactions(in_path, fmt=args.format)
    if args.min_count > 1:
        raw = dataset.k_core_filter(raw, args.min_count)
    split = dataset.build_split(raw, ratios=ratios, seed=args.seed)
    split.meta["min_count"] = args.min_count
    header = split.save(out)
    # line n holds the key of id n - 1, ended by "\n"; a key may hold "\u2028" and the like
    for name, keys in (("user_keys.txt", raw.user_keys), ("item_keys.txt", raw.item_keys)):
        framed.write_replacing(out / name, "".join(f"{key}\n" for key in keys))
    print(json.dumps(header, sort_keys=True))
    return 0


def _resolved_config(args: argparse.Namespace):
    values = load_config_file(_resolve_path(args.config)) if args.config else {}
    flags = {f.name: getattr(args, f.name) for f in fields(TrainConfig)}
    values.update((key, raw) for key, raw in flags.items() if raw is not None)
    config = TrainConfig.from_dict(values)
    config.validate()
    return config


def cmd_train(args: argparse.Namespace) -> int:
    try:
        config = _resolved_config(args)
    except ValueError as exc:
        raise ValueError(f"invalid config: {exc}") from None
    split_dir = _resolve_path(args.split_dir)
    split = DatasetSplit.load(split_dir)
    try:
        config.validate_for_split(split.n_users, split.n_items)
    except ValueError as exc:
        raise ValueError(f"invalid config: {exc}") from None
    split.require("train", "valid")

    if args.dry_run:
        echo = {
            "config": config.to_dict(),
            "backbone": config.backbone_tag,
            "n_users": split.n_users,
            "n_items": split.n_items,
            "n_train": int(len(split.train)),
            "nnz": 2 * split.train_matrix.nnz,  # each train pair is two adjacency entries
        }
        print(json.dumps(echo, sort_keys=True))
        return 0

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in ("model.ckpt", "crash.ckpt", "manifest.json"):  # an earlier run's
        (out_dir / stale).unlink(missing_ok=True)
    split_file = split_dir / dataset.SPLIT_FILE
    manifest = {
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "package_version": __version__,
        "command": "train",
        "split_dir": str(split_dir),
        "split_checksums": {split_file.name: hashlib.sha256(split_file.read_bytes()).hexdigest()},
        "config": config.to_dict(),
        "backbone": config.backbone_tag,
        "loss_scaling": {"bpr": "batch_mean", "contrastive": "batch_sum", "reg": "batch_mean"},
    }
    manifest["run_id"] = hashlib.sha256(
        json.dumps(
            {"config": manifest["config"], "checksums": manifest["split_checksums"]},
            sort_keys=True,
        ).encode()
    ).hexdigest()[:12]

    def _progress(record) -> None:
        log_stream.write(json.dumps(asdict(record), sort_keys=True) + "\n")
        log_stream.flush()
        print(
            f"epoch {record.epoch:4d}  loss {record.loss.total:.6f}  "
            f"bpr {record.loss.bpr:.6f}  valid ndcg@10 {record.valid_ndcg10:.6f}  "
            f"({record.seconds:.1f}s)",
            file=sys.stderr,
        )

    with open(out_dir / "history.jsonl", "w", encoding="utf-8") as log_stream:
        result = train(config, split, out_dir=out_dir, progress=_progress)

    save_checkpoint(
        out_dir / "model.ckpt",
        result.table,
        n_layers=config.n_layers,
        epoch=result.best_epoch,
    )
    manifest["best_epoch"] = result.best_epoch
    manifest["best_valid_ndcg10"] = result.best_metric
    manifest["epochs_run"] = len(result.history)
    manifest["stopped_early"] = result.stopped_early
    framed.write_replacing(
        out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"done: best epoch {result.best_epoch} "
        f"(valid ndcg@10 {result.best_metric:.6f}), run {manifest['run_id']}",
        file=sys.stderr,
    )
    return 0


def _load_model(args: argparse.Namespace, header: dict):
    """The split ``args.split_dir``, whose split.bin header is ``header``, the
    checkpoint ``args.checkpoint``, checked against that shape, and its
    forward pass on the split's graph, split as a training step's is.

    The checkpoint is read before the split's pairs, so a missing or
    malformed checkpoint fails before they are read, and its error wins
    when both are bad.
    """
    ckpt = load_checkpoint(_resolve_path(args.checkpoint))
    if (ckpt.table.n_users, ckpt.table.n_items) != (header["n_users"], header["n_items"]):
        raise ValueError(
            f"shape mismatch: checkpoint has {ckpt.table.n_users} users / "
            f"{ckpt.table.n_items} items, split has {header['n_users']} / {header['n_items']}"
        )
    split = DatasetSplit.load(_resolve_path(args.split_dir))
    adj = build_normalized_adjacency(split, dtype=ckpt.table.matrix.dtype)
    fp = forward(adj, ckpt.table, ckpt.n_layers)
    return split, ckpt, fp


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_at_least(args, groups=1)
    ns = tuple(dict.fromkeys(_parse_list("--ns", args.ns, int)))  # each cutoff once
    if min(ns) < 1:
        raise ValueError("--ns: every cutoff must be >= 1")
    if args.out:
        out = Path(args.out)
        if out.is_dir():
            raise ValueError(f"--out: {args.out} is a directory")
    header = DatasetSplit.read_header(_resolve_path(args.split_dir))
    if args.groups and args.groups > header["n_users"]:
        raise ValueError(f"--groups: must be <= {header['n_users']}, the split's user count")
    split, _, fp = _load_model(args, header)
    if args.groups:
        report = sparsity_group_report(fp, split, n_groups=args.groups, ns=ns, target=args.target)
    else:
        report = full_rank_eval(fp, split, ns=ns, target=args.target)
    payload = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        out.parent.mkdir(parents=True, exist_ok=True)
        framed.write_replacing(out, payload)
        _print_table(report, ns)
    else:
        sys.stdout.write(payload)
    return 0


def _print_table(report, ns: tuple[int, ...]) -> None:
    header = "metric " + " ".join(f"@{n:<8d}" for n in ns)
    print(header)
    for metric in ("recall", "ndcg"):
        row = [f"{report.metrics[f'{metric}@{n}']:.6f}" for n in ns]
        print(f"{metric:<7s}" + " ".join(f"{v:<9s}" for v in row))
    print(f"evaluated users: {report.n_evaluated_users}")
    if report.groups:
        for g in report.groups:
            meta = g.metadata
            vals = " ".join(f"{g.metrics[f'recall@{n}']:.6f}" for n in ns)
            print(
                f"group {meta['group_index']} (users {meta['group_size']}, "
                f"mass {meta['group_interaction_mass']}): recall {vals}"
            )


def cmd_export(args: argparse.Namespace) -> int:
    split, ckpt, fp = _load_model(args, DatasetSplit.read_header(_resolve_path(args.split_dir)))
    if args.representation == "readout":
        user_m, item_m = fp.user_readout, fp.item_readout
    else:
        user_m, item_m = ckpt.table.user_block, ckpt.table.item_block
    writer = write_matrix_text if args.format == "text" else write_matrix_binary
    suffix = "tsv" if args.format == "text" else "bin"
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    writer(f"{out}.users.{suffix}", np.arange(split.n_users), user_m)
    writer(f"{out}.items.{suffix}", np.arange(split.n_items), item_m)
    print(f"wrote {out}.users.{suffix} and {out}.items.{suffix}", file=sys.stderr)
    return 0


_COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
