"""Command-line pipeline: prepare, train, evaluate, export.

Exit code 0 means the command completed; diagnostics go to stderr, data to
files or stdout. Relative data paths that do not exist are also resolved
against $CONCF_DATA_ROOT.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from .config import TrainConfig, load_config_file

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


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _set_threads(n: int | None) -> None:
    # must run before numpy is imported anywhere in this process
    if n is None:
        return
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


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
    p.add_argument("--threads", type=int, default=None)

    t = sub.add_parser("train", help="train on a prepared split")
    t.add_argument("--split-dir", required=True)
    t.add_argument("--config", default=None, help="flat key=value config file")
    t.add_argument("--out-dir", required=True)
    t.add_argument("--dry-run", action="store_true",
                   help="validate config and data shapes, then exit")
    t.add_argument("--threads", type=int, default=None)
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
    e.add_argument("--no-mask-validation", action="store_true",
                   help="keep validation items as test-time candidates")
    e.add_argument("--out", default=None, help="write report JSON here instead of stdout")
    e.add_argument("--threads", type=int, default=None)

    x = sub.add_parser("export", help="write user/item representations")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--split-dir", required=True)
    x.add_argument("--format", choices=("binary", "text"), default="text")
    x.add_argument("--representation", choices=("readout", "base"), default="readout",
                   help="averaged propagation output or the raw embedding table")
    x.add_argument("--out", required=True, help="output path prefix")
    x.add_argument("--threads", type=int, default=None)
    return parser


def cmd_prepare(args: argparse.Namespace) -> int:
    from . import dataset

    in_path = _resolve_path(args.input)
    if not in_path.exists():
        print(f"error: input file not found: {args.input}", file=sys.stderr)
        return 1
    ratios = tuple(float(r) for r in args.ratios.split(","))
    raw = dataset.load_interactions(in_path, fmt=args.format)
    if args.min_count > 1:
        raw = dataset.k_core_filter(raw, args.min_count)
    split = dataset.build_split(raw, ratios=ratios, seed=args.seed)
    split.meta["min_count"] = args.min_count
    split.save(args.out)
    header = json.loads((Path(args.out) / "header.json").read_text())
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
    from .dataset import DatasetSplit
    from .graph import build_normalized_adjacency
    from .trainer import train
    from .model import save_checkpoint
    from . import __version__

    split_dir = _resolve_path(args.split_dir)
    split = DatasetSplit.load(split_dir)
    try:
        config = _resolved_config(args)
        config.validate_for_split(split.n_users, split.n_items)
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 1

    if args.dry_run:
        adj = build_normalized_adjacency(split)
        echo = {
            "config": config.to_dict(),
            "backbone": config.backbone_tag,
            "n_users": split.n_users,
            "n_items": split.n_items,
            "n_train": int(len(split.train)),
            "nnz": adj.nnz,
        }
        print(json.dumps(echo, sort_keys=True))
        return 0

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "run_id": None,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "package_version": __version__,
        "command": "train",
        "split_dir": str(split_dir),
        "split_checksums": {
            name: _sha256(split_dir / name)
            for name in ("train.tsv", "valid.tsv", "test.tsv", "header.json")
        },
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
        print(
            f"epoch {record.epoch:4d}  loss {record.loss.total:.6f}  "
            f"bpr {record.loss.bpr:.6f}  valid ndcg@10 {record.valid_ndcg10:.6f}  "
            f"({record.seconds:.1f}s)",
            file=sys.stderr,
        )

    with open(out_dir / "history.jsonl", "w", encoding="utf-8") as log_stream:
        result = train(
            config, split, out_dir=out_dir, log_stream=log_stream, progress=_progress
        )

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
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"done: best epoch {result.best_epoch} "
        f"(valid ndcg@10 {result.best_metric:.6f}), run {manifest['run_id']}",
        file=sys.stderr,
    )
    return 0


def _load_compatible(args: argparse.Namespace):
    from .dataset import DatasetSplit
    from .graph import build_normalized_adjacency
    from .model import forward, load_checkpoint

    ckpt = load_checkpoint(_resolve_path(args.checkpoint))
    split = DatasetSplit.load(_resolve_path(args.split_dir))
    if (ckpt.table.n_users, ckpt.table.n_items) != (split.n_users, split.n_items):
        raise ValueError(
            f"shape mismatch: checkpoint has {ckpt.table.n_users} users / "
            f"{ckpt.table.n_items} items, split has {split.n_users} / {split.n_items}"
        )
    adj = build_normalized_adjacency(split, dtype=ckpt.table.matrix.dtype)
    fp = forward(adj, ckpt.table, ckpt.n_layers)
    return ckpt, split, fp


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluator import full_rank_eval, sparsity_group_report

    ckpt, split, fp = _load_compatible(args)
    ns = tuple(int(n) for n in args.ns.split(","))
    mask_validation = not args.no_mask_validation
    report = full_rank_eval(fp, split, target=args.target, ns=ns, mask_validation=mask_validation)
    if args.groups:
        report.groups = sparsity_group_report(
            fp, split, n_groups=args.groups, ns=ns,
            target=args.target, mask_validation=mask_validation,
        )
    payload = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
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
    import numpy as np

    from .model import write_matrix_binary, write_matrix_text

    ckpt, split, fp = _load_compatible(args)
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
    _set_threads(getattr(args, "threads", None))
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
